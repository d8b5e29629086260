"""Dataset, report and mesh serialization.

Both structured formats are versioned JSON documents.  Headers are indented
for diffing; floats serialize via ``repr`` and numeric lists stay on one line
each.  Files are written atomically (temp file + rename).

A ``prodimm-dataset/2`` document holds the header ``schema``, ``n``, ``p``,
``grid``, ``tolerances`` and ``meta``, and ``fields``: one entry per field,
each one base64 string (RFC 4648 alphabet, padded, no line breaks) of the
field's little-endian float64 (``<f8``) bytes in C order, node-major with the
slots last:

    metric             (n, n)      g_ij
    bundle_connection  (n, p, p)   omega[m, a, b]
    sigma              (n, n, p)   sigma_ij^a
    psi.f              (n, n)      f^i_j
    psi.u              (p, n)      u^a_j
    psi.U              (n, p)      U^i_b
    psi.lambda         (p, p)      lambda^a_b

A field holds 8 bytes per node and slot.  The arrays are not numeric JSON
because writing each float as text (``float.__repr__``) and parsing it back
cost more than the geometry they carry; the bytes round-trip bitwise, and each
field is encoded or decoded by one C call.  It is the one dataset format: a
document of any other schema, ``prodimm-dataset/1`` (its fields as flat JSON
lists) included, is rejected with a ``SchemaError`` naming the schema expected.

In memory the four psi blocks are one (*dims, n+p, n+p) structure matrix
[[f, U], [u, lambda]], filled block by block on load and checked by ``Geometry``.
A rejection on load is a ``SchemaError`` with the node of the error it wraps.

A ``prodimm-report/1`` document is one :class:`prodimm.structure.Report`, read
here alone: ``reconstruction`` needs integers ``base_node``, ``ambient_dim`` N
and ``k`` with 1 <= k <= N - 3, and ``psi_base``, N^2 finite numbers loaded as
the (N, N) frame map, and ``alignment`` numeric distances.  The alignment
block is written as ``reconstruct.align_congruence`` builds it; its
``max_distance`` is measured in the product's own metric
(``lorentz.product_distance``).  Every format is written and read here alone:
the check records, the tolerance model (``tolerances_to_dict``,
``tolerances_from_dict``) and the blocks; ``structure`` holds no serialization.

A mesh holds the ambient points of a rebuild and nothing its report already
says: the header ``immersion_csv_header(k, N)``, then one row of N values per
node of the report's grid, in C order.  It is read only together with that
report, by :func:`load_rebuild`, which rejects a mesh whose header, row count
or values do not fit it.

No Python code runs once per element on the write path: each numeric report
array is told apart by the set of its element types and written by one JSON
encoder call, and a mesh table is written by one ``%`` format per block of
rows, each distinct value of a column formatted once, and read back by one
``np.loadtxt`` call.  A JSON document is written as its pieces in order, each
base64 field one piece, and never joined into one text, so a write holds no
joined copy of the document.
"""

from __future__ import annotations

import binascii
import io
import json
import math
import operator
import os
import re
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ReconstructionError, SchemaError
from .extract import ExtractionResult, default_tolerances
from .fields import BundleData, ChartGrid, MetricField, SecondFormField, argmax_node
from .flatbundle import Geometry
from .lorentz import minkowski_dot
from .structure import CheckRecord, Report, ToleranceModel, psi_blocks

DATASET_SCHEMA = "prodimm-dataset/2"
REPORT_SCHEMA = "prodimm-report/1"
_GRID_KEYS = ("dims", "spacing", "origin")   # ChartGrid fields, in order
_PSI_FIELDS = ("psi.f", "psi.u", "psi.U", "psi.lambda")   # the blocks of psi_blocks, in order


@dataclass(frozen=True, eq=False)
class Dataset(Geometry):
    """Everything the checker and the reconstructor consume: a ``Geometry`` (its grid
    and p read off the fields) plus the tolerances and meta the document carries."""

    tolerances: ToleranceModel
    meta: dict

    @classmethod
    def from_extraction(cls, data: ExtractionResult) -> "Dataset":
        """The extraction's fields with its route's default tolerances and the fixture's meta."""
        info = {"fixture": data.immersion.name, "k": data.immersion.k,
                "params": dict(data.immersion.params or {}),
                "analytic_derivatives": data.analytic_derivatives}
        return cls(metric=data.metric, bundle=data.bundle, sigma=data.sigma, psi=data.psi,
                   tolerances=default_tolerances(data), meta=info)


def _atomic_write(path: str, write):
    """Run ``write(handle)`` on a temp file next to ``path``, then rename it over.

    The file gets the mode a plain ``open`` would create it with, 0666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)   # the mode ``open`` gives, not mkstemp's 0600
        with os.fdopen(fd, "w", newline="") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_ARRAY_SLOT = re.compile(r'"@@array(\d+)@@"')


class _Base64(str):
    """Base64 text, which JSON writes without escapes: it is spliced in unscanned."""


def _render_with_inline_arrays(doc: dict) -> list:
    """Indented JSON with numeric arrays kept on single lines, and a trailing newline.

    Returns the text as pieces to write in order, never joined.  A non-empty
    list or tuple is inlined when every element is an ``int`` or a ``float``,
    subclasses included (``bool``, numpy ``float64``).  A ``_Base64`` string
    is its own piece, between two quote pieces: it is not copied.
    """
    arrays: list[tuple] = []   # the pieces of each slot

    def slot(*pieces: str) -> str:
        arrays.append(pieces)
        return f"@@array{len(arrays) - 1}@@"

    def stash(obj):
        if isinstance(obj, dict):
            return {k: stash(v) for k, v in obj.items()}
        if isinstance(obj, _Base64):
            return slot('"', obj, '"')
        if isinstance(obj, (list, tuple)) and obj and all(
                issubclass(t, (int, float)) for t in set(map(type, obj))):
            return slot(json.dumps(obj))
        if isinstance(obj, (list, tuple)):
            return [stash(v) for v in obj]
        return obj

    skeleton = _ARRAY_SLOT.split(json.dumps(stash(doc), indent=2))
    pieces = [skeleton[0]]
    for idx, text in zip(skeleton[1::2], skeleton[2::2]):
        pieces += [*arrays[int(idx)], text]
    return pieces + ["\n"]


def _encode(values: np.ndarray) -> str:
    """Base64 of the array's ``<f8`` bytes in C order."""
    return _Base64(binascii.b2a_base64(values.astype("<f8", copy=False).tobytes(),
                                       newline=False).decode("ascii"))


def tolerances_to_dict(tol: ToleranceModel) -> dict:
    return {"factor": tol.factor, "floor": tol.floor,
            "algebraic": tol.algebraic, "overrides": dict(tol.overrides)}


def tolerances_from_dict(d: dict) -> ToleranceModel:
    """The model of a document: a missing factor or floor is the dataclass default, but
    a missing or null ``algebraic`` is None (the h^2 budget), not the constructor's 1e-10."""
    return ToleranceModel(**{key: float(d[key]) for key in ("factor", "floor") if key in d},
                          algebraic=None if d.get("algebraic") is None else float(d["algebraic"]),
                          overrides={str(k): float(v) for k, v in d.get("overrides", {}).items()})


def dataset_to_dict(ds: Dataset) -> dict:
    return {
        "schema": DATASET_SCHEMA,
        "n": ds.grid.ndim,
        "p": ds.p,
        "grid": {key: list(getattr(ds.grid, key)) for key in _GRID_KEYS},
        "tolerances": tolerances_to_dict(ds.tolerances),
        "meta": ds.meta,
        "fields": {
            "metric": _encode(ds.metric.values),
            "bundle_connection": _encode(ds.bundle.omega),
            "sigma": _encode(ds.sigma.values),
            **{name: _encode(block)
               for name, block in zip(_PSI_FIELDS, psi_blocks(ds.psi, ds.grid.ndim))},
        },
    }


def save_dataset(ds: Dataset, path: str):
    pieces = _render_with_inline_arrays(dataset_to_dict(ds))
    _atomic_write(path, lambda handle: handle.writelines(pieces))


def _take(doc: dict, key: str):
    if key not in doc:
        raise SchemaError(f"missing key {key!r}")
    return doc[key]


def _header_count(doc: dict, key: str) -> int:
    """Header ``key`` as an integer >= 1, read by ``operator.index``; a bool is no count."""
    value = _take(doc, key)
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise SchemaError(f"header {key!r} must be an integer, got {value!r}") from None
    if count < 1:
        raise SchemaError(f"header {key!r} must be at least 1, got {count}")
    return count


def _field_array(fields: dict, name: str, shape: tuple) -> np.ndarray:
    """Field ``name``, base64 of exactly 8 bytes per entry, as a fresh writable float array."""
    raw = _take(fields, name)
    count = math.prod(shape)
    if not isinstance(raw, str):
        raise SchemaError(f"field {name!r} must be a base64 string of {8 * count} bytes, "
                          f"got {type(raw).__name__}")
    try:
        data = binascii.a2b_base64(raw, strict_mode=True)
    except ValueError as exc:   # binascii.Error, or a non-ASCII character
        raise SchemaError(f"field {name!r} is not base64: {exc}") from exc
    if len(data) != 8 * count:
        raise SchemaError(f"field {name!r} holds {len(data)} bytes, expected {8 * count} "
                          f"(float64 of shape {shape})")
    # astype copies out of the read-only bytes, in native byte order
    return np.frombuffer(data, dtype="<f8").astype(float).reshape(shape)


def dataset_from_dict(doc: dict) -> Dataset:
    schema = doc.get("schema") if isinstance(doc, dict) else type(doc)
    if schema != DATASET_SCHEMA:
        raise SchemaError(f"expected schema {DATASET_SCHEMA!r}, got {schema}")
    gspec = _take(doc, "grid")
    try:
        grid = ChartGrid(*(tuple(_take(gspec, key)) for key in _GRID_KEYS))
        n = grid.ndim
        p = _header_count(doc, "p")
        if _header_count(doc, "n") != n:
            raise SchemaError("header 'n' does not match the grid dimension")
        fields = _take(doc, "fields")
        dims = grid.dims
        metric = MetricField(grid, _field_array(fields, "metric", dims + (n, n)))
        bundle = BundleData(grid, _field_array(fields, "bundle_connection", dims + (n, p, p)))
        sigma = SecondFormField(grid, _field_array(fields, "sigma", dims + (n, n, p)))
        psi = np.empty(dims + (n + p, n + p))
        for name, block in zip(_PSI_FIELDS, psi_blocks(psi, n)):
            block[...] = _field_array(fields, name, block.shape)
        return Dataset(metric=metric, bundle=bundle, sigma=sigma, psi=psi,
                       tolerances=tolerances_from_dict(doc.get("tolerances", {})),
                       meta=dict(doc.get("meta", {})))
    except SchemaError:
        raise
    except Exception as exc:  # invariant violations become schema errors on load
        raise SchemaError(f"dataset violates a load-time invariant: {exc}",
                          node=getattr(exc, "node", None)) from exc


def _read_json(path: str, what: str):
    """The JSON document at ``path``; an unreadable or unparsable file raises ``SchemaError``."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot parse {what} {path!r}: {exc}") from exc


def load_dataset(path: str) -> Dataset:
    return dataset_from_dict(_read_json(path, "dataset"))


# ---------------------------------------------------------------------------
# reports


def report_to_dict(report: Report) -> dict:
    """The document of ``report``; a block the report does not have is left out."""
    recon = report.reconstruction
    doc = {"schema": REPORT_SCHEMA, "pass": report.passed,
           "checks": [{"name": r.name, "max": r.max_abs, "mean": r.mean_abs,
                       "argmax_node": list(r.argmax_node), "threshold": r.threshold,
                       "pass": r.passed} for r in report.records],
           "grid": report.grid and {key: list(getattr(report.grid, key)) for key in _GRID_KEYS},
           "reconstruction": recon and recon | {"base_node": list(recon["base_node"]),
                                                "psi_base": recon["psi_base"].ravel().tolist()},
           "alignment": report.alignment, "timings": report.timings}
    return {key: value for key, value in doc.items() if value is not None}


def save_report(report: Report, path: str):
    pieces = _render_with_inline_arrays(report_to_dict(report))
    _atomic_write(path, lambda handle: handle.writelines(pieces))


def _reconstruction_block(block: dict, grid: ChartGrid | None) -> dict:
    """The checked block, ``base_node`` a tuple and ``psi_base`` the (N, N) frame map.

    ``base_node`` must be a node of ``grid``, the report's grid, when it has one.
    """
    base, size, psi, k = (_take(block, key)
                          for key in ("base_node", "ambient_dim", "psi_base", "k"))
    if not isinstance(base, list) or any(type(i) is not int for i in base):  # a bool is no int
        raise SchemaError(f"reconstruction base_node must be a list of integers, got {base!r}")
    if grid is not None and (len(base) != grid.ndim or
                             not all(0 <= i < d for i, d in zip(base, grid.dims))):
        raise SchemaError(f"reconstruction base_node {base!r} is not a node of the "
                          f"{'x'.join(map(str, grid.dims))} grid")
    if type(size) is not int or size < 1:
        raise SchemaError(f"reconstruction ambient_dim must be an integer >= 1, got {size!r}")
    if not isinstance(psi, list) or len(psi) != size * size or \
            any(type(v) not in (int, float) for v in psi) or not np.isfinite(psi).all():
        raise SchemaError(f"reconstruction psi_base must hold {size * size} finite numbers")
    frame = np.array(psi, dtype=float).reshape(size, size)
    if (rank := np.linalg.matrix_rank(frame)) < size:   # align inverts it
        raise SchemaError(f"reconstruction psi_base is singular: rank {rank} of {size}")
    if type(k) is not int or not 1 <= k <= size - 3:
        raise SchemaError(f"reconstruction k must be an integer in [1, ambient_dim - 3] = "
                          f"[1, {size - 3}], got {k!r}")
    return block | {"base_node": tuple(base), "psi_base": frame}


def report_from_dict(doc: dict) -> Report:
    if not isinstance(doc, dict) or doc.get("schema") != REPORT_SCHEMA:
        raise SchemaError(f"expected schema {REPORT_SCHEMA!r}")
    for block in ("reconstruction", "alignment"):
        if not isinstance(doc.get(block, {}), dict):
            raise SchemaError(f"report block {block!r} must be an object")
    align = doc.get("alignment")
    distances = () if align is None else (align.get("max_distance"),
                                          align.get("distance_tol", 0.0))
    if any(type(v) not in (int, float) for v in distances):   # a bool is no JSON number
        raise SchemaError(f"alignment max_distance, distance_tol must be numbers: {distances}")
    recon = doc.get("reconstruction")
    try:
        grid = None
        if "grid" in doc:
            grid = ChartGrid(*(tuple(_take(doc["grid"], key)) for key in _GRID_KEYS))
        records = tuple(
            CheckRecord(name=str(_take(c, "name")), max_abs=float(_take(c, "max")),
                        mean_abs=float(_take(c, "mean")),
                        argmax_node=tuple(_take(c, "argmax_node")),
                        threshold=float(_take(c, "threshold")))
            for c in doc.get("checks", []))
    except SchemaError:
        raise
    except Exception as exc:  # invariant violations become schema errors on load
        raise SchemaError(f"report violates a load-time invariant: {exc}") from exc
    return Report(records=records, grid=grid,
                  reconstruction=None if recon is None else _reconstruction_block(recon, grid),
                  alignment=doc.get("alignment"), timings=doc.get("timings"))


def load_report(path: str) -> Report:
    """The report at ``path``; a document the schema rejects raises ``SchemaError`` naming it."""
    doc = _read_json(path, "report")
    try:
        return report_from_dict(doc)
    except SchemaError as exc:
        raise SchemaError(f"report {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# mesh export


# Mesh rows per ``%`` format call, and rows of the one object array of cells
# that each block is filled into.  Formatting a whole 127x127 table in one
# call holds 6 MiB more Python objects at the peak of the write.
_CSV_BLOCK_ROWS = 1024


def immersion_csv_header(k: int, size: int) -> list:
    """Mesh columns: the sphere block x1 .. x(k+1), then the hyperbolic one up to y(size)."""
    return [f"x{i + 1}" for i in range(k + 1)] + [f"y{j + 1}" for j in range(k + 1, size)]


def _distinct_texts(bits: np.ndarray):
    """None if no value repeats in ``bits``, a float64 column viewed as int64; else its
    distinct bit patterns, sorted, and the ``repr`` of each as an object array.

    One ``np.sort`` gives both the test and the patterns; ``np.unique`` without an
    inverse hashes instead, which is slower when no value repeats.
    """
    ordered = np.sort(bits)
    fresh = ordered[1:] != ordered[:-1]
    if fresh.all():
        return None
    keys = ordered[np.concatenate(([True], fresh))]
    return keys, np.array([repr(v) for v in keys.view(float).tolist()], dtype=object)


def save_immersion_csv(path: str, grid: ChartGrid, k: int, values: np.ndarray,
                       repair: bool = False):
    """The ambient points ``values`` (*grid.dims, N), one node per row in C order.

    Each value is written as its ``repr``.  A column in which some value
    repeats (a product immersion repeats its columns along grid lines) has
    the ``repr`` of each distinct bit pattern taken once, so 0.0 and -0.0 keep
    their own text; a column with no repeat is formatted by ``%r`` as it goes.
    The bytes are those of one ``repr`` per cell either way.

    With ``repair`` the sphere and hyperbolic blocks are renormalized onto
    the product at write time; in-memory values are never touched.  The first
    node with a zero sphere block or a hyperbolic block that is not timelike
    has no repair: it raises ReconstructionError before any file is written.
    """
    pts = np.array(values, dtype=float) if repair else np.asarray(values, dtype=float)
    if pts.shape[:-1] != grid.dims:
        raise DimensionError(f"mesh values of shape {pts.shape} on a "
                             f"{'x'.join(map(str, grid.dims))} grid")
    if repair:
        x = pts[..., : k + 1]
        y = pts[..., k + 1:]
        x2, y2 = np.einsum("...i,...i->...", x, x), -minkowski_dot(y, y)
        bad = ~((x2 > 0) & (y2 > 0))
        if bad.any():
            node = argmax_node(bad)
            block = "hyperbolic block is not timelike" if x2[node] > 0 else "sphere block is zero"
            raise ReconstructionError(f"cannot repair the point at node {node}: its {block}",
                                      node=node)
        x /= np.sqrt(x2)[..., None]
        y /= np.sqrt(y2)[..., None]
    flat = pts.reshape(-1, pts.shape[-1])
    bits = flat.view(np.int64)
    tables = [_distinct_texts(column) for column in bits.T]
    # excel-dialect CSV: CRLF line ends
    row = ",".join("%r" if table is None else "%s" for table in tables) + "\r\n"
    cells = np.empty((min(_CSV_BLOCK_ROWS, len(flat)), flat.shape[1]), dtype=object)

    def write(handle):
        handle.write(",".join(immersion_csv_header(k, flat.shape[1])) + "\r\n")
        for start in range(0, len(flat), _CSV_BLOCK_ROWS):
            rows = slice(start, min(start + _CSV_BLOCK_ROWS, len(flat)))
            block = cells[:rows.stop - start]
            for j, table in enumerate(tables):
                if table is None:
                    block[:, j] = flat[rows, j]   # as Python floats, for ``%r``
                else:
                    keys, texts = table
                    block[:, j] = texts[keys.searchsorted(bits[rows, j])]
            handle.write(row * len(block) % tuple(block.ravel().tolist()))
    _atomic_write(path, write)


def load_rebuild(mesh_path: str, report_path: str):
    """The rebuild of ``mesh_path`` and its report: (Report, points (*dims, N)).

    The report needs its ``grid`` and ``reconstruction`` blocks; the mesh must
    have the header ``immersion_csv_header(k, ambient_dim)`` of that block and
    one finite row per grid node.  Any mismatch raises ``SchemaError`` naming
    the mesh.
    """
    report = load_report(report_path)
    grid, recon = report.grid, report.reconstruction
    if grid is None or recon is None:
        raise SchemaError(f"report {report_path!r} of mesh {mesh_path!r} needs its grid "
                          f"and reconstruction blocks")
    size = recon["ambient_dim"]
    header = ",".join(immersion_csv_header(recon["k"], size))
    with open(mesh_path) as handle:   # an unreadable file is an OSError, exit 2 in the CLI
        first, _, body = handle.read().partition("\n")
    if first != header:
        raise SchemaError(f"mesh {mesh_path!r} has the header {first!r}; its report "
                          f"(k {recon['k']}, ambient_dim {size}) expects {header!r}")
    try:
        if not body or body.isspace():
            raise ValueError("no rows")
        data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise SchemaError(f"cannot parse mesh {mesh_path!r}: {exc}") from exc
    if data.shape != (grid.n_nodes, size):
        raise SchemaError(f"mesh {mesh_path!r} has {data.shape[0]} rows of {data.shape[1]} "
                          f"values, its report's grid {grid.n_nodes} nodes of {size}")
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        row = argmax_node(bad)[0] + 1
        raise SchemaError(f"mesh {mesh_path!r} has a non-finite value in row {row} "
                          f"(line {row + 1})")
    return report, data.reshape(grid.dims + (size,))
