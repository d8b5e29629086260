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

No Python code runs once per element on the write path: each numeric report
array is told apart by the set of its element types and written by one JSON
encoder call, and a mesh table is written by one ``%`` format per block of
rows.  A mesh table is read back by one ``np.loadtxt`` call.
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

from .errors import ReconstructionError, SchemaError
from .extract import ExtractionResult, default_tolerances
from .fields import BundleData, ChartGrid, MetricField, SecondFormField, argmax_node
from .flatbundle import Geometry
from .lorentz import minkowski_dot
from .structure import CheckRecord, ResidualReport, ToleranceModel, psi_blocks

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
    """Run ``write(handle)`` on a temp file next to ``path``, then rename it over."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
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


def _render_with_inline_arrays(doc: dict) -> str:
    """Indented JSON with numeric arrays kept on single lines.

    A non-empty list or tuple is inlined when every element is an ``int`` or
    a ``float``, subclasses included (``bool``, numpy ``float64``).  A
    ``_Base64`` string is written as it is, between quotes.
    """
    arrays: list[str] = []

    def slot(text: str) -> str:
        arrays.append(text)
        return f"@@array{len(arrays) - 1}@@"

    def stash(obj):
        if isinstance(obj, dict):
            return {k: stash(v) for k, v in obj.items()}
        if isinstance(obj, _Base64):
            return slot(f'"{obj}"')
        if isinstance(obj, (list, tuple)) and obj and all(
                issubclass(t, (int, float)) for t in set(map(type, obj))):
            return slot(json.dumps(obj))
        if isinstance(obj, (list, tuple)):
            return [stash(v) for v in obj]
        return obj

    pieces = _ARRAY_SLOT.split(json.dumps(stash(doc), indent=2))
    pieces[1::2] = [arrays[int(idx)] for idx in pieces[1::2]]
    return "".join(pieces)


def _encode(values: np.ndarray) -> str:
    """Base64 of the array's ``<f8`` bytes in C order."""
    return _Base64(binascii.b2a_base64(values.astype("<f8", copy=False).tobytes(),
                                       newline=False).decode("ascii"))


def dataset_to_dict(ds: Dataset) -> dict:
    return {
        "schema": DATASET_SCHEMA,
        "n": ds.grid.ndim,
        "p": ds.p,
        "grid": {key: list(getattr(ds.grid, key)) for key in _GRID_KEYS},
        "tolerances": ds.tolerances.to_dict(),
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
    text = _render_with_inline_arrays(dataset_to_dict(ds)) + "\n"
    _atomic_write(path, lambda handle: handle.write(text))


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
                       tolerances=ToleranceModel.from_dict(doc.get("tolerances", {})),
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


@dataclass(frozen=True)
class Report(ResidualReport):
    """Check records plus the grid and optional reconstruction and alignment blocks."""

    grid: ChartGrid | None = None
    reconstruction: dict | None = None
    alignment: dict | None = None
    timings: dict | None = None

    @property
    def aligned(self) -> bool | None:
        """The alignment's ``max_distance <= distance_tol`` (NaN fails); None with no tolerance."""
        align = self.alignment or {}
        if "distance_tol" not in align:
            return None
        return bool(align["max_distance"] <= align["distance_tol"])

    @property
    def passed(self) -> bool:
        """Every record passes, and so does the alignment if it has a tolerance."""
        return super().passed and self.aligned is not False

    @classmethod
    def from_residuals(cls, grid: ChartGrid, *reports: ResidualReport, **blocks) -> "Report":
        return cls(records=ResidualReport.merge(*reports).records, grid=grid, **blocks)


def report_to_dict(report: Report) -> dict:
    doc = {"schema": REPORT_SCHEMA, "pass": report.passed,
           "checks": [r.to_dict() for r in report.records]}
    if report.grid is not None:
        doc["grid"] = {key: list(getattr(report.grid, key)) for key in _GRID_KEYS}
    if report.reconstruction is not None:
        doc["reconstruction"] = report.reconstruction
    if report.alignment is not None:
        doc["alignment"] = report.alignment
    if report.timings is not None:
        doc["timings"] = report.timings
    return doc


def save_report(report: Report, path: str):
    text = _render_with_inline_arrays(report_to_dict(report)) + "\n"
    _atomic_write(path, lambda handle: handle.write(text))


def report_from_dict(doc: dict) -> Report:
    if not isinstance(doc, dict) or doc.get("schema") != REPORT_SCHEMA:
        raise SchemaError(f"expected schema {REPORT_SCHEMA!r}")
    for block in ("reconstruction", "alignment"):
        if not isinstance(doc.get(block, {}), dict):
            raise SchemaError(f"report block {block!r} must be an object")
    align = doc.get("alignment", {"max_distance": 0.0})
    distances = (align.get("max_distance"), align.get("distance_tol", 0.0))
    if any(type(v) not in (int, float) for v in distances):   # a bool is no JSON number
        raise SchemaError(f"alignment max_distance, distance_tol must be numbers: {distances}")
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
    return Report(records=records, grid=grid, reconstruction=doc.get("reconstruction"),
                  alignment=doc.get("alignment"), timings=doc.get("timings"))


def load_report(path: str) -> Report:
    return report_from_dict(_read_json(path, "report"))


# ---------------------------------------------------------------------------
# mesh export


# Mesh rows per ``%`` format call.  Formatting a whole 127x127 table in one
# call holds 6 MiB more Python objects at the peak of the write.
_CSV_BLOCK_ROWS = 1024


def immersion_csv_header(n: int, k: int, size: int) -> list:
    cols = [f"t{a + 1}" for a in range(n)]
    cols += [f"x{i + 1}" for i in range(k + 1)]
    cols += [f"y{j + 1}" for j in range(k + 1, size)]
    return cols


def save_immersion_csv(path: str, grid: ChartGrid, k: int, values: np.ndarray,
                       repair: bool = False):
    """Chart coordinates then ambient coordinates, one node per row.

    With ``repair`` the sphere and hyperbolic blocks are renormalized onto
    the product at write time; in-memory values are never touched.  The first
    node with a zero sphere block or a hyperbolic block that is not timelike
    has no repair: it raises ReconstructionError before any file is written.
    """
    pts = np.array(values, dtype=float)
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
    coords = grid.coords().reshape(-1, grid.ndim)
    flat = pts.reshape(-1, pts.shape[-1])
    rows = np.concatenate([coords, flat], axis=1)
    line = ",".join(["%r"] * rows.shape[1]) + "\r\n"   # excel-dialect CSV: CRLF line ends

    def write(handle):
        handle.write(",".join(immersion_csv_header(grid.ndim, k, pts.shape[-1])) + "\r\n")
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[start:start + _CSV_BLOCK_ROWS]
            handle.write((line * len(block)) % tuple(block.ravel().tolist()))
    _atomic_write(path, write)


def load_immersion_csv(path: str):
    """Returns (coords, values, k): flat (rows, n) and (rows, N) arrays and the sphere rank."""
    try:
        with open(path) as handle:
            header, _, body = handle.read().partition("\n")
        if not body or body.isspace():
            raise ValueError("no rows")
        data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError) as exc:
        raise SchemaError(f"cannot parse mesh {path!r}: {exc}") from exc
    header = header.split(",")
    n = sum(1 for c in header if c.startswith("t"))
    k = sum(1 for c in header if c.startswith("x")) - 1
    if data.shape[1] != len(header) or n < 1 or k < 0:
        raise SchemaError(f"mesh {path!r} has an inconsistent header")
    return data[:, :n], data[:, n:], k
