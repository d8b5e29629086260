"""Dataset, report and mesh serialization.

Both structured formats are versioned JSON documents with every numeric
field flattened node-major row-major (C order), timelike coordinate last.
Headers are indented for diffing while arrays stay on one line each; floats
serialize via ``repr`` so load(save(x)) is bit-identical.  Files are written
atomically (temp file + rename).

Dataset fields and their per-node slot layouts:

    metric             (n, n)      g_ij
    bundle_connection  (n, p, p)   omega[m, a, b]
    sigma              (n, n, p)   sigma_ij^a
    psi.f              (n, n)      f^i_j
    psi.u              (p, n)      u^a_j
    psi.U              (n, p)      U^i_b
    psi.lambda         (p, p)      lambda^a_b
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError
from .extract import ExtractionResult
from .fields import BundleData, ChartGrid, MetricField, SecondFormField, TensorField
from .lorentz import minkowski_dot
from .structure import CheckRecord, ProductStructureField, ResidualReport, ToleranceModel

DATASET_SCHEMA = "prodimm-dataset/1"
REPORT_SCHEMA = "prodimm-report/1"
_GRID_KEYS = ("dims", "spacing", "origin")   # ChartGrid fields, in order


@dataclass(frozen=True)
class Dataset:
    """Everything the checker and the reconstructor consume."""

    grid: ChartGrid
    p: int
    metric: MetricField
    bundle: BundleData
    sigma: SecondFormField
    psi: ProductStructureField
    tolerances: ToleranceModel
    meta: dict

    @classmethod
    def from_extraction(cls, data: ExtractionResult,
                        tolerances: ToleranceModel | None = None,
                        meta: dict | None = None) -> "Dataset":
        from .extract import default_tolerances
        tol = tolerances if tolerances is not None else default_tolerances(data)
        info = {"fixture": data.immersion.name, "k": data.immersion.k,
                "params": dict(data.immersion.params or {}),
                "analytic_derivatives": data.analytic_derivatives}
        info.update(meta or {})
        return cls(grid=data.grid, p=data.immersion.p, metric=data.metric,
                   bundle=data.bundle, sigma=data.sigma, psi=data.psi,
                   tolerances=tol, meta=info)


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


def _render_with_inline_arrays(doc: dict) -> str:
    """Indented JSON with numeric arrays kept on single lines."""
    arrays: list[str] = []

    def stash(obj):
        if isinstance(obj, dict):
            return {k: stash(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)) and obj and all(
                isinstance(v, (int, float)) for v in obj):
            arrays.append(json.dumps(list(obj)))
            return f"@@array{len(arrays) - 1}@@"
        if isinstance(obj, (list, tuple)):
            return [stash(v) for v in obj]
        return obj

    text = json.dumps(stash(doc), indent=2)
    for idx, payload in enumerate(arrays):
        text = text.replace(f'"@@array{idx}@@"', payload)
    return text


def dataset_to_dict(ds: Dataset) -> dict:
    return {
        "schema": DATASET_SCHEMA,
        "n": ds.grid.ndim,
        "p": ds.p,
        "grid": {key: list(getattr(ds.grid, key)) for key in _GRID_KEYS},
        "tolerances": ds.tolerances.to_dict(),
        "meta": ds.meta,
        "fields": {
            "metric": ds.metric.values.ravel().tolist(),
            "bundle_connection": ds.bundle.omega.values.ravel().tolist(),
            "sigma": ds.sigma.values.ravel().tolist(),
            "psi.f": ds.psi.f.values.ravel().tolist(),
            "psi.u": ds.psi.u.values.ravel().tolist(),
            "psi.U": ds.psi.big_u.values.ravel().tolist(),
            "psi.lambda": ds.psi.lam.values.ravel().tolist(),
        },
    }


def save_dataset(ds: Dataset, path: str):
    text = _render_with_inline_arrays(dataset_to_dict(ds)) + "\n"
    _atomic_write(path, lambda handle: handle.write(text))


def _take(doc: dict, key: str):
    if key not in doc:
        raise SchemaError(f"missing key {key!r}")
    return doc[key]


def _field_array(fields: dict, name: str, shape: tuple) -> np.ndarray:
    raw = _take(fields, name)
    expected = int(np.prod(shape))
    if not isinstance(raw, list) or len(raw) != expected:
        raise SchemaError(f"field {name!r} must be a flat list of {expected} numbers, "
                          f"got length {len(raw) if isinstance(raw, list) else 'n/a'}")
    return np.asarray(raw, dtype=float).reshape(shape)


def dataset_from_dict(doc: dict) -> Dataset:
    if not isinstance(doc, dict) or doc.get("schema") != DATASET_SCHEMA:
        raise SchemaError(f"expected schema {DATASET_SCHEMA!r}, got "
                          f"{doc.get('schema') if isinstance(doc, dict) else type(doc)}")
    gspec = _take(doc, "grid")
    try:
        grid = ChartGrid(*(tuple(_take(gspec, key)) for key in _GRID_KEYS))
        n = grid.ndim
        p = int(_take(doc, "p"))
        if int(_take(doc, "n")) != n:
            raise SchemaError("header n does not match the grid dimension")
        fields = _take(doc, "fields")
        dims = grid.dims
        metric = MetricField(grid, _field_array(fields, "metric", dims + (n, n)))
        omega = TensorField(grid, ("td", "bu", "bd"),
                            _field_array(fields, "bundle_connection", dims + (n, p, p)))
        bundle = BundleData(rank=p, omega=omega)
        sigma = SecondFormField(grid, _field_array(fields, "sigma", dims + (n, n, p)))
        psi = ProductStructureField(
            f=TensorField(grid, ("tu", "td"), _field_array(fields, "psi.f", dims + (n, n))),
            u=TensorField(grid, ("bu", "td"), _field_array(fields, "psi.u", dims + (p, n))),
            big_u=TensorField(grid, ("tu", "bd"),
                              _field_array(fields, "psi.U", dims + (n, p))),
            lam=TensorField(grid, ("bu", "bd"),
                            _field_array(fields, "psi.lambda", dims + (p, p))),
        )
    except SchemaError:
        raise
    except Exception as exc:  # invariant violations become schema errors on load
        raise SchemaError(f"dataset violates a load-time invariant: {exc}") from exc
    tolerances = ToleranceModel.from_dict(doc.get("tolerances", {}))
    return Dataset(grid=grid, p=p, metric=metric, bundle=bundle, sigma=sigma, psi=psi,
                   tolerances=tolerances, meta=dict(doc.get("meta", {})))


def load_dataset(path: str) -> Dataset:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot parse dataset {path!r}: {exc}") from exc
    return dataset_from_dict(doc)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Report:
    """Check records plus optional reconstruction and alignment blocks."""

    grid: ChartGrid | None
    checks: tuple
    reconstruction: dict | None = None
    alignment: dict | None = None
    timings: dict | None = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.checks)

    def __getitem__(self, name: str) -> CheckRecord:
        for r in self.checks:
            if r.name == name:
                return r
        raise KeyError(name)

    @classmethod
    def from_residuals(cls, grid: ChartGrid, *reports: ResidualReport, **blocks) -> "Report":
        merged = ResidualReport.merge(*reports)
        return cls(grid=grid, checks=merged.records, **blocks)


def report_to_dict(report: Report) -> dict:
    doc = {"schema": REPORT_SCHEMA, "pass": report.passed,
           "checks": [r.to_dict() for r in report.checks]}
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
    try:
        grid = None
        if "grid" in doc:
            grid = ChartGrid(*(tuple(_take(doc["grid"], key)) for key in _GRID_KEYS))
        checks = tuple(
            CheckRecord(name=str(_take(c, "name")), max_abs=float(_take(c, "max")),
                        mean_abs=float(_take(c, "mean")),
                        argmax_node=tuple(_take(c, "argmax_node")),
                        threshold=float(_take(c, "threshold")), passed=bool(_take(c, "pass")))
            for c in doc.get("checks", []))
    except SchemaError:
        raise
    except Exception as exc:  # invariant violations become schema errors on load
        raise SchemaError(f"report violates a load-time invariant: {exc}") from exc
    return Report(grid=grid, checks=checks, reconstruction=doc.get("reconstruction"),
                  alignment=doc.get("alignment"), timings=doc.get("timings"))


def load_report(path: str) -> Report:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot parse report {path!r}: {exc}") from exc
    return report_from_dict(doc)


# ---------------------------------------------------------------------------
# mesh export


def immersion_csv_header(n: int, k: int, size: int) -> list:
    cols = [f"t{a + 1}" for a in range(n)]
    cols += [f"x{i + 1}" for i in range(k + 1)]
    cols += [f"y{j + 1}" for j in range(k + 1, size)]
    return cols


def save_immersion_csv(path: str, grid: ChartGrid, k: int, values: np.ndarray,
                       repair: bool = False):
    """Chart coordinates then ambient coordinates, one node per row.

    With ``repair`` the sphere and hyperbolic blocks are renormalized onto
    the product at write time; in-memory values are never touched.
    """
    pts = np.array(values, dtype=float)
    if repair:
        x = pts[..., : k + 1]
        y = pts[..., k + 1:]
        x /= np.sqrt(np.einsum("...i,...i->...", x, x))[..., None]
        y /= np.sqrt(-minkowski_dot(y, y))[..., None]
    coords = grid.coords().reshape(-1, grid.ndim)
    flat = pts.reshape(-1, pts.shape[-1])
    rows = np.concatenate([coords, flat], axis=1)

    def write(handle):
        writer = csv.writer(handle)
        writer.writerow(immersion_csv_header(grid.ndim, k, pts.shape[-1]))
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    _atomic_write(path, write)


def load_immersion_csv(path: str):
    """Returns (coords, values) as flat (rows, n) and (rows, N) arrays."""
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            data = np.array([[float(v) for v in row] for row in reader])
    except (OSError, StopIteration, ValueError) as exc:
        raise SchemaError(f"cannot parse mesh {path!r}: {exc}") from exc
    n = sum(1 for c in header if c.startswith("t"))
    k = sum(1 for c in header if c.startswith("x")) - 1
    if data.ndim != 2 or data.shape[1] != len(header) or n < 1 or k < 0:
        raise SchemaError(f"mesh {path!r} has an inconsistent header")
    return data[:, :n], data[:, n:], k
