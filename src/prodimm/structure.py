"""The product structure and the compatibility equations, read off the big bundle.

The structure psi on TM + E is one node-major (*dims, n+p, n+p) matrix
[[f, U], [u, lambda]] in the basis (d_1..d_n, e_1..e_p): f (n, n) the tangent
endomorphism, u (p, n) tangent -> bundle, U (n, p) bundle -> tangent and
lambda (p, p) the bundle endomorphism, each a slice (``psi_blocks``).

The algebra checks: f and lambda symmetric, u/U metric-adjoint, and the two
block rows of psi^2 = 1.  The data then immerse exactly when the big
connection Omega (:mod:`prodimm.flatbundle`) is flat and psi~ is parallel,
so every differential check is a block of one of two arrays, indexed in the
basis (d_1..d_n, e_1..e_p, xi1~, xi2~):

* F[..., q, C, A] = d_m Omega_n - d_n Omega_m + [Omega_m, Omega_n] over
  the direction pairs q = (m, n), m < n (``big_curvature``): ``gauss`` =
  F[..., :n, :n], laid out (q, i, r); ``codazzi`` = 2 F[..., n:n+p, :n]
  with the last two axes swapped, laid out (q, r, a), i.e.
  2 D_m sigma(d_n, d_r) - g(d_n, d_r) u(d_m) - (m <-> n), the factor 2
  keeping that scale; ``ricci`` = F[..., n:n+p, n:n+p], laid out (q, a, b);
  ``bundle_flatness`` = all of F.  The means of ``gauss``, ``codazzi`` and
  ``ricci`` stay those over all n^2 direction pairs (``curvature_report``).
  A 1-dim chart has no direction pairs, so F has none and its four records
  are zero.
* D psi~[..., m, C, A] = d_m psi~ + [Omega_m, psi~] (``psi_tilde_derivative``):
  ``psi_parallel_f/u/U/lambda`` = the ``psi_blocks`` of D psi~[..., :n+p, :n+p],
  each laid out (m, rows, cols); ``psi_tilde_parallel`` = all of it.

Each differential check takes F or D psi~ as its last argument: ``check_all``
forms each array once and hands it to every check that reads it, so one check
is read as ``check_all(geom, tolerances)[name]``.
Residuals are reported nodewise as max-abs over all free indices; for charts
of dimension <= 3 every index combination is formed explicitly (no sampling).
Every checker reads the data and its derived geometry from one
:class:`prodimm.flatbundle.Geometry`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING

import numpy as np

from .errors import SchemaError
from .fields import ChartGrid, argmax_node, connection_curvature, endomorphism_derivative

if TYPE_CHECKING:
    from .flatbundle import Geometry

# Every record name in report order: the 15 records of ``check``, the algebra
# first, then the 9 of a rebuild (``sweep_cross_check`` on charts of dimension >= 2).
RECORD_NAMES = (
    "psi_f_symmetric", "psi_lambda_symmetric", "psi_u_U_adjoint", "psi_involution_tangent",
    "psi_involution_bundle", "psi_parallel_f", "psi_parallel_u", "psi_parallel_U",
    "psi_parallel_lambda", "gauss", "codazzi", "ricci", "bundle_metric_compatibility",
    "bundle_flatness", "psi_tilde_parallel", "reconstruction_isometry",
    "reconstruction_normal_orthogonality", "reconstruction_second_form",
    "reconstruction_psi_compat_tangent", "reconstruction_psi_compat_normal",
    "frame_orthonormality", "reconstruction_on_product", "path_independence",
    "sweep_cross_check")
ALGEBRAIC_CHECKS = frozenset(RECORD_NAMES[:5])
IDENTITY_TOL = 1e-8   # max-abs distance of a structure matrix counted as plus or minus identity


class StructureWarning(UserWarning):
    """Diagnostic for data touching the excluded identity structure."""


def require_tolerance(name: str, value) -> None:
    """Raise ``SchemaError`` naming ``name`` unless ``value`` is None or a number >= 0 or inf."""
    if value is not None and not value >= 0:   # NaN fails too
        raise SchemaError(f"tolerance {name} must be a non-negative number or inf, got {value}")


@dataclass(frozen=True)
class ToleranceModel:
    """Pass thresholds: differencing checks scale with h^2, algebra does not.

    Every value is a non-negative number; ``inf`` switches a check off, and
    ``algebraic=None`` puts the algebra checks on the h^2 budget too.  A NaN
    or negative value raises ``SchemaError`` naming its field, and so does an
    override whose key is not in ``RECORD_NAMES``.
    """

    factor: float = 10.0
    floor: float = 1e-8
    algebraic: float = 1e-10
    overrides: dict = dataclass_field(default_factory=dict)

    def __post_init__(self):
        for name in self.overrides:
            if name not in RECORD_NAMES:
                raise SchemaError(f"tolerance override {name!r} names no check record")
        named = {"factor": self.factor, "floor": self.floor, "algebraic": self.algebraic,
                 **{f"override {k}": v for k, v in self.overrides.items()}}
        for field_name, value in named.items():
            require_tolerance(field_name, value)

    def threshold(self, name: str, grid: ChartGrid) -> float:
        if name in self.overrides:
            return float(self.overrides[name])
        if name in ALGEBRAIC_CHECKS and self.algebraic is not None:
            return self.algebraic
        return self.h2_budget(grid)

    def h2_budget(self, grid: ChartGrid) -> float:
        """max(factor * h_max^2, floor): the budget of a differencing residual on ``grid``."""
        return max(self.factor * grid.h_max**2, self.floor)

    def to_dict(self) -> dict:
        return {"factor": self.factor, "floor": self.floor,
                "algebraic": self.algebraic, "overrides": dict(self.overrides)}

    @classmethod
    def from_dict(cls, d: dict) -> "ToleranceModel":
        return cls(factor=float(d.get("factor", 10.0)),
                   floor=float(d.get("floor", 1e-8)),
                   algebraic=None if d.get("algebraic") is None else float(d["algebraic"]),
                   overrides={str(k): float(v) for k, v in d.get("overrides", {}).items()})


@dataclass(frozen=True)
class CheckRecord:
    name: str
    max_abs: float
    mean_abs: float
    argmax_node: tuple
    threshold: float
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "max": self.max_abs, "mean": self.mean_abs,
                "argmax_node": list(self.argmax_node), "threshold": self.threshold,
                "pass": self.passed}


@dataclass(frozen=True)
class ResidualReport:
    records: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def __getitem__(self, name: str) -> CheckRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)

    def names(self):
        return [r.name for r in self.records]

    @classmethod
    def merge(cls, *reports) -> "ResidualReport":
        """The records of ``reports`` in ``RECORD_NAMES`` order."""
        return cls(records=tuple(sorted((r for rep in reports for r in rep.records),
                                        key=lambda r: RECORD_NAMES.index(r.name))))


def make_record(name: str, residual: np.ndarray, grid: ChartGrid,
                threshold: float, mean_weight: float = 1.0) -> CheckRecord:
    """Reduce a (*dims, *free) residual array to a record, its mean scaled by ``mean_weight``.

    An empty free axis (F on a 1-dim chart) reduces to a zero max and mean.
    """
    magnitude = np.abs(residual)
    nodewise = magnitude.max(axis=tuple(range(grid.ndim, magnitude.ndim)), initial=0.0)
    max_abs = float(nodewise.max())
    return CheckRecord(name=name, max_abs=max_abs,
                       mean_abs=float(magnitude.sum() / max(magnitude.size, 1)) * mean_weight,
                       argmax_node=argmax_node(nodewise), threshold=float(threshold),
                       passed=bool(max_abs <= threshold))


def records(grid: ChartGrid, tolerances: ToleranceModel, *named) -> ResidualReport:
    """One record per (name, residual) pair, each against its threshold on ``grid``."""
    return ResidualReport(tuple(make_record(name, resid, grid, tolerances.threshold(name, grid))
                                for name, resid in named))


def psi_blocks(psi: np.ndarray, n: int) -> tuple:
    """Views (f, u, U, lambda) of a (..., n+p, n+p) matrix laid out [[f, U], [u, lambda]]."""
    return psi[..., :n, :n], psi[..., n:, :n], psi[..., :n, n:], psi[..., n:, n:]


def identity_structure_nodes(psi: np.ndarray) -> int:
    """Count nodes where the structure matrix is within ``IDENTITY_TOL`` of +-identity."""
    ident = np.eye(psi.shape[-1])
    return sum(int((np.abs(psi - sign * ident).max(axis=(-2, -1)) <= IDENTITY_TOL).sum())
               for sign in (1.0, -1.0))


def check_psi_algebra(geom: Geometry, tolerances: ToleranceModel) -> ResidualReport:
    """Symmetry, adjointness and involution residuals (exact linear algebra)."""
    psi = geom.psi
    n = geom.grid.ndim
    _, u, big_u, lam = psi_blocks(psi, n)
    gf = geom.f_lowered                                  # g(f d_i, d_j)
    square = psi @ psi - np.eye(psi.shape[-1])

    n_id = identity_structure_nodes(psi)
    if n_id:
        warnings.warn(f"structure within {IDENTITY_TOL:g} of plus/minus identity at {n_id} "
                      "node(s); such data is outside the reconstructible class", StructureWarning)

    return records(
        geom.grid, tolerances,
        ("psi_f_symmetric", gf - np.swapaxes(gf, -1, -2)),
        ("psi_lambda_symmetric", lam - np.swapaxes(lam, -1, -2)),
        ("psi_u_U_adjoint", u - np.swapaxes(geom.metric.values @ big_u, -1, -2)),
        ("psi_involution_tangent", square[..., :n, :]),
        ("psi_involution_bundle", square[..., n:, :]))


def big_curvature(geom: Geometry) -> np.ndarray:
    """F[..., q, C, A] = d_m Omega_n - d_n Omega_m + [Omega_m, Omega_n] on pairs q = (m < n)."""
    return connection_curvature(geom.grid, geom.connection)


def curvature_report(grid: ChartGrid, tolerances: ToleranceModel, name: str,
                     block: np.ndarray) -> ResidualReport:
    """The record of ``block``, a block of F, its mean that over all n^2 direction pairs.

    F[n, m] = -F[m, n] and the zero diagonal weight the mean over the pairs
    m < n by (n-1)/n, as if F were held in full.
    """
    return ResidualReport((make_record(name, block, grid, tolerances.threshold(name, grid),
                                       (grid.ndim - 1) / grid.ndim),))


def psi_tilde_derivative(geom: Geometry) -> np.ndarray:
    """D psi~[..., m, C, A] = d_m psi~ + [Omega_m, psi~]."""
    return endomorphism_derivative(geom.grid, geom.psi_tilde, geom.connection)


def check_psi_parallel(geom: Geometry, tolerances: ToleranceModel,
                       d_psi_tilde: np.ndarray) -> ResidualReport:
    """The four blocks of D psi, the top-left (n+p)^2 block of D psi~."""
    n = geom.grid.ndim
    d_f, d_u, d_big_u, d_lam = psi_blocks(d_psi_tilde[..., :n + geom.p, :n + geom.p], n)
    return records(geom.grid, tolerances,
                   ("psi_parallel_f", d_f), ("psi_parallel_u", d_u),
                   ("psi_parallel_U", d_big_u), ("psi_parallel_lambda", d_lam))


def check_gauss(geom: Geometry, tolerances: ToleranceModel, curv: np.ndarray) -> ResidualReport:
    """The tangent block F[..., :n, :n]."""
    n = geom.grid.ndim
    return curvature_report(geom.grid, tolerances, "gauss", curv[..., :n, :n])


def check_codazzi(geom: Geometry, tolerances: ToleranceModel,
                  curv: np.ndarray) -> ResidualReport:
    """Twice the bundle-row tangent-column block F[..., n:n+p, :n], laid out (q, r, a)."""
    n, p = geom.grid.ndim, geom.p
    return curvature_report(geom.grid, tolerances, "codazzi",
                            2.0 * np.swapaxes(curv[..., n:n + p, :n], -1, -2))


def check_ricci(geom: Geometry, tolerances: ToleranceModel, curv: np.ndarray) -> ResidualReport:
    """The bundle block F[..., n:n+p, n:n+p]."""
    n, p = geom.grid.ndim, geom.p
    return curvature_report(geom.grid, tolerances, "ricci", curv[..., n:n + p, n:n + p])


def check_all(geom: Geometry, tolerances: ToleranceModel) -> ResidualReport:
    """Every compatibility check but metric compatibility, merged into one report.

    Records: the algebra, ``psi_parallel_*``, ``gauss``, ``codazzi``,
    ``ricci``, ``bundle_flatness``, ``psi_tilde_parallel``.  F is formed once,
    read and dropped before psi~ and D psi~ exist; neither array is kept.
    """
    from .flatbundle import flatness_residual, psi_tilde_parallel_residual  # imports this module
    algebra = check_psi_algebra(geom, tolerances)
    curv = big_curvature(geom)
    gauss, codazzi, ricci, flatness = (check(geom, tolerances, curv) for check in (
        check_gauss, check_codazzi, check_ricci, flatness_residual))
    del curv
    d_psi_tilde = psi_tilde_derivative(geom)
    parallel = check_psi_parallel(geom, tolerances, d_psi_tilde)
    tilde = psi_tilde_parallel_residual(geom, tolerances, d_psi_tilde)
    return ResidualReport.merge(algebra, parallel, gauss, codazzi, ricci, flatness, tilde)
