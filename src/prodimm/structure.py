"""The product structure and the compatibility equations, read off the big bundle.

The structure psi on TM + E is one node-major (*dims, n+p, n+p) matrix
[[f, U], [u, lambda]] in the basis (d_1..d_n, e_1..e_p): f (n, n) the tangent
endomorphism, u (p, n) tangent -> bundle, U (n, p) bundle -> tangent and
lambda (p, p) the bundle endomorphism, each a slice (``psi_blocks``).

The algebra checks: f and lambda symmetric, u/U metric-adjoint, and the two
block rows of psi^2 = 1.  An involution of size N = n+p splits with
k = (tr psi + N)/2, so it is +-I exactly where |tr psi| > N - 1; once the
algebra records pass, ``check_psi_algebra`` rejects such a node as outside the
reconstructible class.  The data then immerse exactly when the big connection
Omega (:mod:`prodimm.flatbundle`) is flat and psi~ is parallel, so every
differential check is a block of one of two arrays, indexed in the basis
(d_1..d_n, e_1..e_p, xi1~, xi2~):

* F[..., q, C, A] = d_m Omega_n - d_n Omega_m + [Omega_m, Omega_n] over
  the direction pairs q = (m, n), m < n (``big_curvature``): ``gauss`` =
  F[..., :n, :n], laid out (q, i, r); ``codazzi`` = 2 F[..., n:n+p, :n],
  laid out (q, a, r), i.e. 2 D_m sigma(d_n, d_r) - g(d_n, d_r) u(d_m) -
  (m <-> n), the factor 2 keeping that scale (the factor is exact, and the
  (q, r, a) layout of the equation is a swap that changes no max or mean);
  ``ricci`` = F[..., n:n+p, n:n+p], laid out (q, a, b);
  ``bundle_flatness`` = all of F.  The means of ``gauss``, ``codazzi`` and
  ``ricci`` stay those over all n^2 direction pairs (``curvature_report``).
  A 1-dim chart has no direction pairs, so F has none and its four records
  are zero.
* D psi~[..., m, C, A] = d_m psi~ + [Omega_m, psi~] (``psi_tilde_derivative``):
  ``psi_parallel_f/u/U/lambda`` = the ``psi_blocks`` of D psi~[..., :n+p, :n+p],
  each laid out (m, rows, cols); ``psi_tilde_parallel`` = all of it.

Each differential check takes |F| or |D psi~| as its last argument, node-last:
``check_all`` forms F, writes its ``magnitude`` once into a (q, C, A, *dims)
array and drops F, and hands |F| to the four checks that read it; D psi~ goes
the same way into (m, C, A, *dims) for the five checks that read it.  Each
check reduces slices of the magnitude, with no copy of its own, so one check
is read as ``check_all(geom, tolerances)[name]``.

Residuals are reported nodewise as max-abs over all free indices; for charts
of dimension <= 3 every index combination is formed explicitly (no sampling).
Every nodewise max-abs goes through one reduction: ``magnitude`` writes
|residual| once with the node axes last, laid out (*free, *dims), so the
nodewise max (``nodewise_max``) is an elementwise ``maximum`` of contiguous
node rows and the mean one sum (``node_record``).  ``make_record`` is the two
in turn, for a residual in its natural (*dims, *free) layout.  Every checker
reads the data and its derived geometry from one
:class:`prodimm.flatbundle.Geometry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ExclusionError, SchemaError
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
        """The model of a document: a missing factor or floor is the dataclass default, but
        a missing or null ``algebraic`` is None (the h^2 budget), not the constructor's 1e-10."""
        return cls(**{key: float(d[key]) for key in ("factor", "floor") if key in d},
                   algebraic=None if d.get("algebraic") is None else float(d["algebraic"]),
                   overrides={str(k): float(v) for k, v in d.get("overrides", {}).items()})


@dataclass(frozen=True)
class CheckRecord:
    name: str
    max_abs: float
    mean_abs: float
    argmax_node: tuple
    threshold: float

    @property
    def passed(self) -> bool:
        """``max_abs <= threshold``: a NaN max fails."""
        return bool(self.max_abs <= self.threshold)

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


def magnitude(residual: np.ndarray, nd: int) -> np.ndarray:
    """|residual| of a (*dims, *free) array, written once into a fresh (*free, *dims) array.

    With the ``nd`` node axes last, a nodewise max over the free axes is an
    elementwise ``maximum`` of contiguous node rows (``nodewise_max``), and a
    block of the magnitude is a slice over its leading axes.
    """
    out = np.empty(residual.shape[nd:] + residual.shape[:nd])
    return np.abs(np.moveaxis(residual, range(nd), range(-nd, 0)), out=out)


def nodewise_max(mag: np.ndarray, nd: int) -> np.ndarray:
    """The (*dims) max of a node-last magnitude (*free, *dims) over its free axes.

    A NaN propagates to its node; no free axis, or an empty one, leaves the
    magnitude itself or zeros.
    """
    return mag.max(axis=tuple(range(mag.ndim - nd)), initial=0.0)


def node_record(name: str, mag: np.ndarray, grid: ChartGrid,
                threshold: float, mean_weight: float = 1.0) -> CheckRecord:
    """Reduce a node-last magnitude (*free, *dims) to a record, its mean scaled by ``mean_weight``.

    An empty free axis (F on a 1-dim chart) reduces to a zero max and mean; a
    NaN fails the record and names its node.
    """
    nodewise = nodewise_max(mag, grid.ndim)
    return CheckRecord(name=name, max_abs=float(nodewise.max()),
                       mean_abs=float(mag.sum() / max(mag.size, 1)) * mean_weight,
                       argmax_node=argmax_node(nodewise), threshold=float(threshold))


def make_record(name: str, residual: np.ndarray, grid: ChartGrid,
                threshold: float, mean_weight: float = 1.0) -> CheckRecord:
    """Reduce a (*dims, *free) residual array to a record: ``node_record`` of its ``magnitude``."""
    return node_record(name, magnitude(residual, grid.ndim), grid, threshold, mean_weight)


def records(grid: ChartGrid, tolerances: ToleranceModel, *named) -> ResidualReport:
    """One record per (name, residual) pair, each against its threshold on ``grid``."""
    return ResidualReport(tuple(make_record(name, resid, grid, tolerances.threshold(name, grid))
                                for name, resid in named))


def magnitude_records(grid: ChartGrid, tolerances: ToleranceModel, *named) -> ResidualReport:
    """One record per (name, node-last magnitude) pair, each against its threshold on ``grid``."""
    return ResidualReport(tuple(node_record(name, mag, grid, tolerances.threshold(name, grid))
                                for name, mag in named))


def psi_blocks(psi: np.ndarray, n: int) -> tuple:
    """Views (f, u, U, lambda) of a (..., n+p, n+p) matrix laid out [[f, U], [u, lambda]]."""
    return psi[..., :n, :n], psi[..., n:, :n], psi[..., :n, n:], psi[..., n:, n:]


def check_psi_algebra(geom: Geometry, tolerances: ToleranceModel) -> ResidualReport:
    """Symmetry, adjointness and involution residuals; then the +-I exclusion (module doc)."""
    psi = geom.psi
    n = geom.grid.ndim
    _, u, big_u, lam = psi_blocks(psi, n)
    gf = geom.f_lowered                                  # g(f d_i, d_j)
    square = psi @ psi - np.eye(psi.shape[-1])
    report = records(
        geom.grid, tolerances,
        ("psi_f_symmetric", gf - np.swapaxes(gf, -1, -2)),
        ("psi_lambda_symmetric", lam - np.swapaxes(lam, -1, -2)),
        ("psi_u_U_adjoint", u - np.swapaxes(geom.metric.values @ big_u, -1, -2)),
        ("psi_involution_tangent", square[..., :n, :]),
        ("psi_involution_bundle", square[..., n:, :]))
    identity = np.abs(np.trace(psi, axis1=-2, axis2=-1)) > psi.shape[-1] - 1
    if report.passed and identity.any():
        node = argmax_node(identity)
        raise ExclusionError(f"structure is plus/minus the identity at node {node}; such data "
                             "is outside the reconstructible class", node=node)
    return report


def big_curvature(geom: Geometry) -> np.ndarray:
    """F[..., q, C, A] = d_m Omega_n - d_n Omega_m + [Omega_m, Omega_n] on pairs q = (m < n)."""
    return connection_curvature(geom.grid, geom.connection)


def curvature_report(grid: ChartGrid, tolerances: ToleranceModel, name: str,
                     block: np.ndarray) -> ResidualReport:
    """The record of ``block``, a block of |F|, its mean that over all n^2 direction pairs.

    F[n, m] = -F[m, n] and the zero diagonal weight the mean over the pairs
    m < n by (n-1)/n, as if F were held in full.
    """
    return ResidualReport((node_record(name, block, grid, tolerances.threshold(name, grid),
                                       (grid.ndim - 1) / grid.ndim),))


def psi_tilde_derivative(geom: Geometry) -> np.ndarray:
    """D psi~[..., m, C, A] = d_m psi~ + [Omega_m, psi~], psi~ padded from psi here."""
    from .flatbundle import build_psi_tilde  # imports this module
    return endomorphism_derivative(geom.grid, build_psi_tilde(geom.psi), geom.connection)


def check_psi_parallel(geom: Geometry, tolerances: ToleranceModel,
                       d_psi_mag: np.ndarray) -> ResidualReport:
    """The four blocks of |D psi|, the top-left (n+p)^2 block of |D psi~| (m, C, A, *dims)."""
    n = geom.grid.ndim
    tan, bun = slice(n), slice(n, n + geom.p)
    return magnitude_records(geom.grid, tolerances,
                             ("psi_parallel_f", d_psi_mag[:, tan, tan]),
                             ("psi_parallel_u", d_psi_mag[:, bun, tan]),
                             ("psi_parallel_U", d_psi_mag[:, tan, bun]),
                             ("psi_parallel_lambda", d_psi_mag[:, bun, bun]))


def check_gauss(geom: Geometry, tolerances: ToleranceModel,
                curv_mag: np.ndarray) -> ResidualReport:
    """The tangent block |F|[:, :n, :n] of |F| (q, C, A, *dims)."""
    n = geom.grid.ndim
    return curvature_report(geom.grid, tolerances, "gauss", curv_mag[:, :n, :n])


def check_codazzi(geom: Geometry, tolerances: ToleranceModel,
                  curv_mag: np.ndarray) -> ResidualReport:
    """Twice the bundle-row tangent-column block |F|[:, n:n+p, :n] of |F| (q, C, A, *dims)."""
    n, p = geom.grid.ndim, geom.p
    return curvature_report(geom.grid, tolerances, "codazzi", 2.0 * curv_mag[:, n:n + p, :n])


def check_ricci(geom: Geometry, tolerances: ToleranceModel,
                curv_mag: np.ndarray) -> ResidualReport:
    """The bundle block |F|[:, n:n+p, n:n+p] of |F| (q, C, A, *dims)."""
    n, p = geom.grid.ndim, geom.p
    return curvature_report(geom.grid, tolerances, "ricci", curv_mag[:, n:n + p, n:n + p])


def check_all(geom: Geometry, tolerances: ToleranceModel) -> ResidualReport:
    """Every compatibility check but metric compatibility, merged into one report.

    Records: the algebra, ``psi_parallel_*``, ``gauss``, ``codazzi``,
    ``ricci``, ``bundle_flatness``, ``psi_tilde_parallel``.  F is formed once
    and dropped as soon as its node-last ``magnitude`` |F| exists; the four
    checks that read F each reduce a slice of |F|, which is dropped before
    psi~ and D psi~ exist.  D psi~ goes the same way, into |D psi~| for the
    five checks that read it.  None of these arrays is kept.
    """
    from .flatbundle import flatness_residual, psi_tilde_parallel_residual  # imports this module
    nd = geom.grid.ndim
    algebra = check_psi_algebra(geom, tolerances)
    curv_mag = magnitude(big_curvature(geom), nd)
    gauss, codazzi, ricci, flatness = (check(geom, tolerances, curv_mag) for check in (
        check_gauss, check_codazzi, check_ricci, flatness_residual))
    del curv_mag
    d_psi_mag = magnitude(psi_tilde_derivative(geom), nd)
    parallel = check_psi_parallel(geom, tolerances, d_psi_mag)
    tilde = psi_tilde_parallel_residual(geom, tolerances, d_psi_mag)
    return ResidualReport.merge(algebra, parallel, gauss, codazzi, ricci, flatness, tilde)
