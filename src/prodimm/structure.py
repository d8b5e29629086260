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
  the direction pairs q = (m, n), m < n (``fields.connection_curvature``):
  ``gauss`` = F[..., :n, :n], laid out (q, i, r); ``codazzi`` = 2 F[..., n:n+p, :n],
  laid out (q, a, r), i.e. 2 D_m sigma(d_n, d_r) - g(d_n, d_r) u(d_m) -
  (m <-> n), the factor 2 keeping that scale (the factor is exact, and the
  (q, r, a) layout of the equation is a swap that changes no max or mean);
  ``ricci`` = F[..., n:n+p, n:n+p], laid out (q, a, b);
  ``bundle_flatness`` = all of F.  The means of ``gauss``, ``codazzi`` and
  ``ricci`` stay those over all n^2 direction pairs: F[n, m] = -F[m, n] and
  the zero diagonal weight the mean over the pairs m < n by (n-1)/n, the
  ``mean_weight`` each of the three passes, as if F were held in full.
  A 1-dim chart has no direction pairs, so F has none and its four records
  are zero.
* D psi~[..., m, C, A] = d_m psi~ + [Omega_m, psi~]
  (``psi_tilde_derivative_magnitude``): ``psi_parallel_f/u/U/lambda`` = the
  ``psi_blocks`` of D psi~[..., :n+p, :n+p], each laid out (m, rows, cols);
  ``psi_tilde_parallel`` = all of it.

Each differential check takes |F| or |D psi~| as its last argument, node-last:
``check_all`` writes |F| once into a (q, C, A, *dims) array
(``curvature_magnitude``) and hands it to the four checks that read it, and
|D psi~| into (m, C, A, *dims) (``psi_tilde_derivative_magnitude``) for the
five checks that read it.  Neither F nor D psi~ is ever whole (see
``chunked_magnitude`` below).  Each check reduces slices of the magnitude,
with no copy of its own, so one check is read as
``check_all(geom, tolerances)[name]``.

Residuals are reported nodewise as max-abs over all free indices; for charts
of dimension <= 3 every index combination is formed explicitly (no sampling).
Every nodewise max-abs goes through one reduction: ``magnitude`` writes
|residual| once with the node axes last, laid out (*free, *dims), so the
nodewise max (``nodewise_max``) is an elementwise ``maximum`` of contiguous
node rows and the mean one sum (``node_record``).  No full-size temporary
outlives its use: a residual as large as the big connection, or one formed
through large products, is never held whole.  ``chunked_magnitude`` forms it
by blocks of node rows of about ``_CHUNK_BYTES``, writes each block's |.|
into its slice of the magnitude and drops it; each row is formed as in the
whole array, so the magnitude, and every record, is bitwise that of the
whole residual.  ``records`` is the one
record builder, over (name, node-last magnitude) pairs: a caller holding a
(*dims, *free) residual passes its ``magnitude``.  Every check, residual and
verification returns a ``Report``, and ``Report.merge`` joins the parts that
the stages build.  Every checker reads the data and its derived geometry from
one :class:`prodimm.flatbundle.Geometry`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ExclusionError, SchemaError
from .fields import ChartGrid, argmax_node, connection_curvature, endomorphism_derivative

if TYPE_CHECKING:
    from .flatbundle import Geometry

_CHUNK_BYTES = 2**19   # residual bytes formed at once by ``chunked_magnitude``

# Every record name in report order: the 15 records of ``check``, the algebra
# first, then the 10 of a rebuild (``sweep_cross_check`` on charts of dimension >= 2).
RECORD_NAMES = (
    "psi_f_symmetric", "psi_lambda_symmetric", "psi_u_U_adjoint", "psi_involution_tangent",
    "psi_involution_bundle", "psi_parallel_f", "psi_parallel_u", "psi_parallel_U",
    "psi_parallel_lambda", "gauss", "codazzi", "ricci", "bundle_metric_compatibility",
    "bundle_flatness", "psi_tilde_parallel", "reconstruction_isometry",
    "reconstruction_normal_orthogonality", "reconstruction_second_form",
    "reconstruction_psi_compat_tangent", "reconstruction_psi_compat_normal",
    "reconstruction_normal_connection", "frame_orthonormality", "reconstruction_on_product",
    "path_independence", "sweep_cross_check")
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


@dataclass(frozen=True, eq=False)
class Report:
    """Check records plus the optional grid, reconstruction, alignment and timings blocks."""

    records: tuple = ()
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
        return all(r.passed for r in self.records) and self.aligned is not False

    def __getitem__(self, name: str) -> CheckRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)

    def names(self):
        return [r.name for r in self.records]

    @classmethod
    def merge(cls, *reports: "Report", **blocks) -> "Report":
        """The records of ``reports`` in ``RECORD_NAMES`` order and their blocks, a later
        report's over an earlier's and a keyword's over all; the timings are joined."""
        carried: dict = {}
        for rep in reports:
            carried |= {name: value for name in ("grid", "reconstruction", "alignment")
                        if (value := getattr(rep, name)) is not None}
            if rep.timings is not None:
                carried["timings"] = carried.get("timings", {}) | rep.timings
        return cls(records=tuple(sorted((r for rep in reports for r in rep.records),
                                        key=lambda r: RECORD_NAMES.index(r.name))),
                   **carried | blocks)


def magnitude(residual: np.ndarray, nd: int) -> np.ndarray:
    """|residual| of a (*dims, *free) array, written once into a fresh (*free, *dims) array.

    With the ``nd`` node axes last, a nodewise max over the free axes is an
    elementwise ``maximum`` of contiguous node rows (``nodewise_max``), and a
    block of the magnitude is a slice over its leading axes.
    """
    out = np.empty(residual.shape[nd:] + residual.shape[:nd])
    return np.abs(np.moveaxis(residual, range(nd), range(-nd, 0)), out=out)


def chunked_magnitude(grid: ChartGrid, free: tuple, residual_rows) -> np.ndarray:
    """``magnitude`` of a (*dims, *free) residual that is never whole: (*free, *dims).

    ``residual_rows(rows)`` returns the residual on ``rows``, a slice of the
    first node axis.  Blocks of about ``_CHUNK_BYTES`` are formed one at a time
    and each is written into its slice of the magnitude.  The kernels form
    each row as they would in the whole array, so the magnitude is bitwise
    ``magnitude(residual, grid.ndim)``.
    """
    nd = grid.ndim
    out = np.empty(free + grid.dims)
    step = max(1, _CHUNK_BYTES // max(out.nbytes // grid.dims[0], 1))
    for lo in range(0, grid.dims[0], step):
        rows = slice(lo, lo + step)
        np.abs(np.moveaxis(residual_rows(rows), range(nd), range(-nd, 0)),
               out=out[(slice(None),) * len(free) + (rows,)])
    return out


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


def records(grid: ChartGrid, tolerances: ToleranceModel, *named,
            mean_weight: float = 1.0) -> Report:
    """One record per (name, node-last magnitude) pair, its mean scaled by ``mean_weight``."""
    return Report(tuple(node_record(name, mag, grid, tolerances.threshold(name, grid),
                                    mean_weight) for name, mag in named))


def psi_blocks(psi: np.ndarray, n: int) -> tuple:
    """Views (f, u, U, lambda) of a (..., n+p, n+p) matrix laid out [[f, U], [u, lambda]]."""
    return psi[..., :n, :n], psi[..., n:, :n], psi[..., :n, n:], psi[..., n:, n:]


def check_psi_algebra(geom: Geometry, tolerances: ToleranceModel) -> Report:
    """Symmetry, adjointness and involution residuals; then the +-I exclusion (module doc)."""
    psi = geom.psi
    n = geom.grid.ndim
    _, u, big_u, lam = psi_blocks(psi, n)
    gf = geom.f_lowered                                  # g(f d_i, d_j)
    square = psi @ psi - np.eye(psi.shape[-1])
    report = records(
        geom.grid, tolerances,
        ("psi_f_symmetric", magnitude(gf - np.swapaxes(gf, -1, -2), n)),
        ("psi_lambda_symmetric", magnitude(lam - np.swapaxes(lam, -1, -2), n)),
        ("psi_u_U_adjoint", magnitude(u - np.swapaxes(geom.metric.values @ big_u, -1, -2), n)),
        ("psi_involution_tangent", magnitude(square[..., :n, :], n)),
        ("psi_involution_bundle", magnitude(square[..., n:, :], n)))
    identity = np.abs(np.trace(psi, axis1=-2, axis2=-1)) > psi.shape[-1] - 1
    if report.passed and identity.any():
        node = argmax_node(identity)
        raise ExclusionError(f"structure is plus/minus the identity at node {node}; such data "
                             "is outside the reconstructible class", node=node)
    return report


def curvature_magnitude(geom: Geometry) -> np.ndarray:
    """|F| laid out (q, C, A, *dims), F formed by blocks of node rows (``chunked_magnitude``)."""
    nd, size = geom.grid.ndim, geom.connection.shape[-1]
    return chunked_magnitude(geom.grid, (nd * (nd - 1) // 2, size, size),
                             lambda rows: connection_curvature(geom.grid, geom.connection, rows))


def psi_tilde_derivative_magnitude(geom: Geometry) -> np.ndarray:
    """|D psi~| laid out (m, C, A, *dims), D psi~[..., m, C, A] = d_m psi~ + [Omega_m, psi~].

    psi~ is padded from psi once; D psi~ is formed by blocks of node rows
    (``chunked_magnitude``).
    """
    from .flatbundle import build_psi_tilde  # imports this module
    grid, conn = geom.grid, geom.connection
    psi_tilde = build_psi_tilde(geom.psi)
    return chunked_magnitude(grid, conn.shape[grid.ndim:],
                             lambda rows: endomorphism_derivative(grid, psi_tilde, conn, rows))


def check_psi_parallel(geom: Geometry, tolerances: ToleranceModel,
                       d_psi_mag: np.ndarray) -> Report:
    """The four blocks of |D psi|, the top-left (n+p)^2 block of |D psi~| (m, C, A, *dims)."""
    n = geom.grid.ndim
    tan, bun = slice(n), slice(n, n + geom.p)
    return records(geom.grid, tolerances,
                   ("psi_parallel_f", d_psi_mag[:, tan, tan]),
                   ("psi_parallel_u", d_psi_mag[:, bun, tan]),
                   ("psi_parallel_U", d_psi_mag[:, tan, bun]),
                   ("psi_parallel_lambda", d_psi_mag[:, bun, bun]))


def check_gauss(geom: Geometry, tolerances: ToleranceModel,
                curv_mag: np.ndarray) -> Report:
    """The tangent block |F|[:, :n, :n] of |F| (q, C, A, *dims)."""
    n = geom.grid.ndim
    return records(geom.grid, tolerances, ("gauss", curv_mag[:, :n, :n]), mean_weight=(n - 1) / n)


def check_codazzi(geom: Geometry, tolerances: ToleranceModel,
                  curv_mag: np.ndarray) -> Report:
    """Twice the bundle-row tangent-column block |F|[:, n:n+p, :n] of |F| (q, C, A, *dims)."""
    n, p = geom.grid.ndim, geom.p
    return records(geom.grid, tolerances, ("codazzi", 2.0 * curv_mag[:, n:n + p, :n]),
                   mean_weight=(n - 1) / n)


def check_ricci(geom: Geometry, tolerances: ToleranceModel,
                curv_mag: np.ndarray) -> Report:
    """The bundle block |F|[:, n:n+p, n:n+p] of |F| (q, C, A, *dims)."""
    n, p = geom.grid.ndim, geom.p
    return records(geom.grid, tolerances, ("ricci", curv_mag[:, n:n + p, n:n + p]),
                   mean_weight=(n - 1) / n)


def check_all(geom: Geometry, tolerances: ToleranceModel) -> Report:
    """Every compatibility check but metric compatibility, merged into one report.

    Records: the algebra, ``psi_parallel_*``, ``gauss``, ``codazzi``,
    ``ricci``, ``bundle_flatness``, ``psi_tilde_parallel``.  The four checks
    that read F each reduce a slice of |F|, which is dropped before psi~ and
    |D psi~| exist; the five that read D psi~ reduce slices of |D psi~|.
    Neither F nor D psi~ is ever whole, and none of these arrays is kept.
    """
    from .flatbundle import flatness_residual, psi_tilde_parallel_residual  # imports this module
    algebra = check_psi_algebra(geom, tolerances)
    curv_mag = curvature_magnitude(geom)
    gauss, codazzi, ricci, flatness = (check(geom, tolerances, curv_mag) for check in (
        check_gauss, check_codazzi, check_ricci, flatness_residual))
    del curv_mag
    d_psi_mag = psi_tilde_derivative_magnitude(geom)
    parallel = check_psi_parallel(geom, tolerances, d_psi_mag)
    tilde = psi_tilde_parallel_residual(geom, tolerances, d_psi_mag)
    return Report.merge(algebra, parallel, gauss, codazzi, ricci, flatness, tilde)
