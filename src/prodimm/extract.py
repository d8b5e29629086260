"""Induced data of an analytic immersion into S^k x H^m, plus the fixtures.

Everything an immersion induces on its chart is computed here: the metric,
a deterministic orthonormal normal frame, the second form, the four blocks
of the product structure, and the normal connection.  The same data feed the
checker (necessity direction) and the reconstructor (roundtrip oracle).

Points and tangents are sampled once per extraction; every ``induced_*``
function takes them as arrays.

Normal-frame gauge: at every node the projector onto the normal space removes
xi1, xi2 and the Gram-Schmidt-orthonormalized tangents.  At the base node the
normals are the canonical completion: the projected coordinate vectors, taken
in index order while they stay independent.  Every other node inherits the
base normals along the standard sweep through the product of the projectors
on the way, and one Minkowski Gram-Schmidt over all nodes normalizes them (by
QR uniqueness the same frame as re-orthonormalizing after every step, up to
rounding).  A per-node canonical completion would flip sign where a candidate
degenerates mid-chart; inheritance stays smooth.

Shipped fixtures:

* F1 -- unit-speed geodesic curve winding through S^1 x H^1, slopes (a, b)
  with a^2 + b^2 = 1; zero second form, tangent structure block a^2 - b^2,
  normal component of the structure 2ab in magnitude.
* F2 -- latitude circle at colatitude theta0 in S^2, fixed point in H^1,
  arclength parameter; one second-form component of magnitude cot(theta0),
  normal Gram identity, sphere factor rank 3 (k = 2).
* F3 -- product surface (latitude circle in S^2) x (geodesic in H^2); flat
  induced metric, second form cot(theta0) on the circle direction only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConstraintError, DegeneracyError, DimensionError
from .fields import (BundleData, ChartGrid, MetricField, SecondFormField, TensorField,
                     grad_field, hessian_field, sweep_compose, sweep_steps)
from .lorentz import (complete_basis, gram_schmidt, minkowski_dot, product_defect,
                      product_normals, psi_flip)
from .structure import ProductStructureField, ToleranceModel

_SEED_TOL = 1e-10


@dataclass(frozen=True)
class AnalyticImmersion:
    """Closed-form immersion of a chart into S^k x H^m.

    Evaluators are vectorized over leading axes: ``point`` maps coordinates
    (..., n) to ambient points (..., N); ``derivative`` to (..., n, N);
    ``second_derivative`` to (..., n, n, N).  The derivative evaluators are
    optional; finite differences with the package stencils are the fallback.
    """

    name: str
    k: int
    m: int
    n: int
    p: int
    point: Callable
    derivative: Callable | None = None
    second_derivative: Callable | None = None
    params: dict | None = None

    @property
    def ambient_dim(self) -> int:
        return self.k + self.m + 2


@dataclass(frozen=True)
class ExtractionResult:
    """All induced data of one immersion on one grid."""

    grid: ChartGrid
    immersion: AnalyticImmersion
    points: np.ndarray        # (*dims, N)
    tangents: np.ndarray      # (*dims, n, N) actual derivative vectors
    normals: np.ndarray       # (*dims, p, N)
    metric: MetricField
    bundle: BundleData
    sigma: SecondFormField
    psi: ProductStructureField
    analytic_derivatives: bool

    @property
    def k(self) -> int:
        return self.immersion.k

    def ambient_frame_field(self) -> np.ndarray:
        """Columns (tangents, normals, xi1, xi2): the frame map for alignment."""
        xi1, xi2 = product_normals(self.points, self.k)
        return np.concatenate([
            np.moveaxis(self.tangents, -2, -1),
            np.moveaxis(self.normals, -2, -1),
            xi1[..., None], xi2[..., None],
        ], axis=-1)


def immersion_points(imm: AnalyticImmersion, grid: ChartGrid,
                     tol: float = 1e-8) -> np.ndarray:
    """Evaluate the immersion on every node and check the product constraints.

    The round-off of <y, y> grows like |y|^2, so a node passes when its
    product defect is at most ``tol * max(1, |y|^2)``; the error names the
    first node in C order that is off the product or on the lower sheet.
    """
    if grid.ndim != imm.n:
        raise DimensionError(f"{imm.n}-dim immersion on a {grid.ndim}-dim grid")
    pts = np.asarray(imm.point(grid.coords()), dtype=float)
    if pts.shape != grid.dims + (imm.ambient_dim,):
        raise DimensionError(f"point evaluator returned shape {pts.shape}")
    y = pts[..., imm.k + 1:]
    defect = product_defect(pts, imm.k)
    scale = np.maximum(1.0, np.einsum("...i,...i->...", y, y))
    bad = ~(defect <= tol * scale) | (y[..., -1] <= 0)
    if bad.any():
        node = tuple(int(i) for i in np.unravel_index(int(bad.argmax()), grid.dims))
        raise ConstraintError(f"immersion leaves the product by {defect[node]:.3e} "
                              f"at node {node}")
    return pts


def immersion_tangents(imm: AnalyticImmersion, grid: ChartGrid, points: np.ndarray,
                       use_analytic: bool = True) -> np.ndarray:
    if use_analytic and imm.derivative is not None:
        tang = np.asarray(imm.derivative(grid.coords()), dtype=float)
        if tang.shape != grid.dims + (imm.n, imm.ambient_dim):
            raise DimensionError(f"derivative evaluator returned shape {tang.shape}")
        return tang
    return grad_field(grid, points)


def induced_metric(grid: ChartGrid, tangents: np.ndarray) -> MetricField:
    """First fundamental form from pairwise tangent products."""
    gv = minkowski_dot(tangents[..., :, None, :], tangents[..., None, :, :])
    return MetricField(grid, 0.5 * (gv + np.swapaxes(gv, -1, -2)))


def induced_normal_frame(imm: AnalyticImmersion, grid: ChartGrid, points: np.ndarray,
                         tangents: np.ndarray) -> np.ndarray:
    """Orthonormal normal frame, canonical at the base node, swept smoothly.

    Output shape (*dims, p, N); every vector is tangent to the product and
    orthogonal to the immersed chart directions.  DegeneracyError names the
    first node, in sweep order, where the projections leave a carried normal
    with squared norm at most ``_SEED_TOL`` after Gram-Schmidt.
    """
    xi1, xi2 = product_normals(points, imm.k)
    tang, n2 = gram_schmidt(tangents, basis=(xi1, xi2))
    bad = ~(n2 > _SEED_TOL).all(axis=-1)
    if bad.any():
        node = tuple(int(i) for i in np.unravel_index(int(bad.argmax()), grid.dims))
        raise DegeneracyError(f"tangent vectors rank-deficient at node {node}", index=node)
    # projector onto each node's normal space: v - sum_w w <w, v> / <w, w>
    cols = np.stack([xi1, xi2, *np.moveaxis(tang, -2, 0)], axis=-1)   # (..., N, n+2)
    eta_cols = cols.copy()
    eta_cols[..., -1, :] *= -1.0
    eta_cols[..., 1] *= -1.0                          # <xi2, xi2> = -1
    proj = np.eye(imm.ambient_dim) - cols @ np.swapaxes(eta_cols, -1, -2)

    base = (0,) * grid.ndim
    seed = complete_basis(proj[base].T, imm.p, tol=_SEED_TOL)
    if len(seed) != imm.p:
        raise DegeneracyError(
            f"canonical completion found only {len(seed)} of {imm.p} normals at the base")

    carried = np.zeros(grid.dims + (imm.ambient_dim, imm.p))
    carried[base] = np.stack(seed, axis=-1)
    sweep_compose(grid, carried, base, lambda _src, dst, _axis, _delta: proj[dst])

    normals, n2 = gram_schmidt(np.swapaxes(carried, -1, -2))
    bad = ~(n2 > _SEED_TOL).all(axis=-1)
    if bad.any():
        node = _first_swept(grid, base, bad)
        raise DegeneracyError(f"normal frame degenerates at node {node}", index=node)
    return normals


def _first_swept(grid: ChartGrid, base: tuple, mask: np.ndarray) -> tuple:
    """First node in sweep order where ``mask`` holds (never the base node)."""
    nodes = np.moveaxis(np.indices(grid.dims), 0, -1)
    for _src, dst, _axis, _delta in sweep_steps(grid, base):
        hit = nodes[dst][mask[dst]]
        if hit.size:
            return tuple(int(i) for i in hit[0])


def induced_second_form(imm: AnalyticImmersion, grid: ChartGrid, points: np.ndarray,
                        tangents: np.ndarray, normals: np.ndarray,
                        use_analytic: bool = True) -> SecondFormField:
    """Normal components of the flat second derivatives (symmetrized)."""
    if use_analytic and imm.second_derivative is not None:
        dd = np.asarray(imm.second_derivative(grid.coords()), dtype=float)
        if dd.shape != grid.dims + (imm.n, imm.n, imm.ambient_dim):
            raise DimensionError(f"second-derivative evaluator returned shape {dd.shape}")
    elif use_analytic and imm.derivative is not None:
        dd = grad_field(grid, tangents)
    else:
        dd = hessian_field(grid, points)
    sg = minkowski_dot(dd[..., :, :, None, :], normals[..., None, None, :, :])
    sg = 0.5 * (sg + np.swapaxes(sg, -3, -2))
    return SecondFormField(grid, sg)


def induced_structure(imm: AnalyticImmersion, metric: MetricField, tangents: np.ndarray,
                      normals: np.ndarray):
    """Split the ambient product structure along tangents and normals.

    Returns the structure blocks together with the normal connection in the
    swept gauge (skew-symmetrized; exact skewness is restored explicitly).
    """
    grid = metric.grid
    ginv = metric.inverse()
    psi_t = psi_flip(tangents, imm.k)                 # (..., mu, N)
    psi_n = psi_flip(normals, imm.k)                  # (..., b, N)
    b_t = minkowski_dot(psi_t[..., :, None, :], tangents[..., None, :, :])  # (.., mu, j)
    f_vals = np.einsum("...ij,...mj->...im", ginv, b_t)
    u_vals = minkowski_dot(normals[..., :, None, :], psi_t[..., None, :, :])  # (a, mu)
    b_n = minkowski_dot(psi_n[..., :, None, :], tangents[..., None, :, :])    # (b, j)
    big_u_vals = np.einsum("...ij,...bj->...ib", ginv, b_n)
    lam_vals = minkowski_dot(normals[..., :, None, :], psi_n[..., None, :, :])  # (a, b)

    d_normals = grad_field(grid, normals)             # (..., m, b, N)
    om = minkowski_dot(d_normals[..., :, None, :, :], normals[..., None, :, None, :])
    # om[..., m, a, b] = <d_m nu_b, nu_a>; enforce exact skewness
    om = 0.5 * (om - np.swapaxes(om, -1, -2))

    psi = ProductStructureField(
        f=TensorField(grid, ("tu", "td"), f_vals),
        u=TensorField(grid, ("bu", "td"), u_vals),
        big_u=TensorField(grid, ("tu", "bd"), big_u_vals),
        lam=TensorField(grid, ("bu", "bd"), 0.5 * (lam_vals + np.swapaxes(lam_vals, -1, -2))),
    )
    bundle = BundleData(rank=imm.p, omega=TensorField(grid, ("td", "bu", "bd"), om))
    return psi, bundle


def extract_all(imm: AnalyticImmersion, grid: ChartGrid,
                use_analytic: bool = True) -> ExtractionResult:
    """Run the full extraction pipeline once, sampling points and tangents once."""
    points = immersion_points(imm, grid)
    tangents = immersion_tangents(imm, grid, points, use_analytic)
    metric = induced_metric(grid, tangents)
    normals = induced_normal_frame(imm, grid, points, tangents)
    sigma = induced_second_form(imm, grid, points, tangents, normals, use_analytic)
    psi, bundle = induced_structure(imm, metric, tangents, normals)
    analytic = bool(use_analytic and imm.derivative is not None)
    return ExtractionResult(grid=grid, immersion=imm, points=points, tangents=tangents,
                            normals=normals, metric=metric, bundle=bundle, sigma=sigma,
                            psi=psi, analytic_derivatives=analytic)


def default_tolerances(data: ExtractionResult) -> ToleranceModel:
    """Algebraic checks are exact only when analytic derivatives were used."""
    return ToleranceModel(algebraic=1e-10 if data.analytic_derivatives else None)


# ---------------------------------------------------------------------------
# fixtures


def _fixture_f1(a: float = 0.6):
    a = float(a)
    if not 0.0 < a < 1.0:
        raise DimensionError("slope parameter must sit strictly between 0 and 1")
    b = float(np.sqrt(1.0 - a * a))

    def point(coords):
        t = coords[..., 0]
        return np.stack([np.cos(a * t), np.sin(a * t),
                         np.sinh(b * t), np.cosh(b * t)], axis=-1)

    def derivative(coords):
        t = coords[..., 0]
        return np.stack([-a * np.sin(a * t), a * np.cos(a * t),
                         b * np.cosh(b * t), b * np.sinh(b * t)], axis=-1)[..., None, :]

    def second_derivative(coords):
        t = coords[..., 0]
        dd = np.stack([-a * a * np.cos(a * t), -a * a * np.sin(a * t),
                       b * b * np.sinh(b * t), b * b * np.cosh(b * t)], axis=-1)
        return dd[..., None, None, :]

    imm = AnalyticImmersion(name="F1", k=1, m=1, n=1, p=1, point=point,
                            derivative=derivative, second_derivative=second_derivative,
                            params={"a": a, "b": b})
    grid = ChartGrid(dims=(200,), spacing=(5e-3,), origin=(0.0,))
    return imm, grid


def _fixture_f2(theta0: float = np.pi / 3):
    theta0 = float(theta0)
    s0, c0 = np.sin(theta0), np.cos(theta0)
    if s0 <= 0:
        raise DimensionError("colatitude must sit strictly inside (0, pi)")

    def point(coords):
        tau = coords[..., 0] / s0
        zero = np.zeros_like(tau)
        return np.stack([s0 * np.cos(tau), s0 * np.sin(tau), c0 + zero,
                         zero, 1.0 + zero], axis=-1)

    def derivative(coords):
        tau = coords[..., 0] / s0
        zero = np.zeros_like(tau)
        return np.stack([-np.sin(tau), np.cos(tau), zero, zero, zero],
                        axis=-1)[..., None, :]

    def second_derivative(coords):
        tau = coords[..., 0] / s0
        zero = np.zeros_like(tau)
        dd = np.stack([-np.cos(tau) / s0, -np.sin(tau) / s0, zero, zero, zero], axis=-1)
        return dd[..., None, None, :]

    imm = AnalyticImmersion(name="F2", k=2, m=1, n=1, p=2, point=point,
                            derivative=derivative, second_derivative=second_derivative,
                            params={"theta0": theta0})
    grid = ChartGrid(dims=(201,), spacing=(1e-2,), origin=(0.0,))
    return imm, grid


def _fixture_f3(theta0: float = np.pi / 4):
    theta0 = float(theta0)
    s0, c0 = np.sin(theta0), np.cos(theta0)
    if s0 <= 0:
        raise DimensionError("colatitude must sit strictly inside (0, pi)")

    def point(coords):
        tau = coords[..., 0] / s0
        t2 = coords[..., 1]
        zero = np.zeros_like(tau)
        return np.stack([s0 * np.cos(tau), s0 * np.sin(tau), c0 + zero,
                         np.sinh(t2), zero, np.cosh(t2)], axis=-1)

    def derivative(coords):
        tau = coords[..., 0] / s0
        t2 = coords[..., 1]
        zero = np.zeros_like(tau)
        d1 = np.stack([-np.sin(tau), np.cos(tau), zero, zero, zero, zero], axis=-1)
        d2 = np.stack([zero, zero, zero, np.cosh(t2), zero, np.sinh(t2)], axis=-1)
        return np.stack([d1, d2], axis=-2)

    def second_derivative(coords):
        tau = coords[..., 0] / s0
        t2 = coords[..., 1]
        zero = np.zeros_like(tau)
        d11 = np.stack([-np.cos(tau) / s0, -np.sin(tau) / s0, zero, zero, zero, zero],
                       axis=-1)
        d12 = np.zeros_like(d11)
        d22 = np.stack([zero, zero, zero, np.sinh(t2), zero, np.cosh(t2)], axis=-1)
        row1 = np.stack([d11, d12], axis=-2)
        row2 = np.stack([d12, d22], axis=-2)
        return np.stack([row1, row2], axis=-3)

    imm = AnalyticImmersion(name="F3", k=2, m=2, n=2, p=2, point=point,
                            derivative=derivative, second_derivative=second_derivative,
                            params={"theta0": theta0})
    h = 1.5 / 63.0
    grid = ChartGrid(dims=(64, 64), spacing=(h, h), origin=(0.0, 0.0))
    return imm, grid


FIXTURES = {"F1": _fixture_f1, "F2": _fixture_f2, "F3": _fixture_f3}


def fixture(name: str, grid: ChartGrid | None = None, **params):
    """Look up a shipped fixture; returns (immersion, grid)."""
    key = name.upper()
    if key not in FIXTURES:
        raise DimensionError(f"unknown fixture {name!r}; available: {sorted(FIXTURES)}")
    imm, default_grid = FIXTURES[key](**params)
    return imm, (grid if grid is not None else default_grid)
