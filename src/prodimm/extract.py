"""Induced data of an analytic immersion into S^k x H^m, plus the fixtures.

Everything an immersion induces on its chart is computed here: the metric,
a deterministic orthonormal normal frame, the second form, the product
structure as one matrix [[f, U], [u, lambda]], and the normal connection.
The same data feed the checker (necessity direction) and the reconstructor
(roundtrip oracle).

Each evaluator is sampled once per extraction, through one helper that checks
its shape; a missing derivative is the gradient of the points, a missing second
derivative their Hessian.  Each induced quantity is a pairing of frame
rows (``lorentz.minkowski_gram``): g = <d_i phi, d_j phi>, sigma =
<d_i d_j phi, nu_a>, the normal connection <nu_a, d_m nu_b>, and psi, read
off <e_B, psi e_A> for the stacked rows e = (d_i phi, nu_a).  The
``induced_*`` pairings take these rows as arrays, never the immersion, so the
same functions verify a rebuild (``reconstruct.verify_reconstruction``): its
datum is read off its differenced points and its frame's normals.

Normal-frame gauge: at every node the projector onto the normal space removes
xi1, xi2 and the Gram-Schmidt-orthonormalized tangents.  At the base node the
normals are the canonical completion: the projected coordinate vectors, taken
in index order while they stay independent.  Every other node inherits the
base normals along the standard sweep through the product of the projectors
on the way, and one Minkowski Gram-Schmidt over all nodes normalizes them (by
QR uniqueness the same frame as re-orthonormalizing after every step, up to
rounding).  A per-node canonical completion would flip sign where a candidate
degenerates mid-chart; inheritance stays smooth.

The sweep runs in boosted frames.  A point y of H^m has |y| ~ cosh(distance),
so the projectors in ambient coordinates have entries of order |y|^2, and
the scanned sweep, which reassociates their products, would lose about
eps |y|^4 per product.  So every node's columns are moved by L(y), the boost
taking y to the apex (``lorentz.apex_boost``), where they have entries of
order 1; an edge's step operator is the boosted projector at its far node
times the relative boost L(far) L(near)^-1.  The carried normals go back
through L^-1 before the Gram-Schmidt, and the base seed is the canonical
completion above.  Measured on F1 with helix-a 0.6 (b = 0.8), h = 5e-3, as
the largest record over its threshold (the unboosted edge-by-edge sweep in
brackets):

* analytic route: ``check`` passes at 1000 nodes (0.0015 [0.89]) and at 1400
  nodes (0.05 [759]), and ``roundtrip`` at 1400 (0.085).  At 1800 nodes it
  reads 0.96 [4.1e5] and at 2000 nodes 4.9: eps cosh^2(7.2) ~ 1e-10 is the
  algebraic threshold itself, the floor of ambient input that no gauge
  lowers, so there the rounding of each pairing decides the verdict;
* ``--fd`` route: ``check`` passes at 1000 to 1800 nodes (at most 0.03 [97])
  and at 2000 nodes (0.28 [5.3e3]); the rebuild records pass at 1800 (0.02)
  and fail at 2000 (``frame_orthonormality`` 1.27), since the transported
  frame is not boosted;
* at 3199 nodes (cosh(bt) ~ 2e5) extraction completes [matmul overflow],
  and the checks fail.

Errors name the first offending node in C order, except a degenerate normal
frame: it names the first in Fortran order, the sweep's own order on 1-dim and
2-dim charts.

Shipped fixtures.  Each writes its closed form once, as ``jet(coords, order)``;
``_jet_fixture`` makes its orders 0, 1 and 2 the point, derivative and second
derivative evaluators, so each trig factor is evaluated once per call:

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

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConstraintError, DegeneracyError, DimensionError
from .fields import (BundleData, ChartGrid, MetricField, SecondFormField, argmax_node,
                     grad_field, hessian_field, sweep_compose, sweep_steps)
from .flatbundle import Geometry
from .lorentz import (apex_boost, complete_basis, gram_schmidt, lower, minkowski_gram,
                      product_defect, product_normals, psi_flip)
from .structure import ToleranceModel, psi_blocks

_SEED_TOL = 1e-10
_PRODUCT_TOL = 1e-8   # product defect of an evaluated point, relative to max(1, |y|^2)


@dataclass(frozen=True)
class AnalyticImmersion:
    """Closed-form immersion of a chart into S^k x H^m.

    Evaluators are vectorized over leading axes: ``point`` maps coordinates
    (..., n) to ambient points (..., N); ``derivative`` to (..., n, N);
    ``second_derivative`` to (..., n, n, N).  The derivative evaluators are
    optional; finite differences with the package stencils are the fallback.
    The normal rank p = k + m - n is read off the dimensions, and must be at least 1.
    """

    name: str
    k: int
    m: int
    n: int
    point: Callable
    derivative: Callable | None = None
    second_derivative: Callable | None = None
    params: dict | None = None

    def __post_init__(self):
        if self.p < 1:
            raise DimensionError(f"normal rank k + m - n = {self.k} + {self.m} - {self.n} "
                                 f"= {self.p} is below 1")

    @property
    def p(self) -> int:
        return self.k + self.m - self.n

    @property
    def ambient_dim(self) -> int:
        return self.k + self.m + 2


@dataclass(frozen=True, eq=False)
class ExtractionResult(Geometry):
    """The induced datum of one immersion on one grid, a ``Geometry``, plus the ambient
    samples it was read off: points, tangents and the swept normal frame."""

    immersion: AnalyticImmersion
    points: np.ndarray        # (*dims, N)
    tangents: np.ndarray      # (*dims, n, N) actual derivative vectors
    normals: np.ndarray       # (*dims, p, N)

    @property
    def analytic_derivatives(self) -> bool:   # read off the immersion, never stored
        return self.immersion.derivative is not None

    @property
    def k(self) -> int:
        return self.immersion.k

    @property
    def tolerances(self) -> ToleranceModel:
        """Algebraic checks are exact only when analytic derivatives were used."""
        return ToleranceModel(algebraic=1e-10 if self.analytic_derivatives else None)

    @property
    def meta(self) -> dict:
        """The provenance a dataset document carries: the fixture, k, its params, the route."""
        return {"fixture": self.immersion.name, "k": self.k,
                "params": dict(self.immersion.params or {}),
                "analytic_derivatives": self.analytic_derivatives}

    def ambient_frame(self, node: tuple) -> np.ndarray:
        """(N, N) frame map at ``node``, columns (tangents, normals, xi1, xi2): for alignment."""
        xi1, xi2 = product_normals(self.points[node], self.k)
        return np.column_stack([self.tangents[node].T, self.normals[node].T, xi1, xi2])


def immersion_points(imm: AnalyticImmersion, grid: ChartGrid) -> np.ndarray:
    """Evaluate the immersion on every node and check the product constraints.

    The round-off of <y, y> grows like |y|^2, so a node passes when its
    product defect is at most ``_PRODUCT_TOL * max(1, |y|^2)``; the error names the
    first node in C order whose point or |y|^2 is not finite (a far chart origin
    overflows), that is off the product or that is on the lower sheet.
    """
    if grid.ndim != imm.n:
        raise DimensionError(f"{imm.n}-dim immersion on a {grid.ndim}-dim grid")
    pts = _sample(imm, grid, "point", ())
    y = pts[..., imm.k + 1:]
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is rejected below
        y2 = (y * y).sum(axis=-1)
        defect = product_defect(pts, imm.k)
    nonfinite = ~(np.isfinite(pts).all(axis=-1) & np.isfinite(y2))
    off = ~(defect <= _PRODUCT_TOL * np.maximum(1.0, y2))
    bad = nonfinite | off | (y[..., -1] <= 0)
    if bad.any():
        node = argmax_node(bad)
        reason = ("point or its |y|^2 is not finite" if nonfinite[node]
                  else f"leaves the product by {defect[node]:.3e}" if off[node]
                  else "reaches the lower sheet of the hyperboloid")
        raise ConstraintError(f"immersion {reason} at node {node}", node=node)
    return pts


def _sample(imm: AnalyticImmersion, grid: ChartGrid, what: str, slots: tuple) -> np.ndarray:
    """The evaluator ``what`` of ``imm`` on every node: an array (*dims, *slots, N); an
    overflow gives inf or NaN, not a warning, and ``immersion_points`` rejects it first."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(getattr(imm, what)(grid.coords()), dtype=float)
    if values.shape != grid.dims + slots + (imm.ambient_dim,):
        raise DimensionError(f"{what.replace('_', '-')} evaluator returned shape {values.shape}")
    return values


def immersion_tangents(imm: AnalyticImmersion, grid: ChartGrid, points: np.ndarray) -> np.ndarray:
    """The analytic derivatives when the immersion has them, else the gradient of the points."""
    if imm.derivative is None:
        return grad_field(grid, points)
    return _sample(imm, grid, "derivative", (imm.n,))


def induced_metric(grid: ChartGrid, tangents: np.ndarray) -> MetricField:
    """First fundamental form from pairwise tangent products."""
    gv = minkowski_gram(tangents, tangents)
    return MetricField(grid, 0.5 * (gv + np.swapaxes(gv, -1, -2)))


def _normal_projector(cols: np.ndarray) -> np.ndarray:
    """I - sum_w w <w, .> / <w, w> over the columns (xi1, xi2, tangents) of cols (..., N, n+2)."""
    # the paired rows <w, .> as a C-ordered array: matmul is slower on a transposed view
    pairing = lower(np.swapaxes(cols, -1, -2))
    pairing[..., 1, :] *= -1.0                        # divided by <xi2, xi2> = -1
    return np.eye(cols.shape[-2]) - cols @ pairing


def induced_normal_frame(imm: AnalyticImmersion, grid: ChartGrid, points: np.ndarray,
                         tangents: np.ndarray) -> np.ndarray:
    """Orthonormal normal frame, canonical at the base node, swept smoothly.

    Output shape (*dims, p, N); every vector is tangent to the product and
    orthogonal to the immersed chart directions.  DegeneracyError names the
    first node in Fortran order (the sweep's order on 1-dim and 2-dim charts; on
    3-dim ones the sweep may reach another node of that plane step first) where
    the projections leave a carried normal with squared norm <= ``_SEED_TOL``.
    """
    xi1, xi2 = product_normals(points, imm.k)
    tang, n2 = gram_schmidt(tangents, basis=(xi1, xi2))
    bad = ~(n2 > _SEED_TOL).all(axis=-1)
    if bad.any():
        node = argmax_node(bad)
        raise DegeneracyError(f"tangent vectors rank-deficient at node {node}", node=node)
    cols = np.stack([xi1, xi2, *np.moveaxis(tang, -2, 0)], axis=-1)   # (..., N, n+2)
    del xi1, xi2, tang

    base = (0,) * grid.ndim
    seed = complete_basis(_normal_projector(cols[base]).T, imm.p, tol=_SEED_TOL)
    if len(seed) != imm.p:
        raise DegeneracyError(f"canonical completion found only {len(seed)} of {imm.p} "
                              f"normals at the base node {base}", node=base)

    # Sweep in boosted frames: L(y) takes each node's point to the apex, so the
    # projectors of the boosted columns have entries of order 1, not |y|^2.
    hyp = (Ellipsis, slice(imm.k + 1, None), slice(None))      # hyperbolic rows
    boost = apex_boost(points[..., imm.k + 1:])
    unboost = lower(lower(boost), axis=-2)                     # L^-1 = eta L eta
    np.matmul(boost, cols[hyp], out=cols[hyp])
    ops = _normal_projector(cols)
    del cols
    # From the corner base every run of ``sweep_steps`` runs forward, so each
    # edge's lower node is the predecessor of its far end: the far node's step
    # operator is its boosted projector times the relative boost
    # L(node) L(pred)^-1, applied to the hyperbolic columns only.
    for _slab, node, pred, _axis in sweep_steps(grid, base):
        block = ops[node][..., imm.k + 1:]
        np.matmul(block, boost[node] @ unboost[pred], out=block)
    seed = np.stack(seed, axis=-1)
    seed[imm.k + 1:] = boost[base] @ seed[imm.k + 1:]
    del boost
    carried = sweep_compose(grid, seed, base,
                            tuple(ops[(slice(None),) * a + (slice(1, None),)]
                                  for a in range(grid.ndim)))
    del ops
    np.matmul(unboost, carried[hyp], out=carried[hyp])
    del unboost

    normals, n2 = gram_schmidt(np.swapaxes(carried, -1, -2))
    bad = ~(n2 > _SEED_TOL).all(axis=-1)
    if bad.any():
        node = argmax_node(bad.T)[::-1]
        raise DegeneracyError(f"normal frame degenerates at node {node}", node=node)
    return normals


def induced_second_form(grid: ChartGrid, second_derivatives: np.ndarray,
                        normals: np.ndarray) -> SecondFormField:
    """Normal components of the flat second derivatives (*dims, n, n, N), symmetrized."""
    sg = minkowski_gram(second_derivatives, normals[..., None, :, :])
    sg = 0.5 * (sg + np.swapaxes(sg, -3, -2))
    return SecondFormField(grid, sg)


def induced_structure(k: int, metric: MetricField, tangents: np.ndarray, normals: np.ndarray):
    """Split the ambient product structure along tangents and normals.

    Returns the structure matrix [[f, U], [u, lambda]] together with the normal
    connection in the swept gauge (skew-symmetrized; exact skewness is restored
    explicitly).  The structure is read off one pairing of the stacked rows
    e = (d_1 phi .. d_n phi, nu_1 .. nu_p): psi[B, A] = <e_B, psi e_A>, the
    tangent rows raised by g^-1 and lambda symmetrized.
    """
    grid, n = metric.grid, metric.grid.ndim
    rows = np.concatenate([tangents, normals], axis=-2)
    psi = minkowski_gram(rows, psi_flip(rows, k))
    del rows
    psi[..., :n, :] = metric.inverse @ psi[..., :n, :]
    lam = psi_blocks(psi, n)[3]
    lam[...] = 0.5 * (lam + np.swapaxes(lam, -1, -2))

    om = minkowski_gram(normals[..., None, :, :], grad_field(grid, normals))
    # om[..., m, a, b] = <nu_a, d_m nu_b>; enforce exact skewness
    om = 0.5 * (om - np.swapaxes(om, -1, -2))
    return psi, BundleData(grid, om)


def extract_all(imm: AnalyticImmersion, grid: ChartGrid,
                use_analytic: bool = True) -> ExtractionResult:
    """All induced data, sampled once; ``use_analytic`` False drops the derivative evaluators."""
    if not use_analytic:
        imm = replace(imm, derivative=None, second_derivative=None)
    points = immersion_points(imm, grid)
    tangents = immersion_tangents(imm, grid, points)
    metric = induced_metric(grid, tangents)
    normals = induced_normal_frame(imm, grid, points, tangents)
    psi, bundle = induced_structure(imm.k, metric, tangents, normals)
    second = (hessian_field(grid, points) if imm.second_derivative is None
              else _sample(imm, grid, "second_derivative", (imm.n, imm.n)))
    sigma = induced_second_form(grid, second, normals)
    return ExtractionResult(metric=metric, bundle=bundle, sigma=sigma, psi=psi, immersion=imm,
                            points=points, tangents=tangents, normals=normals)


# ---------------------------------------------------------------------------
# fixtures


def _jet_fixture(name: str, k: int, m: int, n: int, jet: Callable, params: dict,
                 grid: ChartGrid):
    """(immersion, grid) whose point, derivative and second derivative are the orders 0,
    1 and 2 of one closed form ``jet(coords, order)``: an array (..., *(n,) * order, N),
    or (..., N) at every order on a curve (n = 1)."""
    def evaluator(order):
        slots = (Ellipsis,) + (None,) * (order if n == 1 else 0) + (slice(None),)
        return lambda coords: jet(coords, order)[slots]

    return AnalyticImmersion(name=name, k=k, m=m, n=n, point=evaluator(0),
                             derivative=evaluator(1), second_derivative=evaluator(2),
                             params=params), grid


def _fixture_f1(a: float = 0.6):
    a = float(a)
    if not 0.0 < a < 1.0:
        raise DimensionError("slope parameter must sit strictly between 0 and 1")
    b = float(np.sqrt(1.0 - a * a))

    def jet(coords, order):
        t = coords[..., 0]
        c, s, ch, sh = np.cos(a * t), np.sin(a * t), np.cosh(b * t), np.sinh(b * t)
        if order == 0:
            return np.stack([c, s, sh, ch], axis=-1)
        if order == 1:
            return np.stack([-a * s, a * c, b * ch, b * sh], axis=-1)
        return np.stack([-a * a * c, -a * a * s, b * b * sh, b * b * ch], axis=-1)

    return _jet_fixture("F1", 1, 1, 1, jet, {"a": a, "b": b},
                        ChartGrid(dims=(200,), spacing=(5e-3,), origin=(0.0,)))


def _latitude_circle(theta0: float):
    """theta0 as a float and ``jet(s, order)``: the point (order 0), velocity (1) or
    acceleration (2), (..., 3), at arclength s of the latitude circle at colatitude theta0."""
    theta0 = float(theta0)
    if not np.isfinite(theta0):
        raise DimensionError(f"colatitude must be finite, got {theta0}")
    s0, c0 = np.sin(theta0), np.cos(theta0)
    if s0 <= 0:
        raise DimensionError("colatitude must sit strictly inside (0, pi)")

    def jet(s, order):
        tau = s / s0
        zero = np.zeros_like(tau)
        if order == 0:
            return np.stack([s0 * np.cos(tau), s0 * np.sin(tau), c0 + zero], axis=-1)
        if order == 1:
            return np.stack([-np.sin(tau), np.cos(tau), zero], axis=-1)
        return np.stack([-np.cos(tau) / s0, -np.sin(tau) / s0, zero], axis=-1)
    return theta0, jet


def _fixture_f2(theta0: float = np.pi / 3):
    theta0, circle = _latitude_circle(theta0)

    def jet(coords, order):   # the circle at the fixed point (0, 1) of H^1
        x = circle(coords[..., 0], order)
        y = np.zeros(x.shape[:-1] + (2,))
        y[..., 1] = 1.0 if order == 0 else 0.0
        return np.concatenate([x, y], axis=-1)

    return _jet_fixture("F2", 2, 1, 1, jet, {"theta0": theta0},
                        ChartGrid(dims=(201,), spacing=(1e-2,), origin=(0.0,)))


def _fixture_f3(theta0: float = np.pi / 4):
    theta0, circle = _latitude_circle(theta0)

    def jet(coords, order):   # the circle along the first axis, a geodesic of H^2 along the second
        t2 = coords[..., 1]
        ch, sh, zero = np.cosh(t2), np.sinh(t2), np.zeros_like(t2)
        x = circle(coords[..., 0], order)
        y = np.stack([ch, zero, sh] if order % 2 else [sh, zero, ch], axis=-1)
        if order == 0:
            return np.concatenate([x, y], axis=-1)
        out = np.zeros(coords.shape[:-1] + (2,) * order + (6,))
        out[(Ellipsis,) + (0,) * order + (slice(None, 3),)] = x
        out[(Ellipsis,) + (1,) * order + (slice(3, None),)] = y
        return out

    return _jet_fixture("F3", 2, 2, 2, jet, {"theta0": theta0},
                        ChartGrid(dims=(64, 64), spacing=(1.5 / 63.0,) * 2, origin=(0.0, 0.0)))


FIXTURES = {"F1": _fixture_f1, "F2": _fixture_f2, "F3": _fixture_f3}


def fixture(name: str, **params):
    """Look up a shipped fixture; returns (immersion, its default grid)."""
    key = name.upper()
    if key not in FIXTURES:
        raise DimensionError(f"unknown fixture {name!r}; available: {sorted(FIXTURES)}")
    return FIXTURES[key](**params)
