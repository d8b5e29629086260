"""Rank-(n+p+2) Lorentzian bundle, its connection, and the extended structure.

Gauge fixed once for the whole package: the ordered basis of the big bundle is
(coordinate tangents d_1..d_n, bundle frame e_1..e_p, xi1~, xi2~), with the
nodewise Gram matrix G = g (+) I_p (+) diag(1, -1); xi2~ is the single
timelike direction.

Connection matrices are stored as Omega[..., m, C, A]: the covariant
derivative of a section with components v is d_m v + Omega_m v.  Curvature is
F_mn = d_m Omega_n - d_n Omega_m + [Omega_m, Omega_n]; a sign error in either
convention silently breaks the rebuild, so both are asserted by the trivial
constant-structure tests.

``Geometry`` declares the datum (g, E, sigma, psi) once, psi one (*dims, n+p,
n+p) matrix [[f, U], [u, lambda]], and validates it as a whole: one grid, psi
finite and (n+p, n+p) at every node (``fields.check_values``), sigma of rank
p.  ``dataio.Dataset`` and ``extract.ExtractionResult`` are ``Geometry``s, so
this covers every datum loaded or extracted.  It caches what more than one
consumer reads: g(f., .), G and the big connection, plain arrays computed on
first use (``build_connection`` alone reads the Christoffel symbols and shape
operators), so the structure checks, the flat-bundle diagnostics and the
rebuild read one instance per dataset.  psi~ = psi (+) diag(1, -1) is psi held
twice, so it is not cached: ``extend_diagonal`` pads psi as it pads g to G,
grid-wide in ``structure.psi_tilde_derivative_magnitude`` and at the base
node only in the rebuild.

The curvature F of Omega and D psi~ are transient, not cached: the rebuild
keeps the ``Geometry`` alive, so a cached copy of these two largest arrays of
a check would stay resident through it.  No full-size temporary outlives its
use: neither array is ever whole.  ``structure.check_all`` forms each by
blocks of node rows straight into its node-last magnitude
(``structure.chunked_magnitude``; |F| laid out (q, C, A, *dims), |D psi~|
(m, C, A, *dims)), and ``flatness_residual`` and
``psi_tilde_parallel_residual`` take that magnitude and reduce all of it.
|F| is dropped before psi~ and |D psi~| are formed.  F is held over the
direction pairs m < n only (one pair on a 2-dim chart, none on a 1-dim
chart).  The metric-compatibility residual is formed the same way, by blocks
of node rows into its magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, ExclusionError, GridMismatchError, StructureError
from .fields import (BundleData, ChartGrid, MetricField, SecondFormField, check_values,
                     christoffel, grad_field, shape_operator_field)
from .lorentz import complete_basis
from .structure import Report, ToleranceModel, chunked_magnitude, psi_blocks, records

_SNAP = 0.1   # largest distance of the structure's eigenvalues from +-1 at the base


@dataclass(frozen=True, eq=False)
class Geometry:
    """The datum (g, E, sigma, psi), checked as a whole, and its derived arrays, each lazy."""

    metric: MetricField
    bundle: BundleData
    sigma: SecondFormField
    psi: np.ndarray           # (*dims, n+p, n+p) structure matrix [[f, U], [u, lambda]]

    def __post_init__(self):
        grids = {self.metric.grid, self.bundle.grid, self.sigma.grid}
        if len(grids) > 1 or np.shape(self.psi)[:self.grid.ndim] != self.grid.dims:
            raise GridMismatchError("fields live on different grids")
        size = self.grid.ndim + self.p
        object.__setattr__(self, "psi", check_values(self.grid, self.psi, (size, size)))
        if self.sigma.values.shape[-1] != self.p:
            raise DimensionError(f"second form of rank {self.sigma.values.shape[-1]} "
                                 f"on a rank-{self.p} bundle")

    @property
    def grid(self) -> ChartGrid:
        return self.metric.grid

    @property
    def p(self) -> int:
        return self.bundle.rank

    @cached_property
    def f_lowered(self) -> np.ndarray:
        """(..., i, j) = g(f d_i, d_j)."""
        return np.swapaxes(psi_blocks(self.psi, self.grid.ndim)[0], -1, -2) @ self.metric.values

    @cached_property
    def gram(self) -> np.ndarray:
        """(..., N, N) Gram matrix of the big bundle, g (+) I_p (+) diag(1, -1)."""
        return extend_diagonal(self.metric.values, (1.0,) * (self.p + 1) + (-1.0,))

    @cached_property
    def connection(self) -> np.ndarray:
        """(..., m, N, N) big-bundle connection matrices Omega_m."""
        return build_connection(self)


def build_connection(geom: Geometry) -> np.ndarray:
    """Assemble the big-bundle connection matrices; exact, no differencing
    beyond the Christoffel symbols already used for the tangent block.

    Omega is allocated once and each block written into its slice.
    """
    n, p = geom.grid.ndim, geom.p
    f, u, _, _ = psi_blocks(geom.psi, n)
    gv, gf = geom.metric.values, geom.f_lowered
    f_t, half_u = np.swapaxes(f, -1, -2), 0.5 * np.swapaxes(u, -1, -2)
    om = np.zeros(geom.grid.dims + (n, n + p + 2, n + p + 2))
    tan, bun, xi1, xi2 = slice(0, n), slice(n, n + p), n + p, n + p + 1
    # rows and columns: tangents, bundle, xi1~, xi2~
    om[..., tan, tan] = np.swapaxes(christoffel(geom.metric), -3, -2)
    om[..., tan, bun] = -np.swapaxes(shape_operator_field(geom.sigma, geom.metric), -3, -1)
    om[..., tan, xi1] = 0.5 * (np.eye(n) + f_t)
    om[..., tan, xi2] = 0.5 * (np.eye(n) - f_t)
    om[..., bun, tan] = np.swapaxes(geom.sigma.values, -1, -2)
    om[..., bun, bun] = geom.bundle.omega
    om[..., bun, xi1] = half_u
    om[..., bun, xi2] = -half_u
    om[..., xi1, tan] = -0.5 * (gv + gf)
    om[..., xi1, bun] = -half_u
    om[..., xi2, tan] = 0.5 * (gv - gf)
    om[..., xi2, bun] = -half_u
    return om


def metric_compatibility_residual(geom: Geometry, tolerances: ToleranceModel) -> Report:
    """Residual of d_m G = Omega_m^T G + G Omega_m over all nodes/directions.

    Only the g block of G varies, so d_m G is d_m g padded with exact zeros.
    No full-size temporary outlives its use: the residual is formed by blocks
    of node rows, never whole (``structure.chunked_magnitude``).  Within a
    block the products stay whole (N, N) matmuls, subtracted in place in the
    order (d_m G - Omega^T G) - G Omega: a matmul of these small matrices
    costs one call per node and direction whatever its size, and restricting
    the products to the g columns and rows of G adds strided block updates
    that cost more than the smaller products save.
    """
    grid = geom.grid
    n = grid.ndim
    gram = geom.gram[..., None, :, :]
    om = geom.connection
    d_metric = grad_field(grid, geom.metric.values)

    def residual(rows):
        resid = np.zeros(om[rows].shape)
        resid[..., :n, :n] = d_metric[rows]
        resid -= np.swapaxes(om[rows], -1, -2) @ gram[rows]
        resid -= gram[rows] @ om[rows]
        return resid
    return records(grid, tolerances, ("bundle_metric_compatibility",
                                      chunked_magnitude(grid, om.shape[n:], residual)))


def flatness_residual(geom: Geometry, tolerances: ToleranceModel,
                      curv_mag: np.ndarray) -> Report:
    """All of |F| (q, C, A, *dims) over the direction pairs m < n; vacuous pass on 1-dim charts."""
    return records(geom.grid, tolerances, ("bundle_flatness", curv_mag))


def extend_diagonal(block: np.ndarray, tail: tuple) -> np.ndarray:
    """block (+) diag(tail) of a (..., r, r) block: zero off the two diagonal blocks."""
    r = block.shape[-1]
    size = r + len(tail)
    out = np.zeros(block.shape[:-2] + (size, size))
    out[..., :r, :r] = block
    idx = np.arange(r, size)
    out[..., idx, idx] = tail
    return out


def build_psi_tilde(psi: np.ndarray) -> np.ndarray:
    """Pad the structure matrix (..., n+p, n+p) with +1 on xi1~ and -1 on xi2~."""
    return extend_diagonal(psi, (1.0, -1.0))


def psi_tilde_parallel_residual(geom: Geometry, tolerances: ToleranceModel,
                                d_psi_mag: np.ndarray) -> Report:
    """Residual of D psi~ = d_m psi~ + [Omega_m, psi~] = 0, all of |D psi~| (m, C, A, *dims)."""
    return records(geom.grid, tolerances, ("psi_tilde_parallel", d_psi_mag))


def eigen_split(psi_tilde_node: np.ndarray, gram_node: np.ndarray, n: int, p: int):
    """Split the big bundle at one node into the two structure eigenspaces.

    Returns (k, B1, B2) where B1 has k+1 G-orthonormal columns in the +1
    eigenspace with xi1~ last, and B2 has n+p-k+1 columns in the -1 eigenspace
    with the timelike xi2~ last.
    """
    size = n + p + 2
    pt = np.asarray(psi_tilde_node, dtype=float)
    if pt.shape != (size, size):
        raise StructureError(f"expected a {size}x{size} structure matrix")
    inv_defect = float(np.abs(pt @ pt - np.eye(size)).max())
    if inv_defect > 2.0 * _SNAP:
        raise StructureError(f"structure is not an involution (defect {inv_defect:.3e})")
    eigs = np.linalg.eigvals(pt)
    if np.abs(eigs.imag).max() > _SNAP or np.abs(np.abs(eigs.real) - 1.0).max() > _SNAP:
        raise StructureError(f"structure spectrum not within {_SNAP} of +-1: {eigs}")
    k_plus_1 = int((eigs.real > 0).sum())
    k = k_plus_1 - 1
    if not 1 <= k <= n + p - 1:
        raise ExclusionError(
            f"eigenvalue split gives k = {k}; the plus/minus identity structure "
            "is outside the reconstructible class")

    blocks = []
    # the eigenspace projectors applied to the canonical vectors, completed in
    # index order after xi1~ (+1) or the timelike xi2~ (-1), which closes the block
    for sign, count, fixed in ((1.0, k, np.eye(size)[n + p]),
                               (-1.0, n + p - k, np.eye(size)[n + p + 1])):
        found = complete_basis(0.5 * (np.eye(size) + sign * pt).T, count, gram_node,
                               (fixed,), tol=1e-8)
        if len(found) != count:
            raise StructureError(
                f"could not complete an eigenbasis: found {len(found)} of {count}")
        blocks.append(np.stack(found + [fixed], axis=1))
    return k, blocks[0], blocks[1]
