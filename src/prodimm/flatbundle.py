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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExclusionError, StructureError
from .fields import (BundleData, ChartGrid, MetricField, SecondFormField, christoffel,
                     connection_curvature, grad_field, same_grid, shape_operator_field)
from .lorentz import complete_basis, eta
from .structure import ProductStructureField, ResidualReport, ToleranceModel, make_record


@dataclass(frozen=True)
class FlatBundleGauge:
    """Nodewise Gram matrix of the big bundle in the fixed gauge."""

    grid: ChartGrid
    n: int
    p: int
    gram: np.ndarray  # (*dims, N, N)

    @property
    def size(self) -> int:
        return self.n + self.p + 2

    @property
    def signature(self) -> np.ndarray:
        return eta(self.size)

    @classmethod
    def from_metric(cls, g: MetricField, p: int) -> "FlatBundleGauge":
        grid = g.grid
        n = grid.ndim
        size = n + p + 2
        gram = np.zeros(grid.dims + (size, size))
        gram[..., :n, :n] = g.values
        idx = np.arange(n, size)
        gram[..., idx, idx] = 1.0
        gram[..., -1, -1] = -1.0
        return cls(grid=grid, n=n, p=p, gram=gram)


@dataclass(frozen=True)
class FlatBundleConnection:
    grid: ChartGrid
    values: np.ndarray  # (*dims, n, N, N)


@dataclass(frozen=True)
class PsiTildeField:
    grid: ChartGrid
    values: np.ndarray  # (*dims, N, N)


def build_connection(g: MetricField, bundle: BundleData, sigma: SecondFormField,
                     psi: ProductStructureField) -> FlatBundleConnection:
    """Assemble the big-bundle connection matrices; exact, no differencing
    beyond the Christoffel symbols already used for the tangent block."""
    same_grid(g, bundle.omega, sigma, psi.f)
    grid = g.grid
    n, p = grid.ndim, bundle.rank
    size = n + p + 2
    i1, i2 = n + p, n + p + 1

    chris = christoffel(g).values
    shape_ops = shape_operator_field(sigma, g)      # (..., a, i, m)
    f, u = psi.f.values, psi.u.values
    gv = g.values
    gf = np.einsum("...kj,...km->...mj", gv, f)     # g(f d_m, d_j)
    ident = np.eye(n)

    om = np.zeros(grid.dims + (n, size, size))
    # tangent columns
    om[..., :n, :n] = np.einsum("...kmj->...mkj", chris)
    om[..., n:n + p, :n] = np.einsum("...mja->...maj", sigma.values)
    om[..., i1, :n] = -0.5 * (gv + gf)
    om[..., i2, :n] = 0.5 * (gv - gf)
    # bundle columns
    om[..., :n, n:n + p] = -np.einsum("...bkm->...mkb", shape_ops)
    om[..., n:n + p, n:n + p] = bundle.omega.values
    om[..., i1, n:n + p] = -0.5 * np.einsum("...bm->...mb", u)
    om[..., i2, n:n + p] = -0.5 * np.einsum("...bm->...mb", u)
    # the two trivial-factor columns
    om[..., :n, i1] = 0.5 * (ident + np.einsum("...km->...mk", f))
    om[..., n:n + p, i1] = 0.5 * np.einsum("...am->...ma", u)
    om[..., :n, i2] = 0.5 * (ident - np.einsum("...km->...mk", f))
    om[..., n:n + p, i2] = -0.5 * np.einsum("...am->...ma", u)
    return FlatBundleConnection(grid=grid, values=om)


def metric_compatibility_residual(conn: FlatBundleConnection, gauge: FlatBundleGauge,
                                  tolerances: ToleranceModel | None = None) -> ResidualReport:
    """Residual of d_m G = Omega_m^T G + G Omega_m over all nodes/directions."""
    tolerances = tolerances or ToleranceModel()
    grid = conn.grid
    dgram = grad_field(grid, gauge.gram)            # (..., m, A, B)
    om = conn.values
    resid = (dgram - np.einsum("...mca,...cb->...mab", om, gauge.gram)
             - np.einsum("...ac,...mcb->...mab", gauge.gram, om))
    name = "bundle_metric_compatibility"
    return ResidualReport((make_record(name, resid, grid,
                                       tolerances.threshold(name, grid)),))


def flatness_residual(conn: FlatBundleConnection,
                      tolerances: ToleranceModel | None = None) -> ResidualReport:
    """Curvature of the big-bundle connection; vacuous pass on 1-dim charts."""
    tolerances = tolerances or ToleranceModel()
    grid = conn.grid
    name = "bundle_flatness"
    threshold = tolerances.threshold(name, grid)
    if grid.ndim == 1:
        return ResidualReport((make_record(name, np.zeros(grid.dims), grid, threshold),))
    curv = connection_curvature(grid, conn.values)
    pairs = [curv[..., m, n, :, :] for m in range(grid.ndim)
             for n in range(m + 1, grid.ndim)]
    resid = np.stack(pairs, axis=-1)
    return ResidualReport((make_record(name, resid, grid, threshold),))


def build_psi_tilde(psi: ProductStructureField) -> PsiTildeField:
    """Extend the structure by +1 on xi1~ and -1 on xi2~."""
    grid = psi.grid
    n, p = psi.n, psi.p
    size = n + p + 2
    vals = np.zeros(grid.dims + (size, size))
    vals[..., :n + p, :n + p] = psi.block_matrix()
    vals[..., n + p, n + p] = 1.0
    vals[..., n + p + 1, n + p + 1] = -1.0
    return PsiTildeField(grid=grid, values=vals)


def psi_tilde_parallel_residual(conn: FlatBundleConnection, psi_tilde: PsiTildeField,
                                tolerances: ToleranceModel | None = None) -> ResidualReport:
    """Residual of d_m psi~ + [Omega_m, psi~] = 0."""
    tolerances = tolerances or ToleranceModel()
    grid = conn.grid
    pt = psi_tilde.values
    dpt = grad_field(grid, pt)
    resid = (dpt + np.einsum("...mac,...cb->...mab", conn.values, pt)
             - np.einsum("...ac,...mcb->...mab", pt, conn.values))
    name = "psi_tilde_parallel"
    return ResidualReport((make_record(name, resid, grid,
                                       tolerances.threshold(name, grid)),))


def eigen_split(psi_tilde_node: np.ndarray, gram_node: np.ndarray, n: int, p: int,
                snap: float = 0.1):
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
    if inv_defect > 2.0 * snap:
        raise StructureError(f"structure is not an involution (defect {inv_defect:.3e})")
    eigs = np.linalg.eigvals(pt)
    if np.abs(eigs.imag).max() > snap or np.abs(np.abs(eigs.real) - 1.0).max() > snap:
        raise StructureError(f"structure spectrum not within {snap} of +-1: {eigs}")
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
