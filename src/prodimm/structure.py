"""The product structure and the compatibility-equation checkers.

The structure psi on TM + E is one node-major (*dims, n+p, n+p) matrix
[[f, U], [u, lambda]] in the basis (d_1..d_n, e_1..e_p): f (n, n) the tangent
endomorphism, u (p, n) tangent -> bundle, U (n, p) bundle -> tangent and
lambda (p, p) the bundle endomorphism, each a slice (``psi_blocks``).

The checked identities, in the index conventions of :mod:`prodimm.fields`
(A[..., a, i, j] denotes the shape operator of the a-th bundle frame vector):

* algebra: f and lambda symmetric, u/U metric-adjoint, and the two block
  rows of "the structure squares to the identity";
* parallelism: the four blocks of D psi = d psi + [Gamma (+) omega, psi]
  tied to the second form and the shape operators;
* Gauss / Codazzi / Ricci: curvature of the metric, antisymmetrized
  derivative of the second form, and bundle curvature against the
  shape-operator commutator, each with its product-structure source term.

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

from .fields import (ChartGrid, antisymmetrize, bundle_curvature, curvature_tensor,
                     endomorphism_derivative, sum_bundle_covariant_derivative)

if TYPE_CHECKING:
    from .flatbundle import Geometry

ALGEBRAIC_CHECKS = frozenset({
    "psi_f_symmetric", "psi_lambda_symmetric", "psi_u_U_adjoint",
    "psi_involution_tangent", "psi_involution_bundle",
})


class StructureWarning(UserWarning):
    """Diagnostic for data touching the excluded identity structure."""


@dataclass(frozen=True)
class ToleranceModel:
    """Pass thresholds: differencing checks scale with h^2, algebra does not."""

    factor: float = 10.0
    floor: float = 1e-8
    algebraic: float = 1e-10
    overrides: dict = dataclass_field(default_factory=dict)

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
        records = []
        for rep in reports:
            records.extend(rep.records)
        return cls(records=tuple(records))


def make_record(name: str, residual: np.ndarray, grid: ChartGrid,
                threshold: float) -> CheckRecord:
    """Reduce a (*dims, *free) residual array to a report record."""
    magnitude = np.abs(residual)
    nodewise = magnitude.reshape(grid.dims + (-1,)).max(axis=-1)
    argmax = tuple(int(i) for i in np.unravel_index(int(nodewise.argmax()), grid.dims))
    max_abs = float(nodewise.max())
    return CheckRecord(name=name, max_abs=max_abs,
                       mean_abs=float(magnitude.mean()),
                       argmax_node=argmax, threshold=float(threshold),
                       passed=bool(max_abs <= threshold))


def records(grid: ChartGrid, tolerances: ToleranceModel, *named) -> ResidualReport:
    """One record per (name, residual) pair, each against its threshold on ``grid``."""
    return ResidualReport(tuple(make_record(name, resid, grid, tolerances.threshold(name, grid))
                                for name, resid in named))


def psi_blocks(psi: np.ndarray, n: int) -> tuple:
    """Views (f, u, U, lambda) of a (..., n+p, n+p) matrix laid out [[f, U], [u, lambda]]."""
    return psi[..., :n, :n], psi[..., n:, :n], psi[..., :n, n:], psi[..., n:, n:]


def identity_structure_nodes(psi: np.ndarray, tol: float = 1e-8) -> int:
    """Count nodes where the structure matrix is within tol of plus or minus identity."""
    ident = np.eye(psi.shape[-1])
    return sum(int((np.abs(psi - sign * ident).max(axis=(-2, -1)) <= tol).sum())
               for sign in (1.0, -1.0))


def check_psi_algebra(geom: Geometry,
                      tolerances: ToleranceModel | None = None) -> ResidualReport:
    """Symmetry, adjointness and involution residuals (exact linear algebra)."""
    tolerances = tolerances or ToleranceModel()
    psi = geom.psi
    n = geom.grid.ndim
    _, u, big_u, lam = psi_blocks(psi, n)
    gf = geom.f_lowered                                  # g(f d_i, d_j)
    square = psi @ psi - np.eye(psi.shape[-1])

    n_id = identity_structure_nodes(psi)
    if n_id:
        warnings.warn(f"structure within 1e-8 of plus/minus identity at {n_id} node(s); "
                      "such data is outside the reconstructible class", StructureWarning)

    return records(
        geom.grid, tolerances,
        ("psi_f_symmetric", gf - np.swapaxes(gf, -1, -2)),
        ("psi_lambda_symmetric", lam - np.swapaxes(lam, -1, -2)),
        ("psi_u_U_adjoint", u - np.swapaxes(geom.metric.values @ big_u, -1, -2)),
        ("psi_involution_tangent", square[..., :n, :]),
        ("psi_involution_bundle", square[..., n:, :]))


def check_psi_parallel(geom: Geometry,
                       tolerances: ToleranceModel | None = None) -> ResidualReport:
    """Residuals of the four parallel-structure identities.

    D_m psi = d_m psi + [C_m, psi] with C_m = Gamma_m (+) omega_m is formed
    once; each identity reads its block of it.
    """
    tolerances = tolerances or ToleranceModel()
    grid = geom.grid
    n = grid.ndim
    size = n + geom.p
    conn = np.zeros(grid.dims + (n, size, size))
    conn[..., :n, :n] = np.swapaxes(geom.chris, -3, -2)    # (..., m, l, s) = Gamma^l_ms
    conn[..., n:, n:] = geom.bundle.omega
    d_f, d_u, d_big_u, d_lam = psi_blocks(endomorphism_derivative(grid, geom.psi, conn), n)
    del conn
    # (..., m, i, a) = A[a, i, m] and (..., m, a, j) = sigma[m, j, a]
    shape_t = np.swapaxes(geom.shape_ops, -3, -1)
    sigma_t = np.swapaxes(geom.sigma.values, -1, -2)
    f, u, big_u, lam = (blk[..., None, :, :] for blk in psi_blocks(geom.psi, n))
    return records(
        grid, tolerances,
        ("psi_parallel_f", d_f - shape_t @ u - big_u @ sigma_t),
        ("psi_parallel_u", d_u - lam @ sigma_t + sigma_t @ f),
        ("psi_parallel_U", d_big_u - shape_t @ lam + f @ shape_t),
        ("psi_parallel_lambda", d_lam + sigma_t @ big_u + u @ shape_t))


def check_gauss(geom: Geometry,
                tolerances: ToleranceModel | None = None) -> ResidualReport:
    """Curvature against shape-operator terms plus the structure source."""
    tolerances = tolerances or ToleranceModel()
    n = geom.grid.ndim
    riem = curvature_tensor(geom.metric, geom.chris)     # (..., i, r, m, n)
    shape_t = np.swapaxes(geom.shape_ops, -3, -1)        # (..., m, i, a) = A[a, i, m]
    sigma_t = np.swapaxes(geom.sigma.values, -1, -2)     # (..., n, a, r) = sigma[n, r, a]
    f_t = np.swapaxes(psi_blocks(geom.psi, n)[0], -1, -2)   # (..., m, i) = f[i, m]
    gv, gf = geom.metric.values, geom.f_lowered          # (..., n, r)
    # R[i, r, m, n] = A_(sigma(d_n, d_r)) d_m + (1/2)(g(d_n, d_r) f d_m + g(f d_n, d_r) d_m)
    #                 - (m <-> n), laid out (m, n, i, r)
    half = (shape_t[..., :, None, :, :] @ sigma_t[..., None, :, :, :]
            + 0.5 * (f_t[..., :, None, :, None] * gv[..., None, :, None, :]
                     + np.eye(n)[:, None, :, None] * gf[..., None, :, None, :]))
    rhs = np.moveaxis(antisymmetrize(half), (-2, -1), (-4, -3))
    return records(geom.grid, tolerances, ("gauss", riem - rhs))


def check_codazzi(geom: Geometry,
                  tolerances: ToleranceModel | None = None) -> ResidualReport:
    """Antisymmetrized derivative of the second form against the u source."""
    tolerances = tolerances or ToleranceModel()
    d_sigma = sum_bundle_covariant_derivative(geom.grid, geom.sigma.values, ("td", "td", "bu"),
                                              geom.chris, geom.bundle.omega)   # (..., m, n, r, a)
    u_t = np.swapaxes(psi_blocks(geom.psi, geom.grid.ndim)[1], -1, -2)   # (..., m, a) = u[a, m]
    # 2 D_m sigma(d_n, d_r) - g(d_n, d_r) u(d_m) - (m <-> n)
    half = 2.0 * d_sigma - geom.metric.values[..., None, :, :, None] * u_t[..., :, None, None, :]
    return records(geom.grid, tolerances, ("codazzi", antisymmetrize(half)))


def check_ricci(geom: Geometry,
                tolerances: ToleranceModel | None = None) -> ResidualReport:
    """Bundle curvature against the shape-operator commutator."""
    tolerances = tolerances or ToleranceModel()
    curv = bundle_curvature(geom.bundle)                 # (..., m, n, a, b)
    sigma_m = np.moveaxis(geom.sigma.values, -3, -1)     # (..., m, a, k) = sigma[k, m, a]
    shape_t = np.swapaxes(geom.shape_ops, -3, -1)        # (..., n, k, b) = A[b, k, n]
    half = sigma_m[..., :, None, :, :] @ shape_t[..., None, :, :, :]
    return records(geom.grid, tolerances, ("ricci", curv - antisymmetrize(half)))


def check_all(geom: Geometry,
              tolerances: ToleranceModel | None = None) -> ResidualReport:
    """Every structure-module check, merged into one report."""
    tolerances = tolerances or ToleranceModel()
    return ResidualReport.merge(
        check_psi_algebra(geom, tolerances),
        check_psi_parallel(geom, tolerances),
        check_gauss(geom, tolerances),
        check_codazzi(geom, tolerances),
        check_ricci(geom, tolerances),
    )
