import dataclasses
from functools import cached_property
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest

from prodimm.extract import (FIXTURES, ExtractionResult, _jet_fixture, extract_all,
                             induced_second_form, induced_structure)
from prodimm.fields import BundleData, ChartGrid, MetricField, SecondFormField, hessian_field
from prodimm.flatbundle import Geometry
from prodimm.reconstruct import reconstruct_immersion
from prodimm.structure import RECORD_NAMES, ToleranceModel, psi_blocks


def flat_torus_f4(r1: float = 0.6, r2: float = 0.8):
    """F4: flat torus S^1(r1) x S^1(r2) in S^3, at the fixed point (0, 1) of H^1.

    Arclength coordinates on F3's grid; k=3, m=1, n=2, p=2.  Unlike F3, its
    second form is not a free parameter: scaling it breaks Gauss.
    """
    def jet(coords, order):   # axis a: the circle of radius r in sphere slots 2a, 2a + 1
        out = np.zeros(coords.shape[:-1] + (2,) * order + (6,))
        for axis, r in enumerate((r1, r2)):
            c, s = np.cos(coords[..., axis] / r), np.sin(coords[..., axis] / r)
            out[(Ellipsis,) + (axis,) * order + (slice(2 * axis, 2 * axis + 2),)] = np.stack(
                ((r * c, r * s), (-s, c), (-c / r, -s / r))[order], axis=-1)
        if order == 0:
            out[..., 5] = 1.0   # the fixed point (0, 1) of H^1
        return out

    return _jet_fixture("F4", 3, 1, 2, jet, {"r1": r1, "r2": r2},
                        ChartGrid(dims=(64, 64), spacing=(1.5 / 63.0,) * 2, origin=(0.0, 0.0)))


def veronese(dims: int = 65):
    """The Veronese surface: the minimal immersion of S^2(sqrt 3) into S^4, at the fixed point
    (0, 1) of H^1; k=4, m=1, n=2, p=3.

    Chart (theta, phi) in [0.5, 1.5] x [0, 1.2] on dims x dims nodes, where
    g = diag(3, 3 sin^2 theta), so the Christoffel symbols do not vanish, and the normal
    bundle is curved.  Each sphere coordinate is a quadratic form u_k = X^T A_k X of the point
    X of S^2(sqrt 3), so du = 2 X^T A dX and d^2u = 2 (dX^T A dX + X^T A d^2X).
    """
    c = 1.0 / (2.0 * np.sqrt(3.0))
    forms = np.zeros((5, 3, 3))
    forms[0, 1, 2] = forms[0, 2, 1] = c            # yz / sqrt 3
    forms[1, 0, 2] = forms[1, 2, 0] = c            # xz / sqrt 3
    forms[2, 0, 1] = forms[2, 1, 0] = c            # xy / sqrt 3
    forms[3] = np.diag([c, -c, 0.0])               # (x^2 - y^2) / (2 sqrt 3)
    forms[4] = np.diag([1.0, 1.0, -2.0]) / 6.0     # (x^2 + y^2 - 2 z^2) / 6

    def sphere_jet(coords):   # X (..., 3), dX (..., a, 3) and d^2X (..., a, b, 3)
        theta, phi = coords[..., 0], coords[..., 1]
        st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
        zero = np.zeros_like(theta)
        x = np.sqrt(3.0) * np.stack([st * cp, st * sp, ct], axis=-1)
        d_theta = np.sqrt(3.0) * np.stack([ct * cp, ct * sp, -st], axis=-1)
        d_phi = np.sqrt(3.0) * np.stack([-st * sp, st * cp, zero], axis=-1)
        d_theta_phi = np.sqrt(3.0) * np.stack([-ct * sp, ct * cp, zero], axis=-1)
        d_phi_phi = np.sqrt(3.0) * np.stack([-st * cp, -st * sp, zero], axis=-1)
        return x, np.stack([d_theta, d_phi], axis=-2), np.stack(
            [np.stack([-x, d_theta_phi], axis=-2), np.stack([d_theta_phi, d_phi_phi], axis=-2)],
            axis=-3)

    def jet(coords, order):
        x, dx, ddx = sphere_jet(coords)
        if order == 0:
            u = np.einsum("...i,kij,...j->...k", x, forms, x)
        elif order == 1:
            u = 2.0 * np.einsum("...i,kij,...aj->...ak", x, forms, dx)
        else:
            u = 2.0 * (np.einsum("...ai,kij,...bj->...abk", dx, forms, dx)
                       + np.einsum("...i,kij,...abj->...abk", x, forms, ddx))
        y = np.zeros(u.shape[:-1] + (2,))
        y[..., 1] = 1.0 if order == 0 else 0.0   # the fixed point (0, 1) of H^1
        return np.concatenate([u, y], axis=-1)

    return _jet_fixture("Veronese", 4, 1, 2, jet, {},
                        ChartGrid(dims=(dims, dims), spacing=(1.0 / (dims - 1), 1.2 / (dims - 1)),
                                  origin=(0.5, 0.0)))


class FixtureBundle:
    """One fixture extracted once per session, plus its geometry and its rebuild."""

    def __init__(self, name, grid=None, use_analytic=True, **params):
        self.immersion, default_grid = (flat_torus_f4(**params) if name == "F4"
                                        else FIXTURES[name](**params))
        self.grid = grid if grid is not None else default_grid
        self.data = extract_all(self.immersion, self.grid, use_analytic=use_analytic)
        self.tolerances = self.data.tolerances

    @cached_property
    def geom(self):
        return geometry_of(self.data)

    @cached_property
    def recon(self):
        return reconstruct_immersion(self.geom, tolerances=self.tolerances)


def reparametrized_f3(theta0: float = 0.8):
    """F3 composed with Phi(x, y) = (x + 0.15 sin 2y, y + 0.1 sin 1.5x), on F3's grid.

    Its metric Phi* g is not the identity (|g - I| reaches 0.45), so the Christoffel
    symbols do not vanish; the derivatives come by the chain rule from F3's jet.
    """
    f3, grid = FIXTURES["F3"](theta0=theta0)

    def chart(coords):   # Phi, its Jacobian J[..., a, i] = d_i Phi_a and Hessian H[..., a, i, j]
        x, y = coords[..., 0], coords[..., 1]
        zero = np.zeros_like(x)
        phi = np.stack([x + 0.15 * np.sin(2.0 * y), y + 0.1 * np.sin(1.5 * x)], axis=-1)
        jac = np.stack([1.0 + zero, 0.3 * np.cos(2.0 * y),
                        0.15 * np.cos(1.5 * x), 1.0 + zero], axis=-1)
        hess = np.stack([zero, zero, zero, -0.6 * np.sin(2.0 * y),
                         -0.225 * np.sin(1.5 * x), zero, zero, zero], axis=-1)
        return phi, jac.reshape(x.shape + (2, 2)), hess.reshape(x.shape + (2, 2, 2))

    def jet(coords, order):
        phi, jac, hess = chart(coords)
        if order == 0:
            return f3.point(phi)
        if order == 1:
            return np.swapaxes(jac, -1, -2) @ f3.derivative(phi)
        return (np.einsum("...ai,...bj,...abN->...ijN", jac, jac, f3.second_derivative(phi))
                + np.einsum("...aij,...aN->...ijN", hess, f3.derivative(phi)))

    return _jet_fixture("F3-reparametrized", 2, 2, 2, jet, {"theta0": theta0}, grid)


def twisted_f3(dims: int) -> ExtractionResult:
    """F3 ``--fd`` at theta0 0.8 on a dims x dims grid of side 1.5, its normals turned by
    theta = 0.7 x + sin 2y, so omega = d theta J reaches 2; sigma, psi and omega are
    re-read off the turned normals by the extraction's own pairings."""
    imm, _ = FIXTURES["F3"](theta0=0.8)
    h = 1.5 / (dims - 1)
    grid = ChartGrid(dims=(dims, dims), spacing=(h, h), origin=(0.0, 0.0))
    data = extract_all(imm, grid, use_analytic=False)
    x, y = np.moveaxis(grid.coords(), -1, 0)
    c, s = np.cos(0.7 * x + np.sin(2.0 * y)), np.sin(0.7 * x + np.sin(2.0 * y))
    normals = np.stack([c, -s, s, c], axis=-1).reshape(grid.dims + (2, 2)) @ data.normals
    psi, bundle = induced_structure(imm.k, data.metric, data.tangents, normals)
    sigma = induced_second_form(grid, hessian_field(grid, data.points), normals)
    return dataclasses.replace(data, normals=normals, bundle=bundle, sigma=sigma, psi=psi)


def geometry_of(data: Geometry) -> Geometry:
    """A plain geometry over the same arrays as ``data``, with a cache of its own."""
    return Geometry(data.metric, data.bundle, data.sigma, data.psi)


def with_derived(geom: Geometry, **derived) -> Geometry:
    """A fresh geometry of the same data whose named derived quantities are given."""
    unknown = [name for name in derived
               if not isinstance(getattr(Geometry, name, None), cached_property)]
    assert not unknown, f"Geometry caches no {unknown}"   # an injected value would go unread
    out = geometry_of(geom)
    vars(out).update(derived)   # a cached property reads the instance dict first
    return out


def random_geometry(seed: int, dims: tuple, p: int) -> Geometry:
    """Seeded data of the right slot kinds, with no symmetry the kinds do not impose."""
    rng = np.random.default_rng(seed)
    n = len(dims)
    grid = ChartGrid(dims=dims, spacing=tuple(0.1 + 0.05 * a for a in range(n)),
                     origin=(0.0,) * n)
    a = rng.normal(size=dims + (n, n))
    metric = MetricField(grid, a @ np.swapaxes(a, -1, -2) + 2.0 * np.eye(n))
    s = rng.normal(size=dims + (n, n, p))
    sigma = SecondFormField(grid, s + np.swapaxes(s, -3, -2))
    om = rng.normal(size=dims + (n, p, p))
    bundle = BundleData(grid, om - np.swapaxes(om, -1, -2))
    f, u, big_u, lam = (rng.normal(size=dims + shape)
                        for shape in ((n, n), (p, n), (n, p), (p, p)))
    psi = np.block([[f, big_u], [u, lam]])
    return Geometry(metric, bundle, sigma, psi)


def constant_structure(grid, f_val=-0.28, u_val=0.96):
    """Flat 1-dim chart with a constant compatible structure (f^2 + u^2 = 1)."""
    dims = grid.dims
    g = MetricField(grid, np.ones(dims + (1, 1)))
    bundle = BundleData(grid, np.zeros(dims + (1, 1, 1)))
    sigma = SecondFormField(grid, np.zeros(dims + (1, 1, 1)))
    psi = np.tile([[f_val, u_val], [u_val, -f_val]], dims + (1, 1))
    return g, bundle, sigma, psi


def edited(geom: Geometry, field: str, slot, change) -> Geometry:
    """A fresh geometry of copies of ``geom``'s datum, whose ``field`` (metric, omega, sigma,
    or the block f, u, U or lambda of psi) holds ``change(values, grid)`` at ``slot``."""
    grid, psi = geom.grid, geom.psi.copy()
    arrays = dict(zip(("f", "u", "U", "lambda"), psi_blocks(psi, grid.ndim)),
                  metric=geom.metric.values.copy(), omega=geom.bundle.omega.copy(),
                  sigma=geom.sigma.values.copy())
    arrays[field][slot] = change(arrays[field][slot], grid)
    return Geometry(MetricField(grid, arrays["metric"]), BundleData(grid, arrays["omega"]),
                    SecondFormField(grid, arrays["sigma"]), psi)


class Planted(NamedTuple):
    """A fault planted in the datum of the session fixture ``fixture``: the ``check`` records
    it fails, judged by the fixture's own tolerances, and bounds (low, high) on the max_abs
    of named records.  ``edit`` is (field, slot, change) of :func:`edited`, () for none."""
    fixture: str
    edit: tuple
    fails: set
    values: dict = {}

    def geometry(self, geom: Geometry) -> Geometry:
        return edited(geom, *self.edit) if self.edit else geom


def _near(value):
    return value * (1 - 1e-6), value * (1 + 1e-6)


def _omega_bump(omega, grid):   # 1e-2 sin(2 pi t2 / W) J, W the chart's width along t2
    width = grid.spacing[1] * (grid.dims[1] - 1)
    bump = 1e-2 * np.sin(2 * np.pi * grid.coords()[..., 1] / width)
    return omega + bump[..., None, None] * np.array([[0.0, 1.0], [-1.0, 0.0]])


PLANTED = {   # F1 on a curve, F2 a latitude circle, F3 a product surface at theta0 = pi/4
    "constant": Planted("constant", (), set(), dict.fromkeys(RECORD_NAMES[:15], (0.0, 1e-12))),
    "f_scaled": Planted("f2", ("f", ..., lambda f, grid: 1.01 * f),
                        {"psi_involution_tangent", "psi_parallel_u", "psi_parallel_U",
                         "psi_tilde_parallel"},
                        {"psi_involution_tangent": _near(0.0201)}),
    "u_varies": Planted("f2", ("u", (..., 0, 0),
                               lambda u, grid: u + 1e-3 * np.sin(2.0 * grid.coords()[..., 0])),
                        {"psi_u_U_adjoint", "psi_involution_bundle", "psi_parallel_u",
                         "psi_tilde_parallel"},
                        {"psi_parallel_u": (5e-4, np.inf)}),
    "lambda_shifted": Planted("f2", ("lambda", (..., 0, 0), lambda lam, grid: lam + 0.05),
                              {"psi_involution_bundle", "psi_parallel_u", "psi_parallel_U",
                               "psi_tilde_parallel"}),
    # on a 1-dim chart the antisymmetrized equations cannot see u: Codazzi passes
    "u_negated": Planted("f1", ("u", ..., lambda u, grid: -u),
                         {"psi_u_U_adjoint", "psi_involution_tangent", "psi_involution_bundle",
                          "psi_tilde_parallel"}),
    "sigma_slot": Planted("f3", ("sigma", (..., 1, 1, 0), lambda s, grid: s + 1e-2),
                          {"psi_parallel_u", "psi_parallel_U", "gauss", "bundle_flatness",
                           "psi_tilde_parallel"},
                          {"gauss": _near(1e-2 / np.tan(np.pi / 4)),
                           "bundle_flatness": (5e-3, np.inf)}),
    "u_shift": Planted("f3", ("u", (..., 0, 0), lambda u, grid: u + 1e-2),
                       {"psi_u_U_adjoint", "psi_involution_bundle", "psi_parallel_f",
                        "psi_parallel_lambda", "codazzi", "psi_tilde_parallel"},
                       {"codazzi": _near(1e-2)}),
    "omega_bump": Planted("f3", ("omega", np.s_[..., 0, :, :], _omega_bump),
                          {"psi_parallel_lambda", "ricci", "bundle_flatness",
                           "psi_tilde_parallel"},
                          {"ricci": (1e-2, np.inf)}),
    "f_asymmetric": Planted("f3", ("f", (..., 0, 1), lambda f, grid: f + 1e-3),
                            {"psi_f_symmetric"}),
    "lambda_asymmetric": Planted("f3", ("lambda", (..., 0, 1), lambda lam, grid: lam + 1e-3),
                                 {"psi_lambda_symmetric"}),
}


def refine(grid: ChartGrid) -> ChartGrid:
    dims = tuple(2 * (d - 1) + 1 for d in grid.dims)
    spacing = tuple(s / 2 for s in grid.spacing)
    return ChartGrid(dims=dims, spacing=spacing, origin=grid.origin)


@pytest.fixture(scope="session")
def constant():
    """constant_structure on 16 nodes, every record held to 1e-12."""
    grid = ChartGrid(dims=(16,), spacing=(0.05,), origin=(0.0,))
    return SimpleNamespace(geom=Geometry(*constant_structure(grid)),
                           tolerances=ToleranceModel(factor=0.0, floor=1e-12, algebraic=None))


@pytest.fixture(scope="session")
def f1():
    return FixtureBundle("F1")


@pytest.fixture(scope="session")
def f2():
    return FixtureBundle("F2")


@pytest.fixture(scope="session")
def f3():
    return FixtureBundle("F3")


@pytest.fixture(scope="session")
def f4():
    return FixtureBundle("F4")


@pytest.fixture(scope="session")
def f1_fd():
    return FixtureBundle("F1", use_analytic=False)


@pytest.fixture(scope="session")
def f2_fd():
    return FixtureBundle("F2", use_analytic=False)


@pytest.fixture(scope="session")
def f3_fd():
    return FixtureBundle("F3", use_analytic=False)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
