import dataclasses
from functools import cached_property

import numpy as np
import pytest

from prodimm.dataio import Dataset
from prodimm.extract import (AnalyticImmersion, ExtractionResult, default_tolerances,
                             extract_all, fixture, induced_second_form, induced_structure)
from prodimm.fields import BundleData, ChartGrid, MetricField, SecondFormField, hessian_field
from prodimm.flatbundle import Geometry
from prodimm.reconstruct import reconstruct_immersion


def flat_torus_f4(r1: float = 0.6, r2: float = 0.8):
    """F4: flat torus S^1(r1) x S^1(r2) in S^3, at the fixed point (0, 1) of H^1.

    Arclength coordinates on F3's grid; k=3, m=1, n=2, p=2.  Unlike F3, its
    second form is not a free parameter: scaling it breaks Gauss.
    """
    def angles(coords):
        return coords[..., 0] / r1, coords[..., 1] / r2, np.zeros(coords.shape[:-1])

    def point(coords):
        a, b, zero = angles(coords)
        return np.stack([r1 * np.cos(a), r1 * np.sin(a), r2 * np.cos(b), r2 * np.sin(b),
                         zero, 1.0 + zero], axis=-1)

    def derivative(coords):
        a, b, zero = angles(coords)
        d1 = np.stack([-np.sin(a), np.cos(a), zero, zero, zero, zero], axis=-1)
        d2 = np.stack([zero, zero, -np.sin(b), np.cos(b), zero, zero], axis=-1)
        return np.stack([d1, d2], axis=-2)

    def second_derivative(coords):
        a, b, zero = angles(coords)
        d11 = np.stack([-np.cos(a) / r1, -np.sin(a) / r1, zero, zero, zero, zero], axis=-1)
        d22 = np.stack([zero, zero, -np.cos(b) / r2, -np.sin(b) / r2, zero, zero], axis=-1)
        d12 = np.zeros_like(d11)
        return np.stack([np.stack([d11, d12], axis=-2), np.stack([d12, d22], axis=-2)],
                        axis=-3)

    imm = AnalyticImmersion(name="F4", k=3, m=1, n=2, point=point,
                            derivative=derivative, second_derivative=second_derivative,
                            params={"r1": r1, "r2": r2})
    h = 1.5 / 63.0
    return imm, ChartGrid(dims=(64, 64), spacing=(h, h), origin=(0.0, 0.0))


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

    def jet(coords):   # X (..., 3), dX (..., a, 3) and d^2X (..., a, b, 3)
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

    def with_h1_block(sphere, y):   # the H^1 block is the point (0, 1), or its zero derivatives
        return np.concatenate([sphere, np.broadcast_to(y, sphere.shape[:-1] + (2,))], axis=-1)

    def point(coords):
        x = jet(coords)[0]
        return with_h1_block(np.einsum("...i,kij,...j->...k", x, forms, x), (0.0, 1.0))

    def derivative(coords):
        x, dx, _ = jet(coords)
        return with_h1_block(2.0 * np.einsum("...i,kij,...aj->...ak", x, forms, dx), 0.0)

    def second_derivative(coords):
        x, dx, ddx = jet(coords)
        return with_h1_block(2.0 * (np.einsum("...ai,kij,...bj->...abk", dx, forms, dx)
                                    + np.einsum("...i,kij,...abj->...abk", x, forms, ddx)), 0.0)

    imm = AnalyticImmersion(name="Veronese", k=4, m=1, n=2, point=point, derivative=derivative,
                            second_derivative=second_derivative, params={})
    grid = ChartGrid(dims=(dims, dims), spacing=(1.0 / (dims - 1), 1.2 / (dims - 1)),
                     origin=(0.5, 0.0))
    return imm, grid


class FixtureBundle:
    """One fixture extracted once per session, plus its geometry and its rebuild."""

    def __init__(self, name, grid=None, use_analytic=True, **params):
        self.immersion, default_grid = (flat_torus_f4(**params) if name == "F4"
                                        else fixture(name, **params))
        self.grid = grid if grid is not None else default_grid
        self.data = extract_all(self.immersion, self.grid, use_analytic=use_analytic)
        self.tolerances = default_tolerances(self.data)

    @cached_property
    def geom(self):
        return geometry_of(self.data)

    @cached_property
    def recon(self):
        return reconstruct_immersion(self.geom, tolerances=self.tolerances)

    def dataset(self):
        return Dataset.from_extraction(self.data)


def reparametrized_f3(theta0: float = 0.8):
    """F3 composed with Phi(x, y) = (x + 0.15 sin 2y, y + 0.1 sin 1.5x), on F3's grid.

    Its metric Phi* g is not the identity (|g - I| reaches 0.45), so the Christoffel
    symbols do not vanish; the derivatives come by the chain rule from F3's jet.
    """
    f3, grid = fixture("F3", theta0=theta0)

    def chart(coords):   # Phi, its Jacobian J[..., a, i] = d_i Phi_a and Hessian H[..., a, i, j]
        x, y = coords[..., 0], coords[..., 1]
        zero = np.zeros_like(x)
        phi = np.stack([x + 0.15 * np.sin(2.0 * y), y + 0.1 * np.sin(1.5 * x)], axis=-1)
        jac = np.stack([1.0 + zero, 0.3 * np.cos(2.0 * y),
                        0.15 * np.cos(1.5 * x), 1.0 + zero], axis=-1)
        hess = np.stack([zero, zero, zero, -0.6 * np.sin(2.0 * y),
                         -0.225 * np.sin(1.5 * x), zero, zero, zero], axis=-1)
        return phi, jac.reshape(x.shape + (2, 2)), hess.reshape(x.shape + (2, 2, 2))

    def derivative(coords):
        phi, jac, _ = chart(coords)
        return np.swapaxes(jac, -1, -2) @ f3.derivative(phi)

    def second_derivative(coords):
        phi, jac, hess = chart(coords)
        return (np.einsum("...ai,...bj,...abN->...ijN", jac, jac, f3.second_derivative(phi))
                + np.einsum("...aij,...aN->...ijN", hess, f3.derivative(phi)))

    imm = AnalyticImmersion(name="F3-reparametrized", k=2, m=2, n=2,
                            point=lambda coords: f3.point(chart(coords)[0]),
                            derivative=derivative, second_derivative=second_derivative,
                            params={"theta0": theta0})
    return imm, grid


def twisted_f3_extraction(dims: int) -> ExtractionResult:
    """F3 ``--fd`` at theta0 0.8 on a dims x dims grid of side 1.5, its normals turned by
    theta = 0.7 x + sin 2y, so omega = d theta J reaches 2; sigma, psi and omega are
    re-read off the turned normals by the extraction's own pairings."""
    imm, _ = fixture("F3", theta0=0.8)
    h = 1.5 / (dims - 1)
    grid = ChartGrid(dims=(dims, dims), spacing=(h, h), origin=(0.0, 0.0))
    data = extract_all(imm, grid, use_analytic=False)
    x, y = np.moveaxis(grid.coords(), -1, 0)
    c, s = np.cos(0.7 * x + np.sin(2.0 * y)), np.sin(0.7 * x + np.sin(2.0 * y))
    normals = np.stack([c, -s, s, c], axis=-1).reshape(grid.dims + (2, 2)) @ data.normals
    psi, bundle = induced_structure(imm.k, data.metric, data.tangents, normals)
    sigma = induced_second_form(grid, hessian_field(grid, data.points), normals)
    return dataclasses.replace(data, normals=normals, bundle=bundle, sigma=sigma, psi=psi)


def twisted_f3(dims: int) -> Dataset:
    """The dataset of ``twisted_f3_extraction(dims)``."""
    return Dataset.from_extraction(twisted_f3_extraction(dims))


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


def refine(grid: ChartGrid) -> ChartGrid:
    dims = tuple(2 * (d - 1) + 1 for d in grid.dims)
    spacing = tuple(s / 2 for s in grid.spacing)
    return ChartGrid(dims=dims, spacing=spacing, origin=grid.origin)


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
