import dataclasses

import numpy as np
import pytest

from prodimm.cli import check_dataset
from prodimm.errors import ConstraintError, DegeneracyError, DimensionError, MetricError
from prodimm.extract import (FIXTURES, AnalyticImmersion, extract_all,
                             immersion_points, immersion_tangents, induced_metric,
                             induced_normal_frame, induced_second_form, induced_structure)
from prodimm.fields import ChartGrid, argmax_node, hessian_field
from prodimm.lorentz import minkowski_dot
from prodimm.structure import psi_blocks

from conftest import FixtureBundle, refine, reparametrized_f3, veronese
from sweep_oracles import first_swept, per_edge_normal_frame


@pytest.mark.parametrize("name", ["F1", "F2", "F3", "F3-reparametrized"])
def test_jet_orders_are_central_differences_of_the_order_below(name):
    """Each fixture's derivative and second derivative are the central differences of the
    order below to O(h^2), tangential components included: the largest gap stays below
    h^2 and falls fourfold when h halves, at four chart points off the default grid."""
    imm, _ = reparametrized_f3() if name == "F3-reparametrized" else FIXTURES[name]()
    coords = np.random.default_rng(7).uniform(0.1, 1.0, size=(4, imm.n))
    for below, above in ((imm.point, imm.derivative), (imm.derivative, imm.second_derivative)):
        gaps = []
        for h in (2e-3, 1e-3):
            diff = np.stack([(below(coords + step) - below(coords - step)) / (2 * h)
                             for step in h * np.eye(imm.n)], axis=1)
            gaps.append(np.abs(diff - above(coords)).max())
        assert gaps[0] <= 2e-3**2 and 3.5 <= gaps[0] / gaps[1] <= 4.5, (above, gaps)


def test_veronese_metric_is_that_of_the_sphere_of_radius_sqrt_3():
    imm, grid = veronese(65)
    theta = grid.coords()[..., 0]
    expected = 3.0 * np.stack([np.ones_like(theta), 0 * theta, 0 * theta, np.sin(theta) ** 2],
                              axis=-1).reshape(grid.dims + (2, 2))
    assert np.abs(extract_all(imm, grid).metric.values - expected).max() <= 1e-14


def test_fixture_points_on_product(f1, f2, f3):
    for fb in (f1, f2, f3):
        pts = fb.data.points
        k = fb.immersion.k
        x = pts[..., : k + 1]
        y = pts[..., k + 1:]
        assert np.abs(np.einsum("...i,...i->...", x, x) - 1.0).max() <= 1e-12
        assert np.abs(minkowski_dot(y, y) + 1.0).max() <= 1e-12


def test_off_product_evaluator_rejected():
    bad = AnalyticImmersion(name="bad", k=1, m=1, n=1,
                            point=lambda c: np.stack(
                                [1.1 + 0 * c[..., 0], 0 * c[..., 0],
                                 0 * c[..., 0], 1 + 0 * c[..., 0]], axis=-1))
    grid = ChartGrid(dims=(5,), spacing=(0.1,), origin=(0.0,))
    with pytest.raises(ConstraintError):
        immersion_points(bad, grid)


@pytest.mark.parametrize("what", ["point", "derivative", "second_derivative"])
def test_evaluator_of_the_wrong_shape_is_named(what):
    imm, grid = FIXTURES["F1"]()
    short = dataclasses.replace(imm, **{what: lambda c: getattr(imm, what)(c)[1:]})
    with pytest.raises(DimensionError, match=rf"^{what.replace('_', '-')} evaluator returned "
                                             rf"shape \(199,"):
        extract_all(short, grid)


def test_immersion_without_a_normal_direction_is_rejected():
    """p = k + m - n: a surface in S^1 x H^1 has no normal bundle."""
    with pytest.raises(DimensionError, match=r"k \+ m - n = 1 \+ 1 - 2 = 0 is below 1"):
        AnalyticImmersion(name="flat", k=1, m=1, n=2, point=lambda c: c)
    assert AnalyticImmersion(name="F1", k=1, m=1, n=1, point=lambda c: c).p == 1


def test_lower_sheet_point_named_as_such():
    imm, grid = FIXTURES["F1"]()

    def point(coords):
        out = imm.point(coords)
        out[123, 2:] *= -1.0
        return out
    flipped = AnalyticImmersion(name="F1", k=1, m=1, n=1, point=point)
    with pytest.raises(ConstraintError, match=r"lower sheet of the hyperboloid at node \(123,\)"):
        immersion_points(flipped, grid)


def test_points_far_out_on_the_hyperboloid_accepted():
    """<y, y> rounds off like |y|^2; F1 reaches |y|^2 ~ 7e10 at t = 16."""
    imm, _ = FIXTURES["F1"]()
    grid = ChartGrid((3199,), (5e-3,), (0.0,))
    assert np.array_equal(immersion_points(imm, grid), imm.point(grid.coords()))

    def last_node_scaled(block):
        def point(coords):
            out = imm.point(coords)
            out[-1, block] *= 1.0 + 1e-6
            return out
        return AnalyticImmersion(name="F1", k=1, m=1, n=1, point=point)

    # scaling the spatial entry of y puts it 2e-6 sinh^2 ~ 6e4 off the hyperboloid
    with pytest.raises(ConstraintError, match=r"node \(3198,\)"):
        immersion_points(last_node_scaled(slice(2, 3)), grid)
    # scaling all of y moves <y, y> by 2e-6 only, below the round-off of the
    # exact points out there (|y|^2 * 2e-16 ~ 1e-5); on the default chart it shows
    short = ChartGrid((200,), (5e-3,), (0.0,))
    with pytest.raises(ConstraintError, match=r"node \(199,\)"):
        immersion_points(last_node_scaled(slice(2, 4)), short)


def test_induced_metric_unit_speed(f1, f2):
    for fb in (f1, f2):
        assert np.abs(fb.data.metric.values - 1.0).max() <= 1e-12


def test_induced_metric_fd_route_converges(f2_fd, f2):
    err = np.abs(f2_fd.data.metric.values - f2.data.metric.values).max()
    fine = FixtureBundle("F2", grid=refine(f2.grid), use_analytic=False)
    fine_exact = extract_all(f2.immersion, fine.grid, use_analytic=True)
    err_fine = np.abs(fine.data.metric.values - fine_exact.metric.values).max()
    assert 3.5 <= err / err_fine <= 4.5


def test_constant_map_is_rejected():
    const = AnalyticImmersion(
        name="const", k=1, m=1, n=1,
        point=lambda c: np.stack([np.ones_like(c[..., 0]), np.zeros_like(c[..., 0]),
                                  np.zeros_like(c[..., 0]), np.ones_like(c[..., 0])],
                                 axis=-1))
    grid = ChartGrid(dims=(8,), spacing=(0.1,), origin=(0.0,))
    # at the apex no precision is lost: the metric itself is named
    with pytest.raises(MetricError, match=r"^metric not positive definite at node \(0,\): a "
                                          r"leading principal minor is not positive and finite$"):
        extract_all(const, grid)


def test_normal_frame_orthonormal_and_orthogonal(f2, f3):
    for fb in (f2, f3):
        normals = fb.data.normals
        gram = minkowski_dot(normals[..., :, None, :], normals[..., None, :, :])
        assert np.abs(gram - np.eye(fb.immersion.p)).max() <= 1e-10
        pair_t = minkowski_dot(normals[..., :, None, :], fb.data.tangents[..., None, :, :])
        assert np.abs(pair_t).max() <= 1e-10
        pts = fb.data.points
        k = fb.immersion.k
        xi1 = np.concatenate([pts[..., : k + 1], np.zeros_like(pts[..., k + 1:])], axis=-1)
        assert np.abs(minkowski_dot(normals, xi1[..., None, :])).max() <= 1e-10


def test_f1_normal_is_the_explicit_complement(f1):
    a = f1.immersion.params["a"]
    b = f1.immersion.params["b"]
    t = f1.grid.coords()[..., 0]
    v1 = np.stack([-np.sin(a * t), np.cos(a * t), np.zeros_like(t), np.zeros_like(t)],
                  axis=-1)
    v2 = np.stack([np.zeros_like(t), np.zeros_like(t), np.cosh(b * t), np.sinh(b * t)],
                  axis=-1)
    expected = b * v1 - a * v2     # orientation fixed by the canonical seed
    assert np.abs(f1.data.normals[..., 0, :] - expected).max() <= 1e-10


def test_second_form_oracles(f1, f2, f3):
    assert np.abs(f1.data.sigma.values).max() <= 1e-12     # geodesic curve
    cot2 = 1.0 / np.tan(f2.immersion.params["theta0"])
    sg2 = f2.data.sigma.values
    assert sg2[..., 0, 0, 0] == pytest.approx(-cot2, abs=1e-10)
    assert np.abs(sg2[..., 0, 0, 1]).max() <= 1e-12        # no hyperbolic component
    cot3 = 1.0 / np.tan(f3.immersion.params["theta0"])
    sg3 = f3.data.sigma.values
    assert sg3[..., 0, 0, 0] == pytest.approx(-cot3, abs=1e-10)
    mask = np.ones_like(sg3, dtype=bool)
    mask[..., 0, 0, 0] = False
    assert np.abs(sg3[mask]).max() <= 1e-10                # circle direction only


def test_structure_oracles_f1(f1):
    a = f1.immersion.params["a"]
    b = f1.immersion.params["b"]
    f, u, big_u, lam = psi_blocks(f1.data.psi, 1)
    assert f == pytest.approx(a * a - b * b, abs=1e-12)
    assert lam == pytest.approx(b * b - a * a, abs=1e-12)
    assert np.abs(u) == pytest.approx(2 * a * b, abs=1e-12)
    invol = f[..., 0, 0] ** 2 + \
        big_u[..., 0, 0] * u[..., 0, 0]
    assert invol == pytest.approx(1.0, abs=1e-10)


def test_structure_oracles_f2_equator():
    fb = FixtureBundle("F2", theta0=np.pi / 2)
    data = fb.data
    f, u, _, lam = psi_blocks(data.psi, 1)
    assert f == pytest.approx(1.0, abs=1e-12)
    assert np.abs(u).max() <= 1e-12
    assert np.abs(data.sigma.values).max() <= 1e-12
    assert np.abs(lam - np.diag([1.0, -1.0])).max() <= 1e-12


def test_structure_oracles_f3(f3):
    f_block, u, _, _ = psi_blocks(f3.data.psi, 2)
    assert np.abs(f_block - np.diag([1.0, -1.0])).max() <= 1e-12
    assert np.abs(u).max() <= 1e-12
    assert np.abs(f3.data.bundle.omega).max() <= 1e-12


def test_induced_structure_of_a_twisted_frame(f3):
    """F3's rows with the tangents sheared by a constant A and the normals turned by a
    chart-dependent angle theta: g = A A^T, omega_m = d_m theta J, and psi = M^-T psi0 M^T
    for M = A (+) R(theta) and F3's psi0 = diag(1, -1, 1, -1)."""
    grid, data = f3.grid, f3.data
    x, y = np.moveaxis(grid.coords(), -1, 0)
    shear = np.array([[1.0, 0.4], [-0.3, 0.8]])
    theta = 0.7 * x + np.sin(2.0 * y)
    d_theta = np.stack([np.full_like(x, 0.7), 2.0 * np.cos(2.0 * y)], axis=-1)
    c, s = np.cos(theta), np.sin(theta)
    turn = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    tangents, normals = shear @ data.tangents, turn @ data.normals

    metric = induced_metric(grid, tangents)
    psi, bundle = induced_structure(f3.immersion.k, metric, tangents, normals)

    assert np.abs(metric.values - shear @ shear.T).max() <= 1e-12
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = d_theta[..., None, None] * skew
    assert np.abs(bundle.omega - omega).max() <= 10 * grid.h_max**2
    frame = np.zeros(grid.dims + (4, 4))
    frame[..., :2, :2], frame[..., 2:, 2:] = shear, turn
    want = np.swapaxes(np.linalg.inv(frame), -1, -2) @ np.diag([1.0, -1.0, 1.0, -1.0]) \
        @ np.swapaxes(frame, -1, -2)
    assert np.abs(psi - want).max() <= 1e-12


def test_normal_connection_trivial_on_fixtures(f1, f2):
    assert np.abs(f1.data.bundle.omega).max() <= 1e-12
    assert np.abs(f2.data.bundle.omega).max() <= 1e-12


def test_induced_pieces_standalone(f2):
    imm, grid = f2.immersion, f2.grid
    points = immersion_points(imm, grid)
    tangents = immersion_tangents(imm, grid, points)
    metric = induced_metric(grid, tangents)
    normals = induced_normal_frame(imm, grid, points, tangents)
    sigma = induced_second_form(grid, imm.second_derivative(grid.coords()), normals)
    psi, bundle = induced_structure(imm.k, metric, tangents, normals)
    assert np.array_equal(metric.values, f2.data.metric.values)
    assert np.array_equal(normals, f2.data.normals)
    assert np.array_equal(sigma.values, f2.data.sigma.values)
    assert np.array_equal(psi, f2.data.psi)
    assert bundle.rank == 2


def test_normal_frame_matches_per_edge_oracle(f1, f2, f3, f1_fd, f2_fd, f3_fd):
    for fb in (f1, f2, f3, f1_fd, f2_fd, f3_fd):
        ref = per_edge_normal_frame(fb.data.immersion, fb.grid)
        assert np.abs(fb.data.normals - ref).max() <= 1e-13, fb.immersion.name


def _s1_h3(n):
    """A chart of S^1 x H^3 whose normals (p = 4 - n >= 2) turn through the hyperbolic block."""
    def y(r, u, v):
        return [np.sinh(r), np.cosh(r) * np.sinh(u), np.cosh(r) * np.cosh(u) * np.sinh(v),
                np.cosh(r) * np.cosh(u) * np.cosh(v)]

    def point(c):
        t = c[..., 0]
        s, w = (c[..., 1], c[..., 1]) if n == 2 else (0.4 * np.sin(t), t)
        return np.stack([np.cos(0.6 * t), np.sin(0.6 * t), *y(0.5 * t + 0.2 * s, s, 0.3 * t * w)],
                        axis=-1)
    grid = (ChartGrid((40,), (0.05,), (0.0,)) if n == 1
            else ChartGrid((9, 11), (0.1, 0.12), (0.0, 0.2)))
    return AnalyticImmersion(name=f"S1xH3-{n}", k=1, m=3, n=n, point=point), grid


@pytest.mark.parametrize("n", [1, 2])
def test_boosted_normal_frame_matches_per_edge_oracle(n):
    """The relative boosts of the step operators turn the normals within their space.

    With p >= 2 and normals that move through the hyperbolic block, a wrong or
    missing relative boost rotates the frame by O(1) over the chart (0.01 to 0.3
    here); the fixtures F1-F3 do not see it (p = 1, y fixed, or a constant
    hyperbolic normal).
    """
    imm, grid = _s1_h3(n)
    points = immersion_points(imm, grid)
    normals = induced_normal_frame(imm, grid, points, immersion_tangents(imm, grid, points))
    assert np.abs(normals - per_edge_normal_frame(imm, grid)).max() <= 1e-12   # measured 3e-15


def test_normal_frame_degeneracy_names_the_node():
    """A kinked curve in S^2 x H^1: tangent e_1 on nodes 0-2, e_2 from node 3.

    The base normal frame (e_2, e_4) loses e_2 at node 3, where it turns tangent.
    """
    grid = ChartGrid(dims=(8,), spacing=(0.1,), origin=(0.0,))
    pole = np.array([0.0, 0.0, 1.0, 0.0, 1.0])
    kinked = AnalyticImmersion(
        name="kinked", k=2, m=1, n=1,
        point=lambda c: np.broadcast_to(pole, c.shape[:-1] + (5,)),
        derivative=lambda c: np.where(c[..., None] < 0.25, np.eye(5)[0], np.eye(5)[1]))
    points = immersion_points(kinked, grid)
    tangents = immersion_tangents(kinked, grid, points)
    with pytest.raises(DegeneracyError, match=r"node \(3,\)") as err:
        induced_normal_frame(kinked, grid, points, tangents)
    assert err.value.node == (3,)


@pytest.mark.parametrize("dims", [(9,), (6, 7), (5, 9)], ids=["9", "6x7", "5x9"])
def test_fortran_order_argmax_is_the_first_swept_node(dims):
    # the node induced_normal_frame names, against a walk of the sweep from the corner
    grid = ChartGrid(dims=dims, spacing=(0.1,) * len(dims), origin=(0.0,) * len(dims))
    base = (0,) * grid.ndim
    rng = np.random.default_rng(len(dims))
    for _ in range(200):
        mask = rng.random(dims) < rng.uniform(0.01, 0.5)
        mask[base] = False
        if mask.any():
            assert argmax_node(mask.T)[::-1] == first_swept(grid, base, mask)


@pytest.mark.parametrize("name", ["F2", "F3"])
def test_second_form_without_its_evaluator_is_the_hessian_of_the_points(name):
    """With a derivative but no second-derivative evaluator, sigma is read off the
    Hessian of the points, bitwise that Hessian paired with the normals.

    Its error against the fully analytic route is second order: measured
    6.41e-6 -> 1.60e-6 on F2 (ratio 4.000) and 9.45e-5 -> 2.36e-5 on F3
    (ratio 4.000) from the default to the refined grid; the data pass check.
    """
    imm, grid = FIXTURES[name]()
    first_only = dataclasses.replace(imm, second_derivative=None)
    errs = []
    for g in (grid, refine(grid)):
        exact, data = extract_all(imm, g), extract_all(first_only, g)
        assert data.analytic_derivatives
        assert np.array_equal(data.metric.values, exact.metric.values)
        hessian = induced_second_form(g, hessian_field(g, data.points), data.normals)
        assert np.array_equal(data.sigma.values, hessian.values)
        errs.append(np.abs(data.sigma.values - exact.sigma.values).max())
        assert check_dataset(data, data.tolerances).passed, g.dims
    assert errs[0] <= 10 * grid.h_max**2
    assert 3.9 <= errs[0] / errs[1] <= 4.1, errs
