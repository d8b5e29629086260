import numpy as np
import pytest

from prodimm.errors import ConstraintError, DegeneracyError, DimensionError, MetricError
from prodimm.extract import (AnalyticImmersion, default_tolerances, extract_all, fixture,
                             immersion_points, immersion_tangents, induced_metric,
                             induced_normal_frame, induced_second_form, induced_structure)
from prodimm.fields import ChartGrid
from prodimm.lorentz import minkowski_dot
from prodimm.structure import check_all

from conftest import FixtureBundle, refine
from sweep_oracles import per_edge_normal_frame


def test_unknown_fixture():
    with pytest.raises(DimensionError):
        fixture("F9")


def test_fixture_points_on_product(f1, f2, f3):
    for fb in (f1, f2, f3):
        pts = fb.data.points
        k = fb.immersion.k
        x = pts[..., : k + 1]
        y = pts[..., k + 1:]
        assert np.abs(np.einsum("...i,...i->...", x, x) - 1.0).max() <= 1e-12
        assert np.abs(minkowski_dot(y, y) + 1.0).max() <= 1e-12


def test_off_product_evaluator_rejected():
    bad = AnalyticImmersion(name="bad", k=1, m=1, n=1, p=1,
                            point=lambda c: np.stack(
                                [1.1 + 0 * c[..., 0], 0 * c[..., 0],
                                 0 * c[..., 0], 1 + 0 * c[..., 0]], axis=-1))
    grid = ChartGrid(dims=(5,), spacing=(0.1,), origin=(0.0,))
    with pytest.raises(ConstraintError):
        immersion_points(bad, grid)


def test_points_far_out_on_the_hyperboloid_accepted():
    """<y, y> rounds off like |y|^2; F1 reaches |y|^2 ~ 7e10 at t = 16."""
    imm, grid = fixture("F1", grid=ChartGrid((3199,), (5e-3,), (0.0,)))
    assert np.array_equal(immersion_points(imm, grid), imm.point(grid.coords()))

    def last_node_scaled(block):
        def point(coords):
            out = imm.point(coords)
            out[-1, block] *= 1.0 + 1e-6
            return out
        return AnalyticImmersion(name="F1", k=1, m=1, n=1, p=1, point=point)

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
        name="const", k=1, m=1, n=1, p=1,
        point=lambda c: np.stack([np.ones_like(c[..., 0]), np.zeros_like(c[..., 0]),
                                  np.zeros_like(c[..., 0]), np.ones_like(c[..., 0])],
                                 axis=-1))
    grid = ChartGrid(dims=(8,), spacing=(0.1,), origin=(0.0,))
    with pytest.raises(MetricError):
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
    data = f1.data
    assert data.psi.f.values == pytest.approx(a * a - b * b, abs=1e-12)
    assert data.psi.lam.values == pytest.approx(b * b - a * a, abs=1e-12)
    assert np.abs(data.psi.u.values) == pytest.approx(2 * a * b, abs=1e-12)
    invol = data.psi.f.values[..., 0, 0] ** 2 + \
        data.psi.big_u.values[..., 0, 0] * data.psi.u.values[..., 0, 0]
    assert invol == pytest.approx(1.0, abs=1e-10)


def test_structure_oracles_f2_equator():
    fb = FixtureBundle("F2", theta0=np.pi / 2)
    data = fb.data
    assert data.psi.f.values == pytest.approx(1.0, abs=1e-12)
    assert np.abs(data.psi.u.values).max() <= 1e-12
    assert np.abs(data.sigma.values).max() <= 1e-12
    lam = data.psi.lam.values
    assert np.abs(lam - np.diag([1.0, -1.0])).max() <= 1e-12


def test_structure_oracles_f3(f3):
    f_block = f3.data.psi.f.values
    assert np.abs(f_block - np.diag([1.0, -1.0])).max() <= 1e-12
    assert np.abs(f3.data.psi.u.values).max() <= 1e-12
    assert np.abs(f3.data.bundle.omega.values).max() <= 1e-12


def test_normal_connection_trivial_on_fixtures(f1, f2):
    assert np.abs(f1.data.bundle.omega.values).max() <= 1e-12
    assert np.abs(f2.data.bundle.omega.values).max() <= 1e-12


def _necessity(imm, grid, use_analytic=True):
    data = extract_all(imm, grid, use_analytic)
    return check_all(data.metric, data.bundle, data.sigma, data.psi,
                     default_tolerances(data))


def test_verify_necessity_all_fixtures(f1, f2, f3):
    for fb in (f1, f2, f3):
        report = _necessity(fb.immersion, fb.grid)
        assert report.passed


def test_verify_necessity_fd_route(f3_fd):
    report = _necessity(f3_fd.immersion, f3_fd.grid, use_analytic=False)
    assert report.passed


def test_extraction_error_convergence(f2, f3):
    for fb in (f2, f3):
        errs = []
        for grid in (fb.grid, refine(fb.grid)):
            fd = extract_all(fb.immersion, grid, use_analytic=False)
            exact = extract_all(fb.immersion, grid, use_analytic=True)
            errs.append({
                "metric": np.abs(fd.metric.values - exact.metric.values).max(),
                "sigma": np.abs(fd.sigma.values - exact.sigma.values).max(),
            })
        for key in errs[0]:
            assert 3.5 <= errs[0][key] / errs[1][key] <= 4.5, key


def test_induced_pieces_standalone(f2):
    imm, grid = f2.immersion, f2.grid
    points = immersion_points(imm, grid)
    tangents = immersion_tangents(imm, grid, points)
    metric = induced_metric(grid, tangents)
    normals = induced_normal_frame(imm, grid, points, tangents)
    sigma = induced_second_form(imm, grid, points, tangents, normals)
    psi, bundle = induced_structure(imm, metric, tangents, normals)
    assert np.array_equal(metric.values, f2.data.metric.values)
    assert np.array_equal(normals, f2.data.normals)
    assert np.array_equal(sigma.values, f2.data.sigma.values)
    assert np.array_equal(psi.f.values, f2.data.psi.f.values)
    assert bundle.rank == 2


def test_normal_frame_matches_per_edge_oracle(f1, f2, f3, f1_fd, f2_fd, f3_fd):
    for fb in (f1, f2, f3, f1_fd, f2_fd, f3_fd):
        ref = per_edge_normal_frame(fb.immersion, fb.grid, fb.data.analytic_derivatives)
        assert np.abs(fb.data.normals - ref).max() <= 1e-13, fb.immersion.name


def test_normal_frame_degeneracy_names_the_node():
    """A kinked curve in S^2 x H^1: tangent e_1 on nodes 0-2, e_2 from node 3.

    The base normal frame (e_2, e_4) loses e_2 at node 3, where it turns tangent.
    """
    grid = ChartGrid(dims=(8,), spacing=(0.1,), origin=(0.0,))
    pole = np.array([0.0, 0.0, 1.0, 0.0, 1.0])
    kinked = AnalyticImmersion(
        name="kinked", k=2, m=1, n=1, p=2,
        point=lambda c: np.broadcast_to(pole, c.shape[:-1] + (5,)),
        derivative=lambda c: np.where(c[..., None] < 0.25, np.eye(5)[0], np.eye(5)[1]))
    points = immersion_points(kinked, grid)
    tangents = immersion_tangents(kinked, grid, points)
    with pytest.raises(DegeneracyError, match=r"node \(3,\)") as err:
        induced_normal_frame(kinked, grid, points, tangents)
    assert err.value.index == (3,)
