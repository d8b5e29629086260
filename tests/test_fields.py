import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prodimm.errors import DimensionError, MetricError
from prodimm.fields import (BundleData, ChartGrid, MetricField, SecondFormField,
                            TensorField, bundle_curvature, christoffel, curvature_tensor,
                            grad_field, hessian_field, second_derivative_axis,
                            shape_operator_field,
                            sum_bundle_covariant_derivative)


def sphere_chart(n_theta=81, n_phi=41, h_theta=0.0075, h_phi=0.02, theta0=0.6):
    grid = ChartGrid(dims=(n_theta, n_phi), spacing=(h_theta, h_phi), origin=(theta0, 0.0))
    theta = grid.coords()[..., 0]
    g = np.zeros(grid.dims + (2, 2))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = np.sin(theta) ** 2
    return grid, MetricField(grid, g), theta


def hyperbolic_chart(n_rho=81, n_phi=41, h_rho=0.0075, h_phi=0.02, rho0=0.5):
    grid = ChartGrid(dims=(n_rho, n_phi), spacing=(h_rho, h_phi), origin=(rho0, 0.0))
    rho = grid.coords()[..., 0]
    g = np.zeros(grid.dims + (2, 2))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = np.sinh(rho) ** 2
    return grid, MetricField(grid, g), rho


def test_grid_invariants():
    with pytest.raises(DimensionError):
        ChartGrid(dims=(4,), spacing=(0.1,), origin=(0.0,))
    with pytest.raises(DimensionError):
        ChartGrid(dims=(5, 5, 5, 5), spacing=(0.1,) * 4, origin=(0.0,) * 4)
    with pytest.raises(DimensionError):
        ChartGrid(dims=(5,), spacing=(0.0,), origin=(0.0,))
    grid = ChartGrid(dims=(5, 6), spacing=(0.1, 0.2), origin=(1.0, -1.0))
    assert grid.n_nodes == 30 and grid.h_max == 0.2
    assert grid.coords().shape == (5, 6, 2)


def test_tensor_field_validation():
    grid = ChartGrid(dims=(5,), spacing=(0.1,), origin=(0.0,))
    with pytest.raises(DimensionError, match="node"):
        TensorField(grid, ("td",), np.full((5, 1), np.nan))
    with pytest.raises(DimensionError):
        TensorField(grid, ("td",), np.zeros((5, 2)))  # tangent slot must be 1
    with pytest.raises(DimensionError):
        TensorField(grid, ("td", "td"), np.zeros((5, 1)))


def test_metric_field_validation():
    grid = ChartGrid(dims=(5,), spacing=(0.1,), origin=(0.0,))
    bad = np.tile(np.diag([1.0, -1.0]), (5, 1, 1))[:, :2, :2]
    vals = np.zeros((5, 1, 1))
    with pytest.raises(MetricError) as err:
        MetricField(grid, vals)
    assert err.value.node == (0,)
    del bad


def test_christoffel_flat():
    grid = ChartGrid(dims=(8, 8), spacing=(0.1, 0.1), origin=(0.0, 0.0))
    g = MetricField(grid, np.tile(np.eye(2), grid.dims + (1, 1)))
    assert np.abs(christoffel(g).values).max() == 0.0


def test_christoffel_sphere_oracle_and_convergence():
    errs = []
    for factor in (1, 2):
        grid, g, theta = sphere_chart(n_theta=40 * factor + 1,
                                      h_theta=0.015 / factor)
        gamma = christoffel(g).values
        exact_tpp = -np.sin(theta) * np.cos(theta)   # Gamma^theta_{phi phi}
        exact_ptp = 1.0 / np.tan(theta)              # Gamma^phi_{theta phi}
        err = max(np.abs(gamma[..., 0, 1, 1] - exact_tpp).max(),
                  np.abs(gamma[..., 1, 0, 1] - exact_ptp).max())
        errs.append(err)
        assert gamma[..., 0, 1, 1] == pytest.approx(gamma[..., 0, 1, 1].T.T)
        assert np.abs(gamma - np.swapaxes(gamma, -1, -2)).max() <= 1e-14
    assert errs[0] <= 10 * 0.015**2
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_christoffel_hyperbolic_oracle():
    grid, g, rho = hyperbolic_chart()
    gamma = christoffel(g).values
    exact = -np.sinh(rho) * np.cosh(rho)
    assert np.abs(gamma[..., 0, 1, 1] - exact).max() <= 10 * grid.h_max**2


def _sectional(gv, riem):
    # K = <R(d1,d2)d2, d1> / (g11 g22 - g12^2)
    num = np.einsum("...l,...l->...", gv[..., 0, :], riem[..., :, 1, 0, 1])
    den = gv[..., 0, 0] * gv[..., 1, 1] - gv[..., 0, 1] ** 2
    return num / den


def test_sectional_curvature_sphere_and_hyperbolic():
    grid, g, _ = sphere_chart()
    riem = curvature_tensor(g).values
    k = _sectional(g.values, riem)
    assert np.abs(k - 1.0).max() <= 20 * grid.h_max**2
    grid, g, _ = hyperbolic_chart()
    riem = curvature_tensor(g).values
    k = _sectional(g.values, riem)
    assert np.abs(k + 1.0).max() <= 20 * grid.h_max**2


def test_curvature_flat_and_bianchi():
    grid = ChartGrid(dims=(8, 8), spacing=(0.05, 0.05), origin=(0.0, 0.0))
    g = MetricField(grid, np.tile(np.eye(2), grid.dims + (1, 1)))
    assert np.abs(curvature_tensor(g).values).max() <= 1e-10
    grid, g, _ = sphere_chart()
    riem = curvature_tensor(g).values
    cyc = (riem + np.einsum("...lsmn->...lmns", riem)
           + np.einsum("...lsmn->...lnsm", riem))
    assert np.abs(cyc).max() <= 20 * grid.h_max**2


def test_bundle_curvature_zero_and_constant():
    grid = ChartGrid(dims=(6, 6), spacing=(0.1, 0.1), origin=(0.0, 0.0))
    flat = BundleData.flat(grid, rank=2)
    assert np.abs(bundle_curvature(flat).values).max() == 0.0
    om = np.zeros(grid.dims + (2, 2, 2))
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    om[..., 0, :, :] = 0.3 * j
    om[..., 1, :, :] = 0.7 * j   # commuting constant coefficients
    bundle = BundleData(rank=2, omega=TensorField(grid, ("td", "bu", "bd"), om))
    assert np.abs(bundle_curvature(bundle).values).max() <= 1e-14


def test_bundle_curvature_linear_oracle():
    grid = ChartGrid(dims=(9, 9), spacing=(0.05, 0.05), origin=(0.0, 0.0))
    c = 0.8
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    om = np.zeros(grid.dims + (2, 2, 2))
    om[..., 0, :, :] = c * grid.coords()[..., 1, None, None] * j
    bundle = BundleData(rank=2, omega=TensorField(grid, ("td", "bu", "bd"), om))
    f01 = bundle_curvature(bundle).values[..., 0, 1, :, :]
    assert np.abs(f01 - (-c) * j).max() <= 1e-12


def test_shape_operator_zero_and_identity():
    grid, g, _ = sphere_chart(n_theta=6, n_phi=6)
    sigma0 = SecondFormField(grid, np.zeros(grid.dims + (2, 2, 1)))
    assert np.abs(shape_operator_field(sigma0, g)).max() == 0.0
    sigma_g = SecondFormField(grid, g.values[..., None])
    ops = shape_operator_field(sigma_g, g)
    assert np.abs(ops[..., 0, :, :] - np.eye(2)).max() <= 1e-12
    node = (2, 3)
    assert np.allclose(np.einsum("a,aij->ij", [1.0], ops[node]), np.eye(2))


@given(data=st.data())
@settings(max_examples=40)
def test_shape_operator_self_adjoint(data):
    a = data.draw(hnp.arrays(np.float64, (2, 2), elements=st.floats(-3, 3)))
    s = data.draw(hnp.arrays(np.float64, (2, 2, 2), elements=st.floats(-3, 3)))
    grid = ChartGrid(dims=(5, 5), spacing=(0.1, 0.1), origin=(0.0, 0.0))
    gv = np.tile(a @ a.T + 0.5 * np.eye(2), grid.dims + (1, 1))
    g = MetricField(grid, gv)
    sym = 0.5 * (s + np.swapaxes(s, 0, 1))
    sigma = SecondFormField(grid, np.tile(sym, grid.dims + (1, 1, 1)))
    ops = shape_operator_field(sigma, g)
    lowered = np.einsum("...ik,...akj->...aij", gv, ops)
    assert np.abs(lowered - np.swapaxes(lowered, -1, -2)).max() <= 1e-12


def test_sum_bundle_derivative_constant_and_linear():
    grid = ChartGrid(dims=(9,), spacing=(0.1,), origin=(0.0,))
    g = MetricField(grid, np.ones((9, 1, 1)))
    chris = christoffel(g)
    bundle = BundleData.flat(grid, rank=1)
    const = SecondFormField(grid, np.full((9, 1, 1, 1), 0.7))
    out = sum_bundle_covariant_derivative(const, chris, bundle)
    assert np.abs(out.values).max() == 0.0
    slope = 1.3
    lin = SecondFormField(grid, slope * grid.coords()[..., 0][:, None, None, None])
    out = sum_bundle_covariant_derivative(lin, chris, bundle)
    assert np.abs(out.values - slope).max() <= 1e-12


def test_sum_bundle_derivative_preserves_symmetry(f3):
    data = f3.data
    chris = christoffel(data.metric)
    out = sum_bundle_covariant_derivative(data.sigma, chris, data.bundle).values
    assert np.abs(out - np.swapaxes(out, -3, -2)).max() <= 1e-12


def test_second_derivative_axis_boundary_order():
    # cubic profile: the one-sided stencil must be exact
    grid = ChartGrid(dims=(9,), spacing=(0.125,), origin=(0.0,))
    x = grid.coords()[..., 0]
    out = second_derivative_axis(x**3, 0.125, 0)
    assert np.abs(out - 6 * x).max() <= 1e-10


def test_hessian_matches_analytic():
    grid = ChartGrid(dims=(33, 33), spacing=(0.03, 0.03), origin=(0.2, 0.1))
    c = grid.coords()
    f = np.sin(2 * c[..., 0]) * np.cosh(c[..., 1])
    hess = hessian_field(grid, f)
    exact = np.empty(grid.dims + (2, 2))
    exact[..., 0, 0] = -4 * np.sin(2 * c[..., 0]) * np.cosh(c[..., 1])
    exact[..., 0, 1] = 2 * np.cos(2 * c[..., 0]) * np.sinh(c[..., 1])
    exact[..., 1, 0] = exact[..., 0, 1]
    exact[..., 1, 1] = np.sin(2 * c[..., 0]) * np.cosh(c[..., 1])
    assert np.abs(hess - exact).max() <= 30 * grid.h_max**2


def test_grad_field_shape():
    grid = ChartGrid(dims=(6, 7), spacing=(0.1, 0.1), origin=(0.0, 0.0))
    vals = np.zeros(grid.dims + (3,))
    assert grad_field(grid, vals).shape == (6, 7, 2, 3)
