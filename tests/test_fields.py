import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prodimm.errors import DimensionError, MetricError
from kernel_oracles import (covariant_derivative, grad_padded, hessian_padded, riemann_full,
                            second_padded)
from prodimm.fields import (BundleData, ChartGrid, MetricField, SecondFormField,
                            bundle_curvature, check_values, christoffel, curvature_tensor,
                            grad_field, hessian_field, prefix_apply, runs_away_from,
                            second_derivative_axis, shape_operator_field, sweep_compose,
                            sweep_steps)
from sweep_oracles import per_edge_steps


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


def test_check_values_validation():
    grid = ChartGrid(dims=(5,), spacing=(0.1,), origin=(0.0,))
    with pytest.raises(DimensionError, match="node"):
        check_values(grid, np.full((5, 1), np.nan), (1,))
    with pytest.raises(DimensionError):
        check_values(grid, np.zeros((5, 2)), (1,))  # tangent slot must be 1
    with pytest.raises(DimensionError):
        check_values(grid, np.zeros((5, 1)), (1, 1))


@pytest.mark.parametrize("field, error, slots, entry", [
    (MetricField, MetricError, (2, 2), (0, 1)),
    (BundleData, DimensionError, (2, 3, 3), (1, 0, 2)),
    (SecondFormField, DimensionError, (2, 2, 3), (1, 0, 2)),
], ids=["metric_asymmetric", "connection_not_skew", "second_form_asymmetric"])
def test_validators_name_the_node_of_the_worst_defect(field, error, slots, entry):
    grid = ChartGrid(dims=(5, 6), spacing=(0.1, 0.1), origin=(0.0, 0.0))
    values = np.zeros(grid.dims + slots)
    if field is MetricField:
        values[...] = np.eye(2)
    values[(0, 0) + entry] += 1e-9     # a smaller defect first in C order
    values[(3, 2) + entry] += 1e-6
    with pytest.raises(error, match=re.escape("at node (3, 2)")):
        field(grid, values)


def test_metric_field_validation():
    grid = ChartGrid(dims=(5,), spacing=(0.1,), origin=(0.0,))
    bad = np.tile(np.diag([1.0, -1.0]), (5, 1, 1))[:, :2, :2]
    vals = np.zeros((5, 1, 1))
    with pytest.raises(MetricError) as err:
        MetricField(grid, vals)
    assert err.value.node == (0,)
    del bad


@st.composite
def symmetric_blocks(draw, definite: bool):
    """(n, n) symmetric matrices Q diag(l) Q^T, n = 1, 2 or 3, with 0.1 <= |l| <= 10:
    positive definite, or with at least one negative eigenvalue."""
    n = draw(st.integers(1, 3))
    magnitudes = draw(hnp.arrays(np.float64, n, elements=st.floats(0.1, 10.0)))
    signs = np.ones(n)
    if not definite:
        signs = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([-1.0, 1.0])))
        signs[draw(st.integers(0, n - 1))] = -1.0
    q, _ = np.linalg.qr(draw(hnp.arrays(np.float64, (n, n), elements=st.floats(-1, 1))))
    g = (q * (signs * magnitudes)) @ q.T
    return 0.5 * (g + g.T)


def _metric_grid(n):
    return ChartGrid(dims=(5, 6, 7)[:n], spacing=(0.1,) * n, origin=(0.0,) * n)


@given(g=symmetric_blocks(definite=True))
@settings(max_examples=150, deadline=None)
def test_metric_inverse_is_lapacks_to_round_off_and_exactly_symmetric(g):
    n = len(g)
    grid = _metric_grid(n)
    field = MetricField(grid, np.broadcast_to(g, grid.dims + (n, n)))
    ginv = field.inverse
    lu = np.linalg.inv(g)
    assert not ginv.flags.writeable and ginv.shape == grid.dims + (n, n)
    assert np.array_equal(ginv, np.swapaxes(ginv, -1, -2))
    assert np.abs(ginv - lu).max() <= 32 * np.finfo(float).eps * np.linalg.cond(g) \
        * np.abs(lu).max()
    if n == 1:
        assert np.array_equal(ginv, np.broadcast_to(lu, ginv.shape))   # 1/g, as LU gives it


@given(g=st.one_of(symmetric_blocks(definite=True), symmetric_blocks(definite=False)))
@settings(max_examples=300, deadline=None)
def test_metric_definiteness_matches_the_eigenvalues(g):
    """Sylvester's criterion gives eigvalsh's verdict, at the node where the block sits."""
    n = len(g)
    grid = _metric_grid(n)
    values = np.broadcast_to(np.eye(n), grid.dims + (n, n)).copy()
    node = (3, 4, 2)[:n]
    values[node] = g
    if np.linalg.eigvalsh(g).min() > 0:
        MetricField(grid, values)
    else:
        with pytest.raises(MetricError, match="not positive definite") as err:
            MetricField(grid, values)
        assert err.value.node == node


def test_metric_whose_minors_overflow_is_rejected():
    """diag(1e200, 1e200) is positive definite, but det g overflows: rejected at its node,
    never inverted to zeros."""
    grid = ChartGrid(dims=(5, 6), spacing=(0.1, 0.1), origin=(0.0, 0.0))
    values = np.broadcast_to(np.eye(2), grid.dims + (2, 2)).copy()
    values[3, 1] = np.diag([1e200, 1e200])
    with pytest.raises(MetricError, match="not positive and finite") as err:
        MetricField(grid, values)
    assert err.value.node == (3, 1)


def test_christoffel_flat():
    grid = ChartGrid(dims=(8, 8), spacing=(0.1, 0.1), origin=(0.0, 0.0))
    g = MetricField(grid, np.tile(np.eye(2), grid.dims + (1, 1)))
    assert np.abs(christoffel(g)).max() == 0.0


def test_christoffel_sphere_oracle_and_convergence():
    errs = []
    for factor in (1, 2):
        grid, g, theta = sphere_chart(n_theta=40 * factor + 1,
                                      h_theta=0.015 / factor)
        gamma = christoffel(g)
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
    gamma = christoffel(g)
    exact = -np.sinh(rho) * np.cosh(rho)
    assert np.abs(gamma[..., 0, 1, 1] - exact).max() <= 10 * grid.h_max**2


def _sectional(gv, riem):
    # K = <R(d1,d2)d2, d1> / (g11 g22 - g12^2)
    num = np.einsum("...l,...l->...", gv[..., 0, :], riem[..., :, 1, 0, 1])
    den = gv[..., 0, 0] * gv[..., 1, 1] - gv[..., 0, 1] ** 2
    return num / den


def test_sectional_curvature_sphere_and_hyperbolic():
    grid, g, _ = sphere_chart()
    riem = riemann_full(grid, curvature_tensor(g))
    k = _sectional(g.values, riem)
    assert np.abs(k - 1.0).max() <= 20 * grid.h_max**2
    grid, g, _ = hyperbolic_chart()
    riem = riemann_full(grid, curvature_tensor(g))
    k = _sectional(g.values, riem)
    assert np.abs(k + 1.0).max() <= 20 * grid.h_max**2


def test_curvature_flat_and_bianchi():
    grid = ChartGrid(dims=(8, 8), spacing=(0.05, 0.05), origin=(0.0, 0.0))
    g = MetricField(grid, np.tile(np.eye(2), grid.dims + (1, 1)))
    assert np.abs(curvature_tensor(g)).max() <= 1e-10
    grid, g, _ = sphere_chart()
    riem = riemann_full(grid, curvature_tensor(g))
    cyc = (riem + np.einsum("...lsmn->...lmns", riem)
           + np.einsum("...lsmn->...lnsm", riem))
    assert np.abs(cyc).max() <= 20 * grid.h_max**2


def test_bundle_curvature_zero_and_constant():
    grid = ChartGrid(dims=(6, 6), spacing=(0.1, 0.1), origin=(0.0, 0.0))
    flat = BundleData(grid, np.zeros(grid.dims + (2, 2, 2)))
    assert np.abs(bundle_curvature(flat)).max() == 0.0
    om = np.zeros(grid.dims + (2, 2, 2))
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    om[..., 0, :, :] = 0.3 * j
    om[..., 1, :, :] = 0.7 * j   # commuting constant coefficients
    bundle = BundleData(grid, om)
    assert np.abs(bundle_curvature(bundle)).max() <= 1e-14


def test_bundle_curvature_linear_oracle():
    grid = ChartGrid(dims=(9, 9), spacing=(0.05, 0.05), origin=(0.0, 0.0))
    c = 0.8
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    om = np.zeros(grid.dims + (2, 2, 2))
    om[..., 0, :, :] = c * grid.coords()[..., 1, None, None] * j
    bundle = BundleData(grid, om)
    f01 = bundle_curvature(bundle)[..., 0, :, :]   # the one pair (0, 1)
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
    omega = np.zeros((9, 1, 1, 1))
    slots = ("td", "td", "bu")
    const = SecondFormField(grid, np.full((9, 1, 1, 1), 0.7))
    out = covariant_derivative(grid, const.values, slots, chris, omega)
    assert np.abs(out).max() == 0.0
    slope = 1.3
    lin = SecondFormField(grid, slope * grid.coords()[..., 0][:, None, None, None])
    out = covariant_derivative(grid, lin.values, slots, chris, omega)
    assert np.abs(out - slope).max() <= 1e-12


def test_sum_bundle_derivative_preserves_symmetry(f3):
    data = f3.data
    chris = christoffel(data.metric)
    out = covariant_derivative(data.grid, data.sigma.values, ("td", "td", "bu"), chris,
                               data.bundle.omega)
    assert np.abs(out - np.swapaxes(out, -3, -2)).max() <= 1e-12


def test_second_derivative_axis_boundary_order():
    # cubic profile: the ghost-node stencil must be exact at the edges too
    grid = ChartGrid(dims=(9,), spacing=(0.125,), origin=(0.0,))
    x = grid.coords()[..., 0]
    out = second_derivative_axis(x**3, 0.125, 0)
    assert np.abs(out - 6 * x).max() <= 1e-10


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and (np.ascontiguousarray(a).tobytes()
                                   == np.ascontiguousarray(b).tobytes())


@pytest.mark.parametrize("dims, slots", [((9,), ()), ((7, 8), (2, 3)), ((5, 6, 7), ())],
                         ids=["1d_scalar", "2d_slots", "3d"])
def test_stencils_match_the_padded_oracle_bitwise(dims, slots):
    # float, integer and read-only inputs; ends written in place equal the padded copy's
    rng = np.random.default_rng(len(dims))
    grid = ChartGrid(dims=dims, spacing=tuple(0.1 + 0.03 * a for a in range(len(dims))),
                     origin=(0.0,) * len(dims))
    read_only = rng.normal(size=dims + slots)
    read_only.flags.writeable = False
    for values in (rng.normal(size=dims + slots), rng.integers(-9, 10, size=dims + slots),
                   read_only):
        assert _same_bits(grad_field(grid, values), grad_padded(grid, values))
        assert _same_bits(hessian_field(grid, values), hessian_padded(grid, values))
        for a, h in enumerate(grid.spacing):
            assert _same_bits(second_derivative_axis(values, h, a),
                              second_padded(values, h, a))


def test_composed_differences_second_order_at_edges():
    # grad of grad must converge like h^2 at the end nodes, not only inside
    def edge_error(n_nodes):
        grid = ChartGrid(dims=(n_nodes,), spacing=(1.0 / (n_nodes - 1),), origin=(0.0,))
        x = grid.coords()[..., 0]
        f = np.sin(3 * x) * np.exp(x)
        exact = (-8 * np.sin(3 * x) + 6 * np.cos(3 * x)) * np.exp(x)
        err = np.abs(grad_field(grid, grad_field(grid, f)[..., 0])[..., 0] - exact)
        return np.array([err[0], err[-1]])

    assert (edge_error(41) / edge_error(81)).min() >= 3.5


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


def _unipotent(rng, shape, size=4):
    """Upper unitriangular integer matrices: their products stay exact in float64."""
    mats = np.triu(rng.integers(-1, 2, size=shape + (size, size)), 1) + np.eye(size)
    return mats.astype(float)


@pytest.mark.parametrize("cols", [4, 2], ids=["square", "columns"])
def test_prefix_apply_bitwise_equals_the_sequential_product(cols):
    rng = np.random.default_rng(11)
    for length in range(1, 131):
        ops = _unipotent(rng, (length, 3))        # a run batched over a slab of 3 lines
        value = rng.integers(-2, 3, size=(3, 4, cols)).astype(float)
        ref = np.empty((length, 3, 4, cols))
        ref[0] = ops[0] @ value
        for j in range(1, length):
            ref[j] = ops[j] @ ref[j - 1]
        kept = ops.copy()
        out = np.full(ref.shape, np.nan)
        assert prefix_apply(ops, value, out) is out
        assert np.array_equal(out, ref), length
        assert np.array_equal(ops, kept)


@pytest.mark.parametrize("cols", [4, 2], ids=["square", "columns"])
def test_sweep_compose_bitwise_equals_the_per_edge_sweep(cols):
    """Every run length 0-130 in both directions, alone and batched over a slab."""
    rng = np.random.default_rng(cols)
    for dims in ((131,), (5, 131)):
        grid = ChartGrid(dims=dims, spacing=(0.1,) * len(dims), origin=(0.0,) * len(dims))
        ops = [_unipotent(rng, dims[:a] + (dims[a] - 1,) + dims[a + 1:])
               for a in range(len(dims))]
        value = rng.integers(-2, 3, size=(4, cols)).astype(float)
        for b in range(dims[-1]):
            base = (2,) * (len(dims) - 1) + (b,)
            ref = np.zeros(dims + value.shape)
            ref[base] = value
            for src, dst, axis, delta in per_edge_steps(grid, base):
                ref[dst] = ops[axis][src if delta > 0 else dst] @ ref[src]
            out = sweep_compose(grid, value, base, ops)
            assert np.array_equal(out, ref), (dims, base)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda count: st.tuples(st.integers(0, count - 1),
                                                          st.just(count))))
def test_runs_away_from_cross_every_edge_once_away_from_the_base(base_count):
    base, count = base_count
    nodes, edges = np.arange(count), np.arange(count - 1)
    runs = runs_away_from(base, count)
    assert [sign for *_, sign in runs] == [1] * (base < count - 1) + [-1] * (base > 0)
    crossed, reached = [], []
    for near, far, run_edges, sign in runs:
        near, far, run_edges = nodes[near], nodes[far], edges[run_edges]
        assert len(near) == len(far) == len(run_edges) > 0
        assert np.array_equal(near, far - sign)   # one step in the run's direction
        assert np.array_equal(run_edges, np.minimum(near, far))   # named by the lower node
        assert near[0] == base and np.array_equal(near[1:], far[:-1])   # in sweep order
        crossed += run_edges.tolist()
        reached += far.tolist()
    assert sorted(crossed) == edges.tolist()   # every edge once
    assert sorted(reached) == [i for i in range(count) if i != base]   # every other node once


@pytest.mark.parametrize("dims, base, order, runs", [
    ((9,), (4,), None, 2), ((9,), (0,), None, 1), ((9,), (8,), None, 1),
    ((7, 6), (3, 2), (0, 1), 4), ((7, 6), (3, 2), (1, 0), 4), ((7, 6), (0, 0), None, 2),
    ((9, 8, 7), (2, 3, 1), None, 6), ((9, 8, 7), (2, 3, 1), (2, 0, 1), 6)])
def test_sweep_steps_yields_one_run_per_axis_direction(dims, base, order, runs):
    grid = ChartGrid(dims=dims, spacing=(0.1,) * len(dims), origin=(0.0,) * len(dims))
    steps = list(sweep_steps(grid, base, order))
    assert len(steps) == runs
    reached = np.zeros(dims, dtype=int)
    reached[base] += 1
    for src, dst, edges, axis in steps:
        assert reached[src].all()                 # the slab is swept before its run
        reached[dst] += 1
        step = dst[axis].step or 1                # edges sit at the lower node of each step
        lower = np.arange(dims[axis])[dst[axis]] - (step > 0)
        assert np.array_equal(np.arange(dims[axis] - 1)[edges[axis]], lower)
    assert (reached == 1).all()
