import re

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from prodimm import reconstruct
from prodimm.errors import ReconstructionError, StructureError
from prodimm.fields import ChartGrid, SecondFormField, argmax_node
from prodimm.flatbundle import Geometry
from prodimm.extract import extract_all, fixture
from prodimm.reconstruct import (EdgeFlows, align_congruence, assemble_immersion, edge_flow,
                                 immersion_psi_field, initial_frame_from_split,
                                 path_independence_residual,
                                 random_block_rotation, reconstruct_immersion,
                                 sweep_parallel_frame)
from prodimm.lorentz import eta, product_defect
from prodimm.structure import ToleranceModel

import kernel_oracles as oracle
from sweep_oracles import per_edge_parallel_frame, per_plaquette_path_gap


def test_edge_flow_zero_connection():
    z = np.zeros((4, 4))
    assert np.array_equal(edge_flow(z, z, 0.1), np.eye(4))
    frame = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(edge_flow(z, z, 0.1) @ frame, frame)


def test_edge_flow_matches_matrix_exponential():
    rng = np.random.default_rng(7)
    om = rng.normal(size=(6, 6))
    om /= np.linalg.norm(om, 2)
    h = 1e-3
    flow = edge_flow(om, om, h)
    assert np.abs(flow - scipy.linalg.expm(-h * om)).max() <= 1e-10


def test_edge_transport_orthonormality_drift(f1):
    conn, gram = f1.geom.connection, f1.geom.gram
    h = f1.grid.spacing[0]
    frame = np.eye(gram.shape[-1])
    moved = edge_flow(conn[0, 0], conn[1, 0], h) @ frame
    drift = np.abs(moved.T @ gram[1] @ moved - eta(gram.shape[-1])).max()
    assert drift <= 10 * h**4


def _flat_test_connection(grid, seed=3):
    """Manufactured flat connection with varying, non-commuting matrices.

    Writes the parallel frame in closed form: Q(x) = e^(a(x) K1) e^(b(x) K2),
    so Omega_mu = -a_mu K1 - b_mu e^(aK1) K2 e^(-aK1) is flat by construction.
    """
    rng = np.random.default_rng(seed)
    size = 4
    k1 = 0.6 * rng.normal(size=(size, size)) / size
    k2 = 0.6 * rng.normal(size=(size, size)) / size
    coords = grid.coords()
    axes = [coords[..., a] for a in range(grid.ndim)]
    while len(axes) < 3:
        axes.append(np.zeros(grid.dims))
    x1, x2, x3 = axes
    a = np.sin(x1) + 0.3 * x2
    b = np.cos(x2) + 0.2 * x1 * x3 + 0.5 * x3
    da = [np.cos(x1), 0.3 * np.ones(grid.dims), np.zeros(grid.dims)]
    db = [0.2 * x3, -np.sin(x2), 0.2 * x1 + 0.5 * np.ones(grid.dims)]

    frames = np.zeros(grid.dims + (size, size))
    omega = np.zeros(grid.dims + (grid.ndim, size, size))
    it = np.ndindex(*grid.dims)
    for idx in it:
        e1 = scipy.linalg.expm(a[idx] * k1)
        e2 = scipy.linalg.expm(b[idx] * k2)
        frames[idx] = e1 @ e2
        conj = e1 @ k2 @ np.linalg.inv(e1)
        for mu in range(grid.ndim):
            omega[idx + (mu,)] = -(da[mu][idx] * k1 + db[mu][idx] * conj)
    return omega, frames


def test_sweep_three_axes_against_closed_form():
    grid = ChartGrid(dims=(9, 8, 7), spacing=(0.05, 0.06, 0.04), origin=(0.0, 0.0, 0.0))
    conn, frames = _flat_test_connection(grid)
    base = (2, 3, 1)
    flows = EdgeFlows.of(grid, conn, base)
    out = sweep_parallel_frame(flows, frames[base])
    assert np.array_equal(out[base], frames[base])
    err = np.abs(out - frames).max()
    assert err <= 5 * grid.h_max**2
    rec = path_independence_residual(flows, ToleranceModel()).records[0]
    assert rec.max_abs <= 5 * grid.h_max**2


def _transport_cases(f2_fd, f3):
    """(grid, connection, initial frame, base, axis orders) for the oracle.

    F2 on the FD route, F3 from a corner and an interior base, and the 3-D
    manufactured connection.
    """
    for fb, bases in ((f2_fd, [(0,)]), (f3, [(0, 0), (21, 40)])):
        conn = fb.geom.connection
        frame0 = fb.recon.frame[fb.recon.base_node]
        orders = [None] if fb.grid.ndim == 1 else [(0, 1), (1, 0)]
        for base in bases:
            yield fb.grid, conn, frame0, base, orders
    grid = ChartGrid(dims=(9, 8, 7), spacing=(0.05, 0.06, 0.04), origin=(0.0, 0.0, 0.0))
    conn, frames = _flat_test_connection(grid)
    yield grid, conn, frames[2, 3, 1], (2, 3, 1), [None, (2, 0, 1)]


def test_sweep_matches_per_edge_oracle_to_rounding(f2_fd, f3):
    # The scan reassociates the edge products.  Largest |scan - per-edge| over
    # these cases: 5.3e-15, on F3 64x64 from the corner base (entries <= 2.35);
    # F2 on the FD route at 10001 nodes, not run here, gave 3.5e-14 from node 0
    # and 1.8e-14 from the centre (entries <= 1).
    for grid, conn, frame0, base, orders in _transport_cases(f2_fd, f3):
        for order in orders:
            out = sweep_parallel_frame(EdgeFlows.of(grid, conn, base), frame0, axis_order=order)
            ref = per_edge_parallel_frame(grid, conn, frame0, base, order)
            assert np.array_equal(out[base], ref[base])
            assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max(), (grid.dims, base, order)


def test_sweep_matches_dense_ode_oracle():
    errs = []
    for h, n_nodes in ((0.16, 8), (0.08, 15)):
        grid = ChartGrid(dims=(n_nodes,), spacing=(h,), origin=(0.0,))
        conn, frames = _flat_test_connection(grid)
        out = sweep_parallel_frame(EdgeFlows.of(grid, conn, (0,)), frames[(0,)])
        t_nodes = grid.axis_coords(0)
        om = conn[:, 0]

        def rhs(t, y):
            i = min(int(t / h), n_nodes - 2)
            w = (t - t_nodes[i]) / h
            om_t = (1 - w) * om[i] + w * om[i + 1]
            return (-om_t @ y.reshape(om.shape[1:])).ravel()

        sol = scipy.integrate.solve_ivp(rhs, (0.0, t_nodes[-1]), frames[(0,)].ravel(),
                                        t_eval=t_nodes, rtol=1e-12, atol=1e-14,
                                        max_step=h)
        dense = sol.y.T.reshape(out.shape)
        errs.append(np.abs(out - dense).max())
    assert errs[0] <= 1e-7            # measured 1.7e-8; frozen with margin
    assert 12.0 <= errs[0] / errs[1] <= 20.0   # 4th-order one-step scheme


def test_transposed_sweep_agrees(f3):
    res = f3.recon
    rec = res.report["sweep_cross_check"]
    assert rec.passed
    assert rec.max_abs <= 1e-10   # constant connection: only roundoff differs


def test_frame_records_locate_their_worst_node(f3):
    res = f3.recon
    base = res.base_node
    s = res.frame
    alt = sweep_parallel_frame(EdgeFlows.of(f3.grid, f3.geom.connection, base), s[base],
                               axis_order=(1, 0))
    nodewise = {
        "reconstruction_on_product": product_defect(res.points, res.k),
        "sweep_cross_check": np.abs(alt - s).max(axis=(-1, -2)),
    }
    for name, field in nodewise.items():
        rec = res.report[name]
        assert rec.argmax_node != base, name
        assert rec.max_abs == field.max() == field[rec.argmax_node], name
        assert rec.mean_abs < rec.max_abs, name
    # The kernel sums S^T G S in another order than the einsum oracle, and the
    # defect is a difference of O(1) terms: the record's maximum and its node's
    # oracle value agree with the oracle's maximum up to round-off of those terms.
    gram = np.abs(oracle.gram_defect(s, f3.geom.gram, eta(s.shape[-1]))).max(axis=(-1, -2))
    rec = res.report["frame_orthonormality"]
    assert rec.argmax_node != base
    assert abs(rec.max_abs - gram.max()) <= 1e-13
    assert gram.max() - gram[rec.argmax_node] <= 1e-13
    assert rec.mean_abs < rec.max_abs
    assert res.report["reconstruction_on_product"].max_abs == res.on_product_defect


def test_assemble_base_point_pattern(f2):
    res = f2.recon
    base = res.base_node
    size = res.points.shape[-1]
    expected = np.zeros(size)
    expected[res.k] = 1.0
    expected[-1] = 1.0
    assert np.abs(res.points[base] - expected).max() <= 1e-12
    x = res.points[..., : res.k + 1]
    assert np.abs(np.einsum("...i,...i->...", x, x) - 1.0).max() <= 1e-8


def test_off_product_rebuild_fails_its_record(f2, monkeypatch):
    """Assembly does not raise on the defect: its record fails at the worst node."""
    sweep = reconstruct.sweep_parallel_frame
    monkeypatch.setattr(reconstruct, "sweep_parallel_frame",
                        lambda *args, **kwargs: 1.01 * sweep(*args, **kwargs))
    res = reconstruct_immersion(f2.geom, tolerances=f2.tolerances)
    record = res.report["reconstruction_on_product"]
    defect = product_defect(res.points, res.k)
    assert not record.passed and record.max_abs == defect.max() > 0.02
    assert record.argmax_node == argmax_node(defect)


def test_assemble_names_the_first_lower_sheet_node(f1):
    broken = f1.recon.frame.copy()
    broken[123] *= -1.0          # the point is then on the product, lower sheet
    with pytest.raises(ReconstructionError, match=r"lower sheet .* node \(123,\)") as err:
        assemble_immersion(broken, f1.recon.k)
    assert err.value.node == (123,)


def test_assemble_names_a_nan_node(f1):
    res = f1.recon
    broken = res.frame.copy()
    broken[57] = np.nan
    with pytest.raises(ReconstructionError, match=r"not finite at node \(57,\)") as err:
        assemble_immersion(broken, res.k)
    assert err.value.node == (57,)


def test_verify_reconstruction_residuals(f1, f2, f3):
    for fb in (f1, f2, f3):
        thr = 10 * fb.grid.h_max**2
        for rec in fb.recon.report.records:
            assert rec.max_abs <= thr, (rec.name, rec.max_abs, thr)


def _frame_map(res, gram, node=None):
    node = res.base_node if node is None else node
    return immersion_psi_field(res.frame[node], gram[node])


def test_align_same_run_identity(f2):
    res = f2.recon
    frame_map = _frame_map(res, f2.geom.gram)
    out = align_congruence(res.points, frame_map, res.k, res.points, frame_map, res.k)
    assert np.abs(out.isometry - np.eye(frame_map.shape[-1])).max() <= 1e-12
    assert out.max_distance <= 1e-12


def test_align_recovers_block_rotation(f2):
    res = f2.recon
    k = res.k
    rot = random_block_rotation(k + 1, seed=11)
    res_rot = reconstruct_immersion(f2.geom, tolerances=f2.tolerances, initial_rotation=rot)
    gram = f2.geom.gram
    out = align_congruence(res_rot.points, _frame_map(res_rot, gram), res_rot.k,
                           res.points, _frame_map(res, gram), res.k)
    size = gram.shape[-1]
    expected = np.eye(size)
    expected[: k + 1, : k + 1] = rot
    assert np.abs(out.isometry - expected).max() <= 1e-6
    assert out.max_distance <= 1e-8
    eta = np.eye(size)
    eta[-1, -1] = -1.0
    assert out.eta_defect <= 1e-8
    assert out.commutation_defect <= 1e-8


def test_align_requires_matching_k(f2):
    res = f2.recon
    frame_map = _frame_map(res, f2.geom.gram)
    with pytest.raises(StructureError):
        align_congruence(res.points, frame_map, res.k, res.points, frame_map, res.k - 1)


def test_base_point_covariance(f2):
    res0 = f2.recon
    edge = (0,)
    res_edge = reconstruct_immersion(f2.geom, tolerances=f2.tolerances, base_node=edge)
    assert res_edge.k == res0.k
    gram = f2.geom.gram
    out = align_congruence(res_edge.points, _frame_map(res_edge, gram, edge), res_edge.k,
                           res0.points, _frame_map(res0, gram, edge), res0.k)
    assert out.max_distance <= 10 * f2.grid.h_max**2


def _path_record(grid, conn, base, tolerances):
    return path_independence_residual(EdgeFlows.of(grid, conn, base), tolerances).records[0]


def test_path_independence_detects_incompatibility(f3):
    data = f3.data
    base = f3.recon.base_node
    clean = _path_record(f3.grid, f3.geom.connection, base, f3.tolerances).max_abs
    eps = 1e-2
    sg = data.sigma.values.copy()
    sg[..., 1, 1, 0] += eps
    conn_bad = Geometry(data.metric, data.bundle, SecondFormField(f3.grid, sg),
                        data.psi).connection
    broken = _path_record(f3.grid, conn_bad, base, f3.tolerances).max_abs
    assert broken - clean >= eps / 10


def test_path_independence_locates_a_local_bump(f3):
    data = f3.data
    base = f3.recon.base_node
    clean = _path_record(f3.grid, f3.geom.connection, base, f3.tolerances)
    assert clean.passed
    for node in ((20, 45), (0, 63), base):
        sg = data.sigma.values.copy()
        sg[node + (1, 1, 0)] += 1e-2
        conn_bad = Geometry(data.metric, data.bundle, SecondFormField(f3.grid, sg),
                            data.psi).connection
        rec = _path_record(f3.grid, conn_bad, base, f3.tolerances)
        assert not rec.passed, node
        # the bumped node is a corner of the plaquette whose lower corner is the argmax
        assert all(0 <= i - j <= 1 for i, j in zip(node, rec.argmax_node)), (node, rec)


def test_edge_flow_table_holds_each_edge_flow_away_from_the_base(f3):
    """Every entry is edge_flow across its edge in the sweep's direction, bit for bit."""
    grid3 = ChartGrid(dims=(9, 8, 7), spacing=(0.05, 0.06, 0.04), origin=(0.0, 0.0, 0.0))
    conn3, _ = _flat_test_connection(grid3)
    last = f3.grid.dims[0] - 1
    cases = [(f3.grid, f3.geom.connection, base) for base in ((0, 0), (21, 40), (last, 7))]
    cases.append((grid3, conn3, (2, 3, 1)))
    for grid, conn, base in cases:
        flows = EdgeFlows.of(grid, conn, base)
        assert flows.base == base
        for a, table in enumerate(flows.ops):
            edges = grid.dims[:a] + (grid.dims[a] - 1,) + grid.dims[a + 1:]
            assert table.shape == edges + conn.shape[-2:]
            om, h = conn[..., a, :, :], grid.spacing[a]
            for lower in np.ndindex(*edges):
                upper = lower[:a] + (lower[a] + 1,) + lower[a + 1:]
                src, dst, delta = (lower, upper, h) if lower[a] >= base[a] else (upper, lower, -h)
                assert np.array_equal(table[lower], edge_flow(om[src], om[dst], delta)), \
                    (grid.dims, base, a, lower)


def test_reconstruct_names_a_base_node_off_the_grid():
    imm, _ = fixture("F3")
    grid = ChartGrid(dims=(17, 17), spacing=(1.5 / 16, 1.5 / 16), origin=(0.0, 0.0))
    geom = extract_all(imm, grid)
    for node in ((-1, -1), (17, 3), (3,), (3.5, 4)):
        with pytest.raises(StructureError, match=re.escape(f"base node {node} ")):
            reconstruct_immersion(geom, ToleranceModel(), base_node=node)


def test_initial_frame_rotation_validation(f2):
    with pytest.raises(StructureError):
        initial_frame_from_split(np.eye(4)[:, :3], np.eye(4)[:, 3:],
                                 rotation=np.eye(2))
    with pytest.raises(StructureError):
        initial_frame_from_split(np.eye(4)[:, :2], np.eye(4)[:, 2:],
                                 rotation=np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_path_independence_matches_the_per_plaquette_oracle(f3):
    """Max and its node bit for bit, mean to rounding, from corner, interior and edge bases."""
    grid3 = ChartGrid(dims=(9, 8, 7), spacing=(0.05, 0.06, 0.04), origin=(0.0, 0.0, 0.0))
    conn3, _ = _flat_test_connection(grid3)
    last = f3.grid.dims[0] - 1
    cases = [(f3.grid, f3.geom.connection, base) for base in ((0, 0), (21, 40), (last, 7))]
    cases.append((grid3, conn3, (2, 3, 1)))
    for grid, conn, base in cases:
        rec = path_independence_residual(EdgeFlows.of(grid, conn, base), ToleranceModel())
        rec = rec["path_independence"]
        gap = per_plaquette_path_gap(grid, conn, base)
        assert gap.max() > 0, (grid.dims, base)
        assert rec.max_abs == gap.max(), (grid.dims, base)
        assert rec.argmax_node == np.unravel_index(gap.argmax(), grid.dims), (grid.dims, base)
        assert rec.mean_abs == pytest.approx(gap.mean(), rel=1e-12, abs=0.0), (grid.dims, base)
