import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from prodimm import reconstruct
from prodimm.cli import check_dataset
from prodimm.errors import ReconstructionError, StructureError
from prodimm.extract import default_tolerances, extract_all
from prodimm.fields import ChartGrid, SecondFormField, argmax_node
from prodimm.flatbundle import Geometry, build_psi_tilde, eigen_split
from prodimm.reconstruct import (EdgeFlows, align_congruence, assemble_immersion, edge_flow,
                                 immersion_psi_field, path_independence_residual,
                                 random_block_rotation, reconstruct_immersion,
                                 sweep_parallel_frame)
from prodimm.lorentz import eta, product_defect
from prodimm.structure import ToleranceModel

import kernel_oracles as oracle
from conftest import refine, reparametrized_f3, twisted_f3, twisted_f3_extraction
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


def test_twisted_normal_connection_is_rebuilt_to_second_order():
    """On a twisted F3 check and the rebuild pass, and the rebuilt normal connection
    converges to omega like h^2 (measured 1.96e-3 at 64^2, 4.77e-4 at 127^2)."""
    gaps = []
    for dims in (64, 127):
        geom = twisted_f3(dims)
        tol = geom.tolerances
        assert np.abs(geom.bundle.omega).max() >= 1.9
        assert check_dataset(geom, tol).passed, dims
        report = reconstruct_immersion(geom, tol).report
        assert report.passed, dims
        gaps.append(report["reconstruction_normal_connection"].max_abs)
    assert 3.5 <= gaps[0] / gaps[1] <= 4.5, gaps


def test_normal_connection_record_sees_turned_normals():
    """A Gaussian turn eps exp(-r^2 / 0.05) of the rebuilt normals, eps = 1e-3 about the
    chart centre, keeps them orthonormal and normal but adds its gradient, up to 3.8e-3,
    to their connection: 2.7 times the 127^2 threshold."""
    geom = twisted_f3(127)
    tol = geom.tolerances
    res = reconstruct_immersion(geom, tol)
    x, y = np.moveaxis(geom.grid.coords(), -1, 0)
    turn = 1e-3 * np.exp(-((x - 0.75) ** 2 + (y - 0.75) ** 2) / 0.05)
    c, s = np.cos(turn), np.sin(turn)
    frame = res.frame.copy()
    frame[..., 2:4, :] = np.stack([c, -s, s, c], axis=-1).reshape(geom.grid.dims + (2, 2)) \
        @ res.frame[..., 2:4, :]
    report = reconstruct.verify_reconstruction(res.points, frame, res.k, geom, tol)
    clean = res.report["reconstruction_normal_connection"]
    planted = report["reconstruction_normal_connection"]
    assert clean.passed and not planted.passed
    assert planted.max_abs >= 2.5 * planted.threshold
    assert report["reconstruction_isometry"] == res.report["reconstruction_isometry"]
    assert report["reconstruction_normal_orthogonality"].max_abs <= 1e-9


def _frame_map(res, gram, node=None):
    node = res.base_node if node is None else node
    return immersion_psi_field(res.frame[node], gram[node])


def _aligned_distances(sources):
    """Check and rebuild each extraction, and align the rebuild with its points and with the
    frame of its normals: the max node distances, each checked within the h^2 budget."""
    distances = []
    for source in sources:
        tol = default_tolerances(source)
        assert check_dataset(source, tol).passed, source.grid
        result = reconstruct_immersion(source, tol)
        assert result.report.passed, source.grid
        report = align_congruence(result.points, result.report.reconstruction["psi_base"],
                                  result.k, source.points, source.ambient_frame(result.base_node),
                                  source.k, tol.h2_budget(source.grid))
        assert report.aligned, (source.grid, report.alignment)
        distances.append(report.alignment["max_distance"])
    return distances


def test_twisted_rebuild_aligns_with_its_source():
    """The rebuild of twisted F3 aligns with the source points and with the ambient frame of
    the turned normals, and the distance falls like h^2 (measured 1.57e-4 at 64^2 and
    3.86e-5 at 127^2, against budgets 5.67e-3 and 1.42e-3)."""
    distances = _aligned_distances(twisted_f3_extraction(dims) for dims in (64, 127))
    assert 3.5 <= distances[0] / distances[1] <= 4.5, distances


@pytest.mark.parametrize("use_analytic", [True, False], ids=["analytic", "fd"])
def test_reparametrized_f3_passes_the_whole_pipeline(use_analytic):
    """F3 on a chart whose metric is not the identity (|g - I| = 0.45, so Gamma != 0): the
    checks and the rebuild pass, and the rebuild aligns with the source to O(h^2)
    (measured 8.7e-5 analytic and 2.7e-4 fd at 64^2, against a 5.67e-3 budget)."""
    imm, grid = reparametrized_f3()
    sources = [extract_all(imm, g, use_analytic) for g in (grid, refine(grid))]
    assert np.abs(sources[0].metric.values - np.eye(2)).max() >= 0.44
    distances = _aligned_distances(sources)
    assert 3.5 <= distances[0] / distances[1] <= 4.5, distances


def test_align_same_run_identity(f2):
    res = f2.recon
    frame_map = _frame_map(res, f2.geom.gram)
    out = align_congruence(res.points, frame_map, res.k, res.points, frame_map, res.k).alignment
    size = frame_map.shape[-1]
    assert np.abs(np.reshape(out["isometry"], (size, size)) - np.eye(size)).max() <= 1e-12
    assert out["max_distance"] <= 1e-12


def test_align_recovers_block_rotation(f2):
    res = f2.recon
    k = res.k
    rot = random_block_rotation(k + 1, seed=11)
    res_rot = reconstruct_immersion(f2.geom, tolerances=f2.tolerances, seed_frame=11)
    gram = f2.geom.gram
    out = align_congruence(res_rot.points, _frame_map(res_rot, gram), res_rot.k,
                           res.points, _frame_map(res, gram), res.k).alignment
    size = gram.shape[-1]
    expected = np.eye(size)
    expected[: k + 1, : k + 1] = rot
    assert np.abs(np.reshape(out["isometry"], (size, size)) - expected).max() <= 1e-6
    assert out["max_distance"] <= 1e-8
    assert out["eta_defect"] <= 1e-8
    assert out["commutation_defect"] <= 1e-8


def test_align_requires_matching_k(f2):
    res = f2.recon
    frame_map = _frame_map(res, f2.geom.gram)
    with pytest.raises(StructureError):
        align_congruence(res.points, frame_map, res.k, res.points, frame_map, res.k - 1)


def test_base_point_covariance(f2):
    """A rebuild swept from either end of the chart is congruent to the centre-based one."""
    res0, geom = f2.recon, f2.geom
    gram = geom.gram
    for edge in ((0,), (f2.grid.dims[0] - 1,)):
        k, b1, b2 = eigen_split(build_psi_tilde(geom.psi[edge]), gram[edge], f2.grid.ndim,
                                geom.p)
        assert k == res0.k
        frame = sweep_parallel_frame(EdgeFlows.of(f2.grid, geom.connection, edge),
                                     np.concatenate([b1, b2], axis=1))
        points, _ = assemble_immersion(frame, k)
        out = align_congruence(points, immersion_psi_field(frame[edge], gram[edge]), k,
                               res0.points, _frame_map(res0, gram, edge), res0.k)
        assert out.alignment["max_distance"] <= 10 * f2.grid.h_max**2, edge


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
