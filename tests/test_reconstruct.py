import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from prodimm.errors import ReconstructionError, StructureError
from prodimm.fields import ChartGrid
from prodimm.flatbundle import FlatBundleConnection, FlatBundleGauge, build_connection
from prodimm.reconstruct import (align_congruence, assemble_immersion, edge_flow,
                                 immersion_psi_field, initial_frame_from_split,
                                 path_independence_residual,
                                 random_block_rotation, reconstruct_immersion,
                                 reorthonormalize_frame, sweep_parallel_frame,
                                 ImmersionField)
from prodimm.lorentz import product_defect
from prodimm.structure import ToleranceModel

from sweep_oracles import per_edge_parallel_frame


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
    data = f1.data
    conn = build_connection(data.metric, data.bundle, data.sigma, data.psi)
    gauge = FlatBundleGauge.from_metric(data.metric, data.bundle.rank)
    h = f1.grid.spacing[0]
    eta = gauge.signature
    frame = np.eye(gauge.size)
    moved = edge_flow(conn.values[0, 0], conn.values[1, 0], h) @ frame
    drift = np.abs(moved.T @ gauge.gram[1] @ moved - eta).max()
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
    return FlatBundleConnection(grid=grid, values=omega), frames


def test_sweep_three_axes_against_closed_form():
    grid = ChartGrid(dims=(9, 8, 7), spacing=(0.05, 0.06, 0.04), origin=(0.0, 0.0, 0.0))
    conn, frames = _flat_test_connection(grid)
    base = (2, 3, 1)
    out = sweep_parallel_frame(conn, frames[base], base_node=base)
    assert np.array_equal(out.values[base], frames[base])
    err = np.abs(out.values - frames).max()
    assert err <= 5 * grid.h_max**2
    rec = path_independence_residual(conn).records[0]
    assert rec.max_abs <= 5 * grid.h_max**2


def _transport_cases(f2_fd, f3):
    """(connection, initial frame, gauge, base, axis orders) to compare with the oracle.

    F2 on the FD route, F3 from a corner and an interior base, and the 3-D
    manufactured connection (no gauge: it is not Lorentz-orthogonal).
    """
    for fb, bases in ((f2_fd, [(0,)]), (f3, [(0, 0), (21, 40)])):
        data = fb.data
        conn = build_connection(data.metric, data.bundle, data.sigma, data.psi)
        gauge = FlatBundleGauge.from_metric(data.metric, data.bundle.rank)
        frame0 = fb.recon.frame.values[fb.recon.immersion.base_node]
        orders = [None] if fb.grid.ndim == 1 else [(0, 1), (1, 0)]
        for base in bases:
            yield conn, frame0, gauge, base, orders
    grid = ChartGrid(dims=(9, 8, 7), spacing=(0.05, 0.06, 0.04), origin=(0.0, 0.0, 0.0))
    conn, frames = _flat_test_connection(grid)
    yield conn, frames[2, 3, 1], None, (2, 3, 1), [None, (2, 0, 1)]


def test_sweep_bitwise_equals_per_edge_oracle(f2_fd, f3):
    for conn, frame0, gauge, base, orders in _transport_cases(f2_fd, f3):
        for order in orders:
            for reorth in (False, True) if gauge is not None else (False,):
                out = sweep_parallel_frame(conn, frame0, base_node=base, axis_order=order,
                                           gauge=gauge, reorthonormalize=reorth)
                ref = per_edge_parallel_frame(conn, frame0, base, order, gauge, reorth)
                assert np.array_equal(out.values, ref), (conn.grid.dims, base, order, reorth)


def test_sweep_matches_dense_ode_oracle():
    errs = []
    for h, n_nodes in ((0.16, 8), (0.08, 15)):
        grid = ChartGrid(dims=(n_nodes,), spacing=(h,), origin=(0.0,))
        conn, frames = _flat_test_connection(grid)
        out = sweep_parallel_frame(conn, frames[(0,)])
        t_nodes = grid.axis_coords(0)
        om = conn.values[:, 0]

        def rhs(t, y):
            i = min(int(t / h), n_nodes - 2)
            w = (t - t_nodes[i]) / h
            om_t = (1 - w) * om[i] + w * om[i + 1]
            return (-om_t @ y.reshape(om.shape[1:])).ravel()

        sol = scipy.integrate.solve_ivp(rhs, (0.0, t_nodes[-1]), frames[(0,)].ravel(),
                                        t_eval=t_nodes, rtol=1e-12, atol=1e-14,
                                        max_step=h)
        dense = sol.y.T.reshape(out.values.shape)
        errs.append(np.abs(out.values - dense).max())
    assert errs[0] <= 1e-7            # measured 1.7e-8; frozen with margin
    assert 12.0 <= errs[0] / errs[1] <= 20.0   # 4th-order one-step scheme


def test_transposed_sweep_agrees(f3):
    res = f3.recon
    rec = res.report["sweep_cross_check"]
    assert rec.passed
    assert rec.max_abs <= 1e-10   # constant connection: only roundoff differs


def test_frame_records_locate_their_worst_node(f3):
    res = f3.recon
    base = res.immersion.base_node
    s = res.frame.values
    gram = np.einsum("...ca,...cd,...db->...ab", s, res.gauge.gram, s)
    alt = sweep_parallel_frame(res.connection, s[base], base_node=base, axis_order=(1, 0))
    nodewise = {
        "frame_orthonormality": np.abs(gram - res.gauge.signature).max(axis=(-1, -2)),
        "reconstruction_on_product": product_defect(res.immersion.values, res.k),
        "sweep_cross_check": np.abs(alt.values - s).max(axis=(-1, -2)),
    }
    for name, field in nodewise.items():
        rec = res.report[name]
        assert rec.argmax_node != base, name
        assert rec.max_abs == field.max() == field[rec.argmax_node], name
        assert rec.mean_abs < rec.max_abs, name
    assert res.report["reconstruction_on_product"].max_abs == res.immersion.on_product_defect


def test_assemble_base_point_pattern(f2):
    res = f2.recon
    base = res.immersion.base_node
    size = res.gauge.size
    expected = np.zeros(size)
    expected[res.k] = 1.0
    expected[-1] = 1.0
    assert np.abs(res.immersion.values[base] - expected).max() <= 1e-12
    x = res.immersion.sphere_part
    assert np.abs(np.einsum("...i,...i->...", x, x) - 1.0).max() <= 1e-8


def test_assemble_rejects_off_product(f2):
    res = f2.recon
    frame = res.frame
    broken = type(frame)(grid=frame.grid, values=1.01 * frame.values,
                         base_node=frame.base_node)
    with pytest.raises(ReconstructionError):
        assemble_immersion(broken, res.gauge, res.k, tol=1e-8)


def test_verify_reconstruction_residuals(f1, f2, f3):
    for fb in (f1, f2, f3):
        thr = 10 * fb.grid.h_max**2
        for rec in fb.recon.report.records:
            assert rec.max_abs <= thr, (rec.name, rec.max_abs, thr)


def test_align_same_run_identity(f2):
    res = f2.recon
    psi_field = immersion_psi_field(res.frame, res.gauge)
    out = align_congruence(res.immersion, psi_field, res.immersion, psi_field)
    assert np.abs(out.isometry - np.eye(res.gauge.size)).max() <= 1e-12
    assert out.max_distance <= 1e-12


def test_align_recovers_block_rotation(f2):
    data = f2.data
    res = f2.recon
    k = res.k
    rot = random_block_rotation(k + 1, seed=11)
    res_rot = reconstruct_immersion(data.metric, data.bundle, data.sigma, data.psi,
                                    tolerances=f2.tolerances, initial_rotation=rot)
    out = align_congruence(res_rot.immersion,
                           immersion_psi_field(res_rot.frame, res_rot.gauge),
                           res.immersion,
                           immersion_psi_field(res.frame, res.gauge))
    size = res.gauge.size
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
    psi_field = immersion_psi_field(res.frame, res.gauge)
    other = ImmersionField(grid=res.immersion.grid, k=res.k - 1,
                           values=res.immersion.values,
                           base_node=res.immersion.base_node, on_product_defect=0.0)
    with pytest.raises(StructureError):
        align_congruence(res.immersion, psi_field, other, psi_field)


def test_base_point_covariance(f2):
    data = f2.data
    res0 = f2.recon
    mid = (f2.grid.dims[0] // 2,)
    res_mid = reconstruct_immersion(data.metric, data.bundle, data.sigma, data.psi,
                                    tolerances=f2.tolerances, base_node=mid)
    assert res_mid.k == res0.k
    out = align_congruence(res_mid.immersion,
                           immersion_psi_field(res_mid.frame, res_mid.gauge),
                           res0.immersion,
                           immersion_psi_field(res0.frame, res0.gauge),
                           node=mid)
    assert out.max_distance <= 10 * f2.grid.h_max**2


def test_reorthonormalize_restores_frames(f1):
    data = f1.data
    res = reconstruct_immersion(data.metric, data.bundle, data.sigma, data.psi,
                                tolerances=f1.tolerances, reorthonormalize=True)
    assert res.frame.orthonormality_defect(res.gauge) <= \
        f1.recon.frame.orthonormality_defect(res.gauge) + 1e-14


def test_reorthonormalize_frame_kernel():
    rng = np.random.default_rng(5)
    gram = np.diag([1.0, 1.0, 1.0, -1.0])
    frame = np.eye(4) + 0.05 * rng.normal(size=(4, 4))
    fixed = reorthonormalize_frame(frame, gram)
    assert np.abs(fixed.T @ gram @ fixed - gram).max() <= 1e-12


def test_path_independence_detects_incompatibility(f3):
    data = f3.data
    conn = build_connection(data.metric, data.bundle, data.sigma, data.psi)
    clean = path_independence_residual(conn, f3.tolerances).records[0].max_abs
    from prodimm.fields import SecondFormField
    eps = 1e-2
    sg = data.sigma.values.copy()
    sg[..., 1, 1, 0] += eps
    conn_bad = build_connection(data.metric, data.bundle,
                                SecondFormField(f3.grid, sg), data.psi)
    broken = path_independence_residual(conn_bad, f3.tolerances).records[0].max_abs
    assert broken - clean >= eps / 10


def test_initial_frame_rotation_validation(f2):
    with pytest.raises(StructureError):
        initial_frame_from_split(np.eye(4)[:, :3], np.eye(4)[:, 3:],
                                 rotation=np.eye(2))
    with pytest.raises(StructureError):
        initial_frame_from_split(np.eye(4)[:, :2], np.eye(4)[:, 2:],
                                 rotation=np.array([[1.0, 0.5], [0.0, 1.0]]))
