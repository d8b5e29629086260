import numpy as np
import pytest

from prodimm.errors import ExclusionError, StructureError
from prodimm.fields import ChartGrid
from prodimm.flatbundle import (FlatBundleConnection, FlatBundleGauge, build_connection,
                                build_psi_tilde, eigen_split,
                                flatness_residual, metric_compatibility_residual,
                                psi_tilde_parallel_residual)
from prodimm.structure import ToleranceModel

from test_structure import constant_structure


@pytest.fixture()
def trivial():
    grid = ChartGrid(dims=(16,), spacing=(0.05,), origin=(0.0,))
    g, bundle, sigma, psi = constant_structure(grid)
    conn = build_connection(g, bundle, sigma, psi)
    gauge = FlatBundleGauge.from_metric(g, 1)
    return grid, g, bundle, sigma, psi, conn, gauge


def test_connection_matches_hand_assembly(trivial):
    _, _, _, _, psi, conn, _ = trivial
    f, u = -0.28, 0.96
    expected = np.array([
        [0.0, 0.0, (1 + f) / 2, (1 - f) / 2],
        [0.0, 0.0, u / 2, -u / 2],
        [-(1 + f) / 2, -u / 2, 0.0, 0.0],
        [(1 - f) / 2, -u / 2, 0.0, 0.0],
    ])
    assert np.allclose(conn.values[3, 0], expected, atol=1e-15)


def test_connection_xi1_row_formula(f2):
    data = f2.data
    conn = build_connection(data.metric, data.bundle, data.sigma, data.psi)
    gv = data.metric.values
    gf = np.einsum("...kj,...km->...mj", gv, data.psi.f.values)
    i1 = 1 + 2  # n + p
    assert np.allclose(conn.values[..., 0, i1, 0], -0.5 * (gv + gf)[..., 0, 0],
                       atol=1e-15)


def test_connection_rebuild_is_bit_identical(f3):
    data = f3.data
    a = build_connection(data.metric, data.bundle, data.sigma, data.psi)
    b = build_connection(data.metric, data.bundle, data.sigma, data.psi)
    assert np.array_equal(a.values, b.values)


def test_metric_compatibility_trivial_exact(trivial):
    _, _, _, _, _, conn, gauge = trivial
    rec = metric_compatibility_residual(conn, gauge).records[0]
    assert rec.max_abs <= 1e-12


def test_metric_compatibility_fixtures(f1, f2, f3):
    for fb in (f1, f2, f3):
        data = fb.data
        conn = build_connection(data.metric, data.bundle, data.sigma, data.psi)
        gauge = FlatBundleGauge.from_metric(data.metric, data.bundle.rank)
        rec = metric_compatibility_residual(conn, gauge, fb.tolerances).records[0]
        assert rec.max_abs <= 10 * fb.grid.h_max**2


def test_metric_compatibility_detects_dropped_term(f1):
    data = f1.data
    conn = build_connection(data.metric, data.bundle, data.sigma, data.psi)
    gauge = FlatBundleGauge.from_metric(data.metric, data.bundle.rank)
    n, p = 1, 1
    values = conn.values.copy()
    values[..., n + p, n:n + p] = 0.0   # drop the bundle coupling into xi1~
    values[..., n + p + 1, n:n + p] = 0.0
    rec = metric_compatibility_residual(FlatBundleConnection(f1.grid, values),
                                        gauge, f1.tolerances).records[0]
    assert not rec.passed
    assert rec.max_abs >= 0.4  # the dropped coupling has size |u| ~ 0.96


def test_flatness_vacuous_on_curves(f1):
    data = f1.data
    conn = build_connection(data.metric, data.bundle, data.sigma, data.psi)
    rec = flatness_residual(conn, f1.tolerances).records[0]
    assert rec.passed and rec.max_abs == 0.0


def test_flatness_surface_and_detection(f3):
    data = f3.data
    conn = build_connection(data.metric, data.bundle, data.sigma, data.psi)
    rec = flatness_residual(conn, f3.tolerances).records[0]
    assert rec.passed
    assert rec.max_abs <= 10 * f3.grid.h_max**2
    from prodimm.fields import SecondFormField
    sg = data.sigma.values.copy()
    sg[..., 1, 1, 0] += 1e-2   # the Gauss-coupled slot
    conn_bad = build_connection(data.metric, data.bundle,
                                SecondFormField(f3.grid, sg), data.psi)
    rec_bad = flatness_residual(conn_bad, f3.tolerances).records[0]
    assert not rec_bad.passed
    assert rec_bad.max_abs >= 5e-3


def test_psi_tilde_blocks(f2):
    pt = build_psi_tilde(f2.data.psi)
    vals = pt.values
    size = vals.shape[-1]
    ident = np.eye(size)
    assert np.abs(np.einsum("...ab,...bc->...ac", vals, vals) - ident).max() <= 1e-10
    assert np.array_equal(vals[..., :, size - 1][..., -1], -np.ones(f2.grid.dims))
    gauge = FlatBundleGauge.from_metric(f2.data.metric, f2.data.bundle.rank)
    lowered = np.einsum("...ab,...bc->...ac", gauge.gram, vals)
    assert np.abs(lowered - np.swapaxes(lowered, -1, -2)).max() <= 1e-10


def test_psi_tilde_parallel_trivial_and_fixtures(trivial, f1, f2, f3):
    _, _, _, _, psi, conn, _ = trivial
    rec = psi_tilde_parallel_residual(conn, build_psi_tilde(psi)).records[0]
    assert rec.max_abs <= 1e-12
    for fb in (f1, f2, f3):
        data = fb.data
        c = build_connection(data.metric, data.bundle, data.sigma, data.psi)
        rec = psi_tilde_parallel_residual(c, build_psi_tilde(data.psi),
                                          fb.tolerances).records[0]
        assert rec.max_abs <= 10 * fb.grid.h_max**2


def test_psi_tilde_parallel_detects_lambda_shift(f2):
    data = f2.data
    conn = build_connection(data.metric, data.bundle, data.sigma, data.psi)
    pt = build_psi_tilde(data.psi)
    vals = pt.values.copy()
    vals[..., 1, 1] += 0.05   # the curvature-coupled bundle slot
    from prodimm.flatbundle import PsiTildeField
    rec = psi_tilde_parallel_residual(conn, PsiTildeField(f2.grid, vals),
                                      f2.tolerances).records[0]
    assert not rec.passed


def test_eigen_split_fixtures(f1, f2):
    for fb, want_k in ((f1, 1), (f2, 2)):
        data = fb.data
        base = (0,) * fb.grid.ndim
        gauge = FlatBundleGauge.from_metric(data.metric, data.bundle.rank)
        pt = build_psi_tilde(data.psi)
        k, b1, b2 = eigen_split(pt.values[base], gauge.gram[base],
                                fb.grid.ndim, data.bundle.rank)
        assert k == want_k
        assert b1.shape[1] == k + 1
        size = gauge.size
        frame = np.concatenate([b1, b2], axis=1)
        gram = frame.T @ gauge.gram[base] @ frame
        assert np.abs(gram - gauge.signature).max() <= 1e-12
        # xi1~ closes the first block, timelike xi2~ closes the frame
        assert np.argmax(np.abs(b1[:, -1])) == size - 2
        assert np.argmax(np.abs(b2[:, -1])) == size - 1


def test_eigen_split_rejects_identity():
    grid = ChartGrid(dims=(5,), spacing=(0.1,), origin=(0.0,))
    size = 4
    pt = np.eye(size)
    pt[-1, -1] = -1.0
    pt[-2, -2] = 1.0
    gram = np.eye(size)
    gram[-1, -1] = -1.0
    with pytest.raises(ExclusionError):
        eigen_split(pt, gram, 1, 1)


def test_eigen_split_rejects_bad_spectrum():
    gram = np.diag([1.0, 1.0, 1.0, -1.0])
    with pytest.raises(StructureError):
        eigen_split(0.5 * np.eye(4), gram, 1, 1)


def test_eigen_multiplicity_sweep_constant(f2, f3):
    for fb in (f2, f3):
        pt = build_psi_tilde(fb.data.psi)
        trace = np.trace(pt.values, axis1=-2, axis2=-1)
        ks = np.rint((trace + fb.grid.ndim + fb.data.bundle.rank) / 2.0).astype(int)
        assert np.all(ks == fb.immersion.k)
