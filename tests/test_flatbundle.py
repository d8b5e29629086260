import numpy as np
import pytest

from prodimm.errors import DimensionError, ExclusionError, StructureError
from prodimm.fields import ChartGrid, SecondFormField, grad_field
from prodimm.flatbundle import (Geometry, build_connection, build_psi_tilde, eigen_split,
                                flatness_residual, metric_compatibility_residual,
                                psi_tilde_parallel_residual)
from prodimm.lorentz import eta
from prodimm.structure import (ToleranceModel, curvature_magnitude,
                               psi_tilde_derivative_magnitude)

from conftest import random_geometry, with_derived
from test_structure import constant_structure


@pytest.fixture()
def trivial():
    grid = ChartGrid(dims=(16,), spacing=(0.05,), origin=(0.0,))
    return Geometry(*constant_structure(grid))


def test_connection_matches_hand_assembly(trivial):
    conn = trivial.connection
    f, u = -0.28, 0.96
    expected = np.array([
        [0.0, 0.0, (1 + f) / 2, (1 - f) / 2],
        [0.0, 0.0, u / 2, -u / 2],
        [-(1 + f) / 2, -u / 2, 0.0, 0.0],
        [(1 - f) / 2, -u / 2, 0.0, 0.0],
    ])
    assert np.allclose(conn[3, 0], expected, atol=1e-15)


def test_connection_xi1_row_formula(f2):
    data = f2.data
    conn = build_connection(f2.geom)
    gv = data.metric.values
    gf = np.einsum("...kj,...km->...mj", gv, data.psi[..., :1, :1])   # the f block, n = 1
    i1 = 1 + 2  # n + p
    assert np.allclose(conn[..., 0, i1, 0], -0.5 * (gv + gf)[..., 0, 0],
                       atol=1e-15)


def test_connection_rebuild_is_bit_identical(f3):
    a = build_connection(f3.data)
    b = build_connection(f3.data)
    assert np.array_equal(a, b)


def test_metric_compatibility_trivial_exact(trivial):
    rec = metric_compatibility_residual(trivial, ToleranceModel()).records[0]
    assert rec.max_abs <= 1e-12


def test_metric_compatibility_fixtures(f1, f2, f3):
    for fb in (f1, f2, f3):
        rec = metric_compatibility_residual(fb.geom, fb.tolerances).records[0]
        assert rec.max_abs <= 10 * fb.grid.h_max**2


def test_gram_derivative_is_the_metric_derivative_padded_with_zeros(f1_fd, f2, f3_fd):
    # metric compatibility differences g alone: the rest of G differences to +0.0 exactly
    for fb in (f1_fd, f2, f3_fd):
        n = fb.grid.ndim
        full = grad_field(fb.grid, fb.geom.gram)
        assert np.array_equal(full[..., :n, :n], grad_field(fb.grid, fb.geom.metric.values))
        full[..., :n, :n] = 0.0
        assert not full.any() and not np.signbit(full).any()


def test_metric_compatibility_detects_dropped_term(f1):
    n, p = 1, 1
    values = f1.geom.connection.copy()
    values[..., n + p, n:n + p] = 0.0   # drop the bundle coupling into xi1~
    values[..., n + p + 1, n:n + p] = 0.0
    rec = metric_compatibility_residual(
        with_derived(f1.geom, connection=values),
        f1.tolerances).records[0]
    assert not rec.passed
    assert rec.max_abs >= 0.4  # the dropped coupling has size |u| ~ 0.96


def test_flatness_vacuous_on_curves(f1):
    rec = flatness_residual(f1.geom, f1.tolerances,
                            curvature_magnitude(f1.geom)).records[0]
    assert rec.passed and rec.max_abs == 0.0


def test_flatness_surface_and_detection(f3):
    data = f3.data
    rec = flatness_residual(f3.geom, f3.tolerances,
                            curvature_magnitude(f3.geom)).records[0]
    assert rec.passed
    assert rec.max_abs <= 10 * f3.grid.h_max**2
    sg = data.sigma.values.copy()
    sg[..., 1, 1, 0] += 1e-2   # the Gauss-coupled slot
    bad = Geometry(data.metric, data.bundle, SecondFormField(f3.grid, sg), data.psi)
    rec_bad = flatness_residual(bad, f3.tolerances, curvature_magnitude(bad)).records[0]
    assert not rec_bad.passed
    assert rec_bad.max_abs >= 5e-3


def test_psi_tilde_blocks(f2):
    vals = build_psi_tilde(f2.data.psi)
    size = vals.shape[-1]
    ident = np.eye(size)
    assert np.abs(np.einsum("...ab,...bc->...ac", vals, vals) - ident).max() <= 1e-10
    assert np.array_equal(vals[..., :, size - 1][..., -1], -np.ones(f2.grid.dims))
    gram = f2.data.gram
    lowered = np.einsum("...ab,...bc->...ac", gram, vals)
    assert np.abs(lowered - np.swapaxes(lowered, -1, -2)).max() <= 1e-10


def test_psi_tilde_parallel_trivial_and_fixtures(trivial, f1, f2, f3):
    rec = psi_tilde_parallel_residual(trivial, ToleranceModel(),
                                      psi_tilde_derivative_magnitude(trivial)).records[0]
    assert rec.max_abs <= 1e-12
    for fb in (f1, f2, f3):
        rec = psi_tilde_parallel_residual(fb.geom, fb.tolerances,
                                          psi_tilde_derivative_magnitude(fb.geom)).records[0]
        assert rec.max_abs <= 10 * fb.grid.h_max**2


def test_psi_tilde_parallel_detects_lambda_shift(f2):
    psi = f2.data.psi.copy()
    psi[..., 1, 1] += 0.05   # the curvature-coupled bundle slot
    geom = Geometry(f2.data.metric, f2.data.bundle, f2.data.sigma, psi)
    rec = psi_tilde_parallel_residual(geom, f2.tolerances,
                                      psi_tilde_derivative_magnitude(geom)).records[0]
    assert not rec.passed


def test_eigen_split_fixtures(f1, f2):
    for fb, want_k in ((f1, 1), (f2, 2)):
        data = fb.data
        base = (0,) * fb.grid.ndim
        gram = data.gram
        pt = build_psi_tilde(data.psi)
        k, b1, b2 = eigen_split(pt[base], gram[base],
                                fb.grid.ndim, data.bundle.rank)
        assert k == want_k
        assert b1.shape[1] == k + 1
        size = gram.shape[-1]
        frame = np.concatenate([b1, b2], axis=1)
        frame_gram = frame.T @ gram[base] @ frame
        assert np.abs(frame_gram - eta(size)).max() <= 1e-12
        # xi1~ closes the first block, timelike xi2~ closes the frame
        assert np.argmax(np.abs(b1[:, -1])) == size - 2
        assert np.argmax(np.abs(b2[:, -1])) == size - 1


INCONSISTENT = {   # case: (message, node) on a 6x7 chart with n = p = 2
    "psi_one_slot_short": (r"values of shape \(6, 7, 3, 3\), expected \(6, 7, 4, 4\)", None),
    "sigma_rank_p_plus_1": ("second form of rank 3 on a rank-2 bundle", None),
    "psi_nan": (r"non-finite value at node \(4, 2\)", (4, 2)),
}


@pytest.mark.parametrize("case", INCONSISTENT)
def test_geometry_rejects_an_inconsistent_datum(case):
    """psi is a finite (n+p, n+p) matrix at every node and sigma takes values in E."""
    message, node = INCONSISTENT[case]
    geom = random_geometry(5, (6, 7), 2)
    sigma, psi = geom.sigma, geom.psi.copy()
    if case == "psi_one_slot_short":
        psi = psi[..., :-1, :-1]
    elif case == "sigma_rank_p_plus_1":
        sigma = SecondFormField(geom.grid, np.concatenate([sigma.values] * 2, axis=-1)[..., :3])
    else:
        psi[4, 2, 1, 3] = np.nan
    with pytest.raises(DimensionError, match=message) as err:
        Geometry(geom.metric, geom.bundle, sigma, psi)
    assert err.value.node == node


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
        trace = np.trace(pt, axis1=-2, axis2=-1)
        ks = np.rint((trace + fb.grid.ndim + fb.data.bundle.rank) / 2.0).astype(int)
        assert np.all(ks == fb.immersion.k)
