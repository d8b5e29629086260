import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from prodimm.cli import check_dataset
from prodimm.errors import ExclusionError, GridMismatchError
from prodimm.fields import (BundleData, ChartGrid, MetricField, SecondFormField,
                            connection_curvature)
from prodimm.flatbundle import Geometry, flatness_residual
from prodimm.structure import (RECORD_NAMES, CheckRecord, Report, ToleranceModel,
                               check_all, check_codazzi, check_gauss, check_psi_algebra,
                               check_psi_parallel, check_ricci, magnitude, psi_blocks,
                               psi_tilde_derivative_magnitude)

from conftest import geometry_of


def constant_structure(grid, f_val=-0.28, u_val=0.96):
    """Flat 1-dim chart with a constant compatible structure (f^2 + u^2 = 1)."""
    dims = grid.dims
    g = MetricField(grid, np.ones(dims + (1, 1)))
    bundle = BundleData(grid, np.zeros(dims + (1, 1, 1)))
    sigma = SecondFormField(grid, np.zeros(dims + (1, 1, 1)))
    psi = np.tile([[f_val, u_val], [u_val, -f_val]], dims + (1, 1))
    return g, bundle, sigma, psi


@pytest.fixture()
def flat_line():
    return ChartGrid(dims=(16,), spacing=(0.05,), origin=(0.0,))


def test_constant_structure_passes_everything(flat_line):
    g, bundle, sigma, psi = constant_structure(flat_line)
    report = check_all(Geometry(g, bundle, sigma, psi), ToleranceModel())
    assert report.passed
    for name in ("psi_parallel_f", "psi_parallel_u", "psi_parallel_U",
                 "psi_parallel_lambda"):
        assert report[name].max_abs <= 1e-12


def test_identity_structure_is_rejected(flat_line):
    """psi = +-I passes the algebra records, but has no split: the first such node is named.

    A structure that is no involution keeps its failing records, whatever its trace.
    """
    g, bundle, sigma, compatible = constant_structure(flat_line)
    for sign in (1.0, -1.0):
        psi = compatible.copy()
        psi[5:] = sign * np.eye(2)
        with pytest.raises(ExclusionError, match=r"plus/minus the identity at node \(5,\)") as err:
            check_psi_algebra(Geometry(g, bundle, sigma, psi), ToleranceModel())
        assert err.value.node == (5,)
        psi[5:] *= 1.2
        report = check_psi_algebra(Geometry(g, bundle, sigma, psi), ToleranceModel())
        assert not report["psi_involution_tangent"].passed
        assert report["psi_involution_tangent"].argmax_node == (5,)


def test_psi_algebra_on_fixture_is_exact(f2):
    report = check_psi_algebra(f2.geom, ToleranceModel())
    for rec in report.records:
        assert rec.max_abs <= 1e-10, rec.name


def test_psi_algebra_detects_scaled_f(f2):
    scaled = f2.data.psi.copy()
    psi_blocks(scaled, 1)[0][...] *= 1.01
    report = check_psi_algebra(replace(f2.geom, psi=scaled), ToleranceModel())
    rec = report["psi_involution_tangent"]
    assert not rec.passed
    assert rec.max_abs == pytest.approx(0.0201, rel=1e-6)


def test_psi_algebra_grid_mismatch(f1, f2):
    with pytest.raises(GridMismatchError):
        check_psi_algebra(replace(f2.geom, psi=f1.data.psi), ToleranceModel())


def test_psi_parallel_totally_geodesic_fixture(f1):
    report = check_psi_parallel(f1.geom, f1.tolerances,
                                psi_tilde_derivative_magnitude(f1.geom))
    assert report.passed
    thr = 10 * f1.grid.h_max**2
    for rec in report.records:
        assert rec.max_abs <= thr


def test_psi_parallel_detects_varying_u(f2):
    eps = 1e-3
    t = f2.grid.coords()[..., 0]
    psi = f2.data.psi.copy()
    psi_blocks(psi, 1)[1][..., 0, 0] += eps * np.sin(2.0 * t)
    geom = replace(f2.geom, psi=psi)
    report = check_psi_parallel(geom, f2.tolerances, psi_tilde_derivative_magnitude(geom))
    rec = report["psi_parallel_u"]
    assert not rec.passed
    assert rec.max_abs >= eps / 2


def test_gauss_vacuous_on_curves(f1):
    rec = check_all(f1.geom, ToleranceModel())["gauss"]
    assert rec.max_abs == 0.0


def test_curvature_blocks_are_exactly_zero_on_curves(f2):
    # n = 1: F has no direction pair, so each of its records reduces an empty
    # free axis, to zero and without a RuntimeWarning; no (*dims, N, N) work
    # buffer is allocated for it
    f2.geom.connection
    tracemalloc.start()
    try:
        curv = connection_curvature(f2.grid, f2.geom.connection)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curv.shape == f2.grid.dims + (0, 5, 5)
    assert peak < f2.grid.n_nodes * 5 * 5 * 8
    names = ("gauss", "codazzi", "ricci", "bundle_flatness")
    report = check_dataset(geometry_of(f2.data), f2.tolerances)
    standalone = check_all(geometry_of(f2.data), f2.tolerances)
    alone = [check(f2.geom, f2.tolerances, magnitude(curv, 1)).records[0] for check in (
        check_gauss, check_codazzi, check_ricci, flatness_residual)]
    for rec in [rep[name] for rep in (report, standalone) for name in names] + alone:
        assert (rec.max_abs, rec.mean_abs, rec.argmax_node) == (0.0, 0.0, (0,)), rec.name


def test_merge_returns_record_name_order(f3):
    records = check_dataset(f3.geom, f3.tolerances).records
    assert [rec.name for rec in records] == list(RECORD_NAMES[:15])
    for parts in ([records[::-1]], [records[1::2], records[::2]],
                  [(rec,) for rec in reversed(records)]):
        merged = Report.merge(*(Report(part) for part in parts))
        assert merged.records == records


def test_merge_carries_each_block_and_joins_the_timings():
    grid = ChartGrid(dims=(5,), spacing=(0.1,), origin=(0.0,))
    checks = Report((CheckRecord("gauss", 0.0, 0.0, (0,), 1.0),), grid=grid,
                    timings={"structure": 1.0, "connection": 2.0})
    rebuild = Report((CheckRecord("path_independence", 0.0, 0.0, (1,), 1.0),),
                     reconstruction={"k": 1}, timings={"setup": 3.0, "structure": 4.0})
    merged = Report.merge(rebuild, checks, alignment={"max_distance": 0.5})
    assert merged.names() == ["gauss", "path_independence"]
    assert (merged.grid, merged.reconstruction, merged.alignment) == \
        (grid, {"k": 1}, {"max_distance": 0.5})
    assert list(merged.timings.items()) == [("setup", 3.0), ("structure", 1.0),
                                            ("connection", 2.0)]
    assert Report.merge(checks, grid=None, timings={}).grid is None
    assert Report.merge(Report(), Report()).timings is None


def test_gauss_passes_on_surface(f3):
    rec = check_all(f3.geom, f3.tolerances)["gauss"]
    assert rec.passed


def test_gauss_detects_coupled_sigma_slot(f3):
    eps = 1e-2
    sg = f3.data.sigma.values.copy()
    sg[..., 1, 1, 0] += eps
    rec = check_all(replace(f3.geom, sigma=SecondFormField(f3.grid, sg)),
                    f3.tolerances)["gauss"]
    assert not rec.passed
    cot = 1.0 / np.tan(f3.immersion.params["theta0"])
    assert rec.max_abs == pytest.approx(eps * cot, rel=1e-6)


def test_codazzi_passes_and_detects_u_shift(f3):
    tol = f3.tolerances
    base = check_all(f3.geom, tol)["codazzi"]
    assert base.passed
    eps = 1e-2
    psi = f3.data.psi.copy()
    psi_blocks(psi, 2)[1][..., 0, 0] += eps
    rec = check_all(replace(f3.geom, psi=psi), tol)["codazzi"]
    assert not rec.passed
    assert rec.max_abs == pytest.approx(eps, rel=1e-6)


def test_ricci_trivial_and_detects_omega(f2, f3):
    rec = check_all(f2.geom, ToleranceModel())["ricci"]
    assert rec.max_abs <= 1e-12  # one chart direction: both sides vanish
    rec = check_all(f3.geom, f3.tolerances)["ricci"]
    assert rec.passed
    eps = 1e-2
    om = f3.data.bundle.omega.copy()
    t2 = f3.grid.coords()[..., 1]
    width = f3.grid.spacing[1] * (f3.grid.dims[1] - 1)
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    om[..., 0, :, :] += (eps * np.sin(2 * np.pi * t2 / width))[..., None, None] * j
    bundle = BundleData(f3.grid, om)
    rec = check_all(replace(f3.geom, bundle=bundle), f3.tolerances)["ricci"]
    assert not rec.passed
    assert rec.max_abs >= eps


def _regauge(data, angle):
    """Constant orthonormal change of the bundle frame (rank 2)."""
    grid = data.grid
    c, s = np.cos(angle), np.sin(angle)
    q = np.array([[c, -s], [s, c]])
    sigma = SecondFormField(grid, np.einsum("ab,...ijb->...ija", q, data.sigma.values))
    om = np.einsum("ab,...mbc,...dc->...mad", q, data.bundle.omega,
                   np.broadcast_to(q, data.bundle.omega.shape[:-3] + (2, 2)))
    bundle = BundleData(grid, om)
    f, u, big_u, lam = psi_blocks(data.psi, 2)
    new_psi = np.block([[f, np.einsum("...ib,ab->...ia", big_u, q)],
                        [np.einsum("ab,...bj->...aj", q, u),
                         np.einsum("ab,...bc,dc->...ad", q, lam, q)]])
    return bundle, sigma, new_psi


def test_checks_invariant_under_regauge(f3):
    tol = f3.tolerances
    base = check_all(f3.geom, tol)
    bundle, sigma, psi = _regauge(f3.data, angle=0.7)
    gauged = check_all(Geometry(f3.data.metric, bundle, sigma, psi), tol)
    for rec_a, rec_b in zip(base.records, gauged.records):
        assert rec_a.name == rec_b.name
        assert abs(rec_a.max_abs - rec_b.max_abs) < 1e-10


def test_targeted_residual_monotone_in_noise(f3, rng):
    tol = f3.tolerances
    base = check_all(f3.geom, tol)["gauss"]
    noise = rng.normal(size=f3.data.sigma.values.shape)
    noise = 0.5 * (noise + np.swapaxes(noise, -3, -2))
    for eps in (10 * f3.grid.h_max**2, 100 * f3.grid.h_max**2):
        sg = SecondFormField(f3.grid, f3.data.sigma.values + eps * noise)
        rec = check_all(replace(f3.geom, sigma=sg), tol)["gauss"]
        assert rec.max_abs >= base.max_abs


def test_tolerance_model_thresholds():
    tol = ToleranceModel(factor=5.0, floor=1e-9, algebraic=None,
                         overrides={"gauss": 1e-3})
    grid = ChartGrid(dims=(5,), spacing=(0.1,), origin=(0.0,))
    assert tol.threshold("gauss", grid) == 1e-3
    assert tol.threshold("codazzi", grid) == pytest.approx(0.05)
    assert tol.threshold("psi_f_symmetric", grid) == pytest.approx(0.05)
    assert ToleranceModel().threshold("psi_f_symmetric", grid) == 1e-10
