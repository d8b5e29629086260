import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from prodimm.cli import check_dataset
from prodimm.errors import ExclusionError, GridMismatchError
from prodimm.fields import BundleData, ChartGrid, SecondFormField, connection_curvature
from prodimm.flatbundle import Geometry, flatness_residual
from prodimm.structure import (RECORD_NAMES, CheckRecord, Report, ToleranceModel,
                               check_all, check_codazzi, check_gauss, check_psi_algebra,
                               check_ricci, magnitude, psi_blocks)

from conftest import PLANTED, geometry_of


def test_identity_structure_is_rejected(constant):
    """psi = +-I passes the algebra records, but has no split: the first such node is named.

    A structure that is no involution keeps its failing records, whatever its trace.
    """
    for sign in (1.0, -1.0):
        psi = constant.geom.psi.copy()
        psi[5:] = sign * np.eye(2)
        with pytest.raises(ExclusionError, match=r"plus/minus the identity at node \(5,\)") as err:
            check_psi_algebra(replace(constant.geom, psi=psi), ToleranceModel())
        assert err.value.node == (5,)
        psi[5:] *= 1.2
        report = check_psi_algebra(replace(constant.geom, psi=psi), ToleranceModel())
        assert not report["psi_involution_tangent"].passed
        assert report["psi_involution_tangent"].argmax_node == (5,)


def test_psi_algebra_grid_mismatch(f1, f2):
    with pytest.raises(GridMismatchError):
        check_psi_algebra(replace(f2.geom, psi=f1.data.psi), ToleranceModel())


@pytest.mark.parametrize("name", ["f1", "f2"])
def test_curvature_blocks_are_exactly_zero_on_curves(name, request):
    # n = 1: F has no direction pair, so each of its records reduces an empty
    # free axis, to zero and without a RuntimeWarning; no (*dims, N, N) work
    # buffer is allocated for it
    fb = request.getfixturevalue(name)
    size = fb.geom.gram.shape[-1]
    fb.geom.connection
    tracemalloc.start()
    try:
        curv = connection_curvature(fb.grid, fb.geom.connection)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curv.shape == fb.grid.dims + (0, size, size)
    assert peak < fb.grid.n_nodes * size * size * 8
    names = ("gauss", "codazzi", "ricci", "bundle_flatness")
    report = check_dataset(geometry_of(fb.data), fb.tolerances)
    standalone = check_all(geometry_of(fb.data), fb.tolerances)
    alone = [check(fb.geom, fb.tolerances, magnitude(curv, 1)).records[0] for check in (
        check_gauss, check_codazzi, check_ricci, flatness_residual)]
    for rec in [rep[name] for rep in (report, standalone) for name in names] + alone:
        assert (rec.max_abs, rec.mean_abs, rec.argmax_node) == (0.0, 0.0, (0,)), rec.name


@pytest.mark.parametrize("row", PLANTED)
def test_planted_fault_fails_exactly_its_records(row, request):
    """Each planted violation of the paper's equations fails exactly its ``check`` records,
    and each named max_abs lies within its bounds."""
    planted = PLANTED[row]
    base = request.getfixturevalue(planted.fixture)
    report = check_dataset(planted.geometry(base.geom), base.tolerances)
    assert {rec.name for rec in report.records if not rec.passed} == planted.fails
    for name, (low, high) in planted.values.items():
        assert low <= report[name].max_abs <= high, (name, report[name].max_abs)


def test_planted_faults_fail_every_record_but_metric_compatibility():
    """Some planted fault fails each of the 15 ``check`` records but
    bundle_metric_compatibility.  That record is an identity of ``build_connection``
    (``test_metric_compatibility_is_an_identity_of_the_connection``), so no datum can fail
    it; ``test_metric_compatibility_detects_dropped_term`` fails it by tampering with Omega."""
    failed = set().union(*(planted.fails for planted in PLANTED.values()))
    assert failed == set(RECORD_NAMES[:15]) - {"bundle_metric_compatibility"}


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


def test_gauss_detects_coupled_sigma_slot(f3):
    eps = 1e-2
    sg = f3.data.sigma.values.copy()
    sg[..., 1, 1, 0] += eps
    rec = check_all(replace(f3.geom, sigma=SecondFormField(f3.grid, sg)),
                    f3.tolerances)["gauss"]
    assert not rec.passed
    cot = 1.0 / np.tan(f3.immersion.params["theta0"])
    assert rec.max_abs == pytest.approx(eps * cot, rel=1e-6)


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
