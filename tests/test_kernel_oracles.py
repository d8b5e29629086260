"""The matmul kernels against their einsum oracles in ``kernel_oracles.py``.

Every kernel is compared on F3 and on random data with none of the symmetries
of real data (non-symmetric f and lambda, independent u and U, a non-skew big
connection, a non-symmetric psi~ and Gram matrix), on a 2-dim chart with p = 3
and a 3-dim chart with p = 2, so a transposed operand or a swapped index cannot
hide.
"""

import numpy as np
import pytest

import kernel_oracles as oracle
from conftest import geometry_of, random_geometry, with_derived
from prodimm import fields, flatbundle, structure
from prodimm.cli import check_dataset
from prodimm.extract import induced_structure
from prodimm.fields import ChartGrid, SecondFormField
from prodimm.flatbundle import Geometry
from prodimm.lorentz import eta, gram_defect
from prodimm.reconstruct import (assemble_immersion, immersion_psi_field, reconstruct_immersion,
                                 verify_reconstruction)
from prodimm.structure import Report, ToleranceModel

REL = 1e-13


def assert_close(new, ref, label):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape, label
    scale = max(float(np.abs(ref).max()), 1.0)
    assert np.abs(new - ref).max() <= REL * scale, label


def assert_reports_close(new, ref):
    assert new.names() == ref.names()
    for a, b in zip(new.records, ref.records):
        for x, y in ((a.max_abs, b.max_abs), (a.mean_abs, b.mean_abs)):
            assert abs(x - y) <= REL * max(abs(y), 1.0), (a.name, x, y)


def assert_same_record(new, ref):
    """Max, argmax node, threshold and verdict bitwise (NaN equal to NaN), mean to 1e-12."""
    assert (new.name, new.argmax_node, new.threshold, new.passed) == \
        (ref.name, ref.argmax_node, ref.threshold, ref.passed)
    assert np.array_equal(new.max_abs, ref.max_abs, equal_nan=True), (new.name, new, ref)
    assert new.mean_abs == pytest.approx(ref.mean_abs, rel=1e-12, abs=0.0, nan_ok=True), new.name


@pytest.mark.parametrize("dims", [(23,), (7, 9), (5, 6, 7)])
def test_record_reduction_matches_the_reference(dims):
    """``make_record`` and ``node_record`` of slices of one node-last magnitude,
    against the reduction in the residual's own layout."""
    rng = np.random.default_rng(len(dims))
    nd = len(dims)
    grid = ChartGrid(dims=dims, spacing=(0.1,) * nd, origin=(0.0,) * nd)
    full = rng.normal(size=dims + (3, 6, 6))
    blocks = {   # name: (the residual, the same block of magnitude(full))
        "whole": (full, lambda m: m),
        "block": (full[..., 2:5, :2], lambda m: m[:, 2:5, :2]),
        "swapped": (2.0 * np.swapaxes(full[..., 1:, 4:, :3], -1, -2),
                    lambda m: 2.0 * m[1:, 4:, :3]),
        "empty free axis": (full[..., :0, :, :], lambda m: m[:0]),
    }
    mag = structure.magnitude(full, nd)
    assert mag.shape == full.shape[nd:] + dims and mag.flags.c_contiguous
    for name, (resid, block) in blocks.items():
        for weight in (1.0, 0.5):
            want = oracle.record_reference(name, resid, grid, 2.5, weight)
            assert_same_record(oracle.make_record(name, resid, grid, 2.5, weight), want)
            assert_same_record(structure.node_record(name, block(mag), grid, 2.5, weight), want)
    no_free = full[..., 0, 1, 2]   # one value per node, as reconstruction_on_product
    assert_same_record(oracle.make_record("no free axes", no_free, grid, 2.5),
                       oracle.record_reference("no free axes", no_free, grid, 2.5))

    node = tuple(int(rng.integers(d)) for d in dims)
    planted = full.copy()
    planted[node + (2, 3, 1)] = np.nan
    for resid in (planted, planted[..., 2:, 1:4, :2]):
        rec = oracle.make_record("planted", resid, grid, 2.5)
        assert_same_record(rec, oracle.record_reference("planted", resid, grid, 2.5))
        assert not rec.passed and rec.argmax_node == node


def with_random_bundle(geom: Geometry, seed: int) -> Geometry:
    """A copy whose Gram matrix, big connection and structure psi are random, non-symmetric
    matrices; psi~ is the padding of that psi."""
    rng = np.random.default_rng(seed)
    grid, n, p = geom.grid, geom.grid.ndim, geom.p
    size = n + p + 2
    return with_derived(
        Geometry(geom.metric, geom.bundle, geom.sigma, rng.normal(size=geom.psi.shape)),
        gram=rng.normal(size=grid.dims + (size, size)),
        connection=rng.normal(size=grid.dims + (n, size, size)))


CASES = ("f3", "random2", "random3")


@pytest.fixture(params=CASES)
def geom(request, f3):
    if request.param == "f3":
        return geometry_of(f3.data)
    if request.param == "random2":
        return random_geometry(11, (7, 8), p=3)
    return random_geometry(12, (5, 6, 7), p=2)


def test_field_kernels_match_oracles(geom):
    g, sigma, bundle = geom.metric, geom.sigma, geom.bundle
    assert_close(fields.christoffel(g), oracle.christoffel(g), "christoffel")
    assert_close(oracle.riemann_full(geom.grid, fields.curvature_tensor(g)),
                 oracle.curvature_tensor(g), "riemann")
    assert_close(fields.shape_operator_field(sigma, g), oracle.shape_operator_field(sigma, g),
                 "shape operators")
    big = with_random_bundle(geom, 5).connection
    full = oracle.connection_curvature(geom.grid, big)
    pairs = [full[..., m, k, :, :] for m, k in zip(*np.triu_indices(geom.grid.ndim, 1))]
    assert_close(fields.connection_curvature(geom.grid, big),
                 np.stack(pairs, axis=geom.grid.ndim), "connection curvature over pairs")
    # the covariant derivative of each psi block under Gamma (+) omega is that
    # block of the endomorphism derivative; that of sigma is read off the
    # Codazzi block 2 F[..., n:n+p, :n] of the big connection's curvature
    n, p = geom.grid.ndim, geom.p
    chris = fields.christoffel(g)
    conn = np.zeros(geom.grid.dims + (n, n + p, n + p))
    conn[..., :n, :n] = np.swapaxes(chris, -3, -2)
    conn[..., n:, n:] = bundle.omega
    d_psi = oracle.blocks(fields.endomorphism_derivative(geom.grid, geom.psi, conn), n)
    for d_block, values, slots in zip(d_psi, oracle.blocks(geom.psi, n), oracle.PSI_SLOTS):
        assert_close(d_block,
                     oracle.covariant_derivative(geom.grid, values, slots, chris, bundle.omega),
                     f"covariant derivative {slots}")
    curv = oracle.expand_pairs(geom.grid, fields.connection_curvature(geom.grid, geom.connection))
    codazzi = 2.0 * np.swapaxes(curv[..., n:n + p, :n], -1, -2)
    assert_close(codazzi, oracle.codazzi_residual(g, bundle, sigma, geom.psi),
                 "covariant derivative ('td', 'td', 'bu') in the Codazzi block")


def test_structure_checks_match_oracles(geom):
    tol = ToleranceModel()
    g, bundle, sigma, psi = geom.metric, geom.bundle, geom.sigma, geom.psi
    checks = structure.check_all(geom, tol)
    for want in (oracle.check_psi_algebra(g, psi, tol),
                 oracle.check_psi_parallel(g, bundle, sigma, psi, tol),
                 oracle.check_gauss(g, sigma, psi, tol),
                 oracle.check_codazzi(g, bundle, sigma, psi, tol),
                 oracle.check_ricci(g, bundle, sigma, tol)):
        assert_reports_close(structure.Report(tuple(checks[n] for n in want.names())),
                             want)


def test_flat_bundle_kernels_match_oracles(geom):
    tol = ToleranceModel()
    grid = geom.grid
    assert_close(flatbundle.build_connection(geom),
                 oracle.build_connection(geom.metric, geom.bundle, geom.sigma, geom.psi),
                 "big connection")
    for case in (geom, with_random_bundle(geom, 6)):
        om, gram = case.connection, case.gram
        want = oracle.make_record("bundle_metric_compatibility",
                           oracle.metric_compatibility(grid, om, gram, case.metric), grid,
                           tol.threshold("bundle_metric_compatibility", grid))
        assert_reports_close(flatbundle.metric_compatibility_residual(case, tol),
                             structure.Report((want,)))
        want = oracle.make_record("psi_tilde_parallel", oracle.psi_tilde_parallel(
                               grid, om, flatbundle.build_psi_tilde(case.psi)), grid,
                           tol.threshold("psi_tilde_parallel", grid))
        assert_reports_close(flatbundle.psi_tilde_parallel_residual(
                                 case, tol, structure.psi_tilde_derivative_magnitude(case)),
                             structure.Report((want,)))


def _random_rebuild(geom: Geometry, seed: int):
    rng = np.random.default_rng(seed)
    grid = geom.grid
    size = grid.ndim + geom.p + 2
    frame = rng.normal(size=grid.dims + (size, size))
    points = rng.normal(size=grid.dims + (size,))
    return points, frame


def test_rebuild_kernels_match_oracles(geom, f3):
    tol = ToleranceModel()
    if geom.grid == f3.grid:
        points, frame, k, case = f3.recon.points, f3.recon.frame, f3.recon.k, f3.geom
        assert_close(assemble_immersion(frame, k)[0], oracle.frame_points(frame),
                     "rebuilt points")
    else:
        points, frame = _random_rebuild(geom, 7)
        k, case = 1, with_random_bundle(geom, 8)
    gram = case.gram
    assert_close(gram_defect(frame, gram),
                 oracle.gram_defect(frame, gram, eta(gram.shape[-1])), "gram defect")
    assert_close(immersion_psi_field(frame, gram),
                 oracle.immersion_psi_field(frame, gram), "frame isomorphism")
    # every G is the identity on its bundle columns, where the rebuild reads the normals
    n, p = geom.grid.ndim, geom.p
    gram = gram.copy()
    gram[..., n:n + p] = np.eye(gram.shape[-1])[:, n:n + p]
    assert_reports_close(verify_reconstruction(points, frame, k, case, tol),
                         oracle.verify_reconstruction(points, frame, k, gram, case.metric,
                                                      case.bundle, case.sigma, case.psi, tol))


@pytest.mark.parametrize("name", ["f1", "f2", "f3", "f1_fd", "f2_fd", "f3_fd", "random"])
def test_structure_read_matches_the_per_block_oracle(request, name):
    """psi and omega read off one pairing of the stacked rows, against one pairing per block.

    The fixtures have g = 1 up to differencing error and a zero normal
    connection; the random rows and metric (on F3's k and p) have neither.
    """
    if name == "random":
        rng = np.random.default_rng(13)
        imm = request.getfixturevalue("f3").immersion
        metric = random_geometry(13, (7, 8), p=2).metric
        tangents, normals = (rng.normal(size=(7, 8, 2, 6)) for _ in range(2))
    else:
        fb = request.getfixturevalue(name)
        imm, metric, tangents, normals = (fb.immersion, fb.data.metric, fb.data.tangents,
                                          fb.data.normals)
    psi, bundle = induced_structure(imm.k, metric, tangents, normals)
    want_psi, want_om = oracle.induced_structure(imm.k, metric, tangents, normals)
    assert_close(psi, want_psi, f"{name} structure")
    assert_close(bundle.omega, want_om, f"{name} normal connection")


@pytest.mark.parametrize("one_row_blocks", [False, True], ids=["default_blocks", "one_row_blocks"])
@pytest.mark.parametrize("name", ["f1", "f2", "f3", "f1_fd", "f2_fd", "f3_fd", "f3_sigma"])
def test_records_equal_the_whole_forms_bitwise(request, monkeypatch, name, one_row_blocks):
    """Every residual formed by blocks of node rows gives the records of its whole form:
    max, mean and argmax node bitwise, on every fixture and route, and on F3 with sigma
    scaled by 1.01, which moves the rebuild records that are not round-off zeros.  With
    blocks of one node row every row is next to a block edge."""
    if one_row_blocks:
        monkeypatch.setattr(structure, "_CHUNK_BYTES", 1)
    fb = request.getfixturevalue(name.removesuffix("_sigma"))
    geom, tol = geometry_of(fb.data), fb.tolerances
    if name == "f3_sigma":
        geom = Geometry(geom.metric, geom.bundle,
                        SecondFormField(geom.grid, 1.01 * geom.sigma.values), geom.psi)
    rebuild = reconstruct_immersion(geom, tol)
    new = Report.merge(check_dataset(geom, tol), rebuild.report)
    want = Report.merge(oracle.metric_compatibility_whole(geom, tol),
                        oracle.check_all_whole(geom, tol),
                        oracle.rebuild_frame_records_whole(geom, rebuild.frame,
                                                           rebuild.base_node, tol))
    assert set(want.names()) <= set(new.names())
    for ref in want.records:
        got = new[ref.name]
        assert (got.max_abs, got.mean_abs, got.argmax_node) == \
            (ref.max_abs, ref.mean_abs, ref.argmax_node), ref.name
    if name == "f3_sigma":
        for rec in ("reconstruction_isometry", "reconstruction_second_form",
                    "reconstruction_normal_orthogonality", "frame_orthonormality"):
            assert new[rec].max_abs != fb.recon.report[rec].max_abs, rec
