"""Acceptance gate: every criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one verdict line per
criterion item.  Each item is desk scale (well under a minute).

Criterion 2's negative half runs on F4, the flat torus S^1(0.6) x S^1(0.8)
in S^3 at a point of H^1 (defined in ``conftest.py``), not on F3.  Scaling
the second form of F3, a product of curves, by 1.1 gives exactly the
compatible data of the latitude circle at cot(theta') = 1.1 cot(theta0)
crossed with the same geodesic, so no correct checker may reject it.  On F4
the same scaling breaks Gauss: the verdict line reads
``2 flatness F4 sigma*1.1 detected``.
"""

import numpy as np
import pytest
import scipy.linalg

from prodimm.cli import check_dataset, main
from prodimm.dataio import Dataset, save_dataset
from prodimm.extract import extract_all, default_tolerances
from prodimm.fields import BundleData, SecondFormField, shape_operator_field
from prodimm.flatbundle import Geometry
from prodimm.lorentz import eta, gram_defect, lorentz_orthonormalize
from prodimm.reconstruct import (EdgeFlows, align_congruence, edge_flow, immersion_psi_field,
                                 path_independence_residual, random_block_rotation,
                                 reconstruct_immersion)
from prodimm.structure import check_all, psi_blocks

from conftest import FixtureBundle, refine

ROUNDTRIP_BUDGETS = {"F1": 1e-4, "F2": 1e-3, "F3": 5e-3}


def _verdict(item: str, ok: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {item:45s} {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


# -- criterion 1 ------------------------------------------------------------

def test_criterion_1_necessity_and_convergence(f1, f2, f3):
    all_ok = True
    for fb in (f1, f2, f3):
        name = fb.immersion.name
        errors = []
        for grid in (fb.grid, refine(fb.grid)):
            thr = 10 * grid.h_max**2
            fd = extract_all(fb.immersion, grid, use_analytic=False)
            exact = extract_all(fb.immersion, grid, use_analytic=True)
            for data in (fd, exact):
                rep = check_all(data, default_tolerances(data))
                worst = max(r.max_abs for r in rep.records)
                ok = rep.passed and worst <= thr
                all_ok &= _verdict(f"1 necessity {name} h={grid.h_max:.4g} "
                                   f"{'fd' if data is fd else 'exact'}",
                                   ok, f"worst={worst:.2e} thr={thr:.1e}")
            (fd_f, fd_u, _, fd_lam), (ex_f, ex_u, _, ex_lam) = (
                psi_blocks(data.psi, grid.ndim) for data in (fd, exact))
            errors.append({
                "metric": np.abs(fd.metric.values - exact.metric.values).max(),
                "sigma": np.abs(fd.sigma.values - exact.sigma.values).max(),
                "f": np.abs(fd_f - ex_f).max(),
                "u": np.abs(fd_u - ex_u).max(),
                "lambda": np.abs(fd_lam - ex_lam).max(),
                "omega": np.abs(fd.bundle.omega - exact.bundle.omega).max(),
            })
        measurable = [k for k, v in errors[0].items() if v >= 1e-7]
        for key in measurable:
            ratio = errors[0][key] / errors[1][key]
            ok = 3.5 <= ratio <= 4.5
            all_ok &= _verdict(f"1 convergence {name} {key}", ok, f"ratio={ratio:.3f}")
        all_ok &= _verdict(f"1 convergence {name} coverage", len(measurable) >= 2,
                           f"measurable residuals: {measurable}")
    assert all_ok


# -- criterion 2 ------------------------------------------------------------

def test_criterion_2_flatness_clean(f3):
    rec = check_all(f3.geom, f3.tolerances)["bundle_flatness"]
    thr = 10 * f3.grid.h_max**2
    ok = rec.passed and rec.max_abs <= thr
    assert _verdict("2 flatness F3 64x64", ok, f"max={rec.max_abs:.2e} thr={thr:.1e}")


def test_criterion_2_flatness_detects_scaled_sigma(f4, tmp_path):
    data = f4.data

    def flatness_and_exit(sigma, label):
        rec = check_all(Geometry(data.metric, data.bundle, sigma, data.psi),
                        f4.tolerances)["bundle_flatness"]
        ds = Dataset(metric=data.metric, bundle=data.bundle,
                     sigma=sigma, psi=data.psi, tolerances=f4.tolerances, meta={})
        path = tmp_path / f"f4_{label}.json"
        save_dataset(ds, str(path))
        return rec.max_abs, main(["check", str(path)])

    thr = 10 * f4.grid.h_max**2
    clean, clean_exit = flatness_and_exit(data.sigma, "clean")
    assert _verdict("2 flatness F4 64x64 clean", clean <= thr and clean_exit == 0,
                    f"max={clean:.2e} thr={thr:.1e} exit={clean_exit}")

    scaled = SecondFormField(f4.grid, 1.1 * data.sigma.values)
    flat, exit_code = flatness_and_exit(scaled, "scaled")
    ok = flat > 0.01 and exit_code == 1
    _verdict("2 flatness F4 sigma*1.1 detected", ok, f"max={flat:.2e} exit={exit_code}")
    assert ok, (
        "scaling the second form of the F4 flat torus by 1.1 breaks Gauss, yet "
        f"the connection flatness is {flat:.3e} and check exits {exit_code}")


# -- criterion 3 ------------------------------------------------------------

def test_criterion_3_parallel_and_metric_compatibility(f1, f2, f3):
    all_ok = True
    for fb in (f1, f2, f3):
        rep = check_dataset(fb.geom, fb.tolerances)
        thr = 10 * fb.grid.h_max**2
        for name in ("psi_tilde_parallel", "bundle_metric_compatibility"):
            rec = rep[name]
            ok = rec.max_abs <= thr
            all_ok &= _verdict(f"3 {name} {fb.immersion.name}", ok,
                               f"max={rec.max_abs:.2e} thr={thr:.1e}")
    assert all_ok


# -- criterion 4 ------------------------------------------------------------

def test_criterion_4_roundtrip(f1, f2, f3):
    all_ok = True
    for fb in (f1, f2, f3):
        name = fb.immersion.name
        budget = ROUNDTRIP_BUDGETS[name]
        res = fb.recon
        base = res.base_node
        frame_map = immersion_psi_field(res.frame[base], fb.geom.gram[base])
        out = align_congruence(res.points, frame_map, res.k,
                               fb.data.points, fb.data.ambient_frame(base), fb.immersion.k,
                               budget)
        ok = (out.aligned
              and res.on_product_defect <= budget
              and res.k == fb.immersion.k)
        all_ok &= _verdict(
            f"4 roundtrip {name}", ok,
            f"dist={out.alignment['max_distance']:.2e} on_product={res.on_product_defect:.2e} "
            f"budget={budget:.0e} k={res.k}/{fb.immersion.k}")
    assert all_ok


# -- criterion 5 ------------------------------------------------------------

def test_criterion_5_rebuild_verification(f1, f2, f3):
    names = ("reconstruction_isometry", "reconstruction_normal_orthogonality",
             "reconstruction_second_form", "reconstruction_psi_compat_tangent",
             "reconstruction_psi_compat_normal")
    all_ok = True
    for fb in (f1, f2, f3):
        thr = 10 * fb.grid.h_max**2
        for name in names:
            rec = fb.recon.report[name]
            ok = rec.max_abs <= thr
            all_ok &= _verdict(f"5 {name.removeprefix('reconstruction_')} "
                               f"{fb.immersion.name}", ok,
                               f"max={rec.max_abs:.2e} thr={thr:.1e}")
    assert all_ok


# -- criterion 6 ------------------------------------------------------------

def test_criterion_6_uniqueness_up_to_isometry(f2):
    res = f2.recon
    k = res.k
    seed = 6
    rot = random_block_rotation(k + 1, seed)
    res_rot = reconstruct_immersion(f2.geom, tolerances=f2.tolerances, seed_frame=seed)
    base, gram = res.base_node, f2.geom.gram
    out = align_congruence(res_rot.points, immersion_psi_field(res_rot.frame[base], gram[base]),
                           res_rot.k, res.points, immersion_psi_field(res.frame[base], gram[base]),
                           res.k).alignment
    size = gram.shape[-1]
    expected = np.eye(size)
    expected[: k + 1, : k + 1] = rot
    rot_err = np.abs(np.reshape(out["isometry"], (size, size)) - expected).max()
    ok = (rot_err <= 1e-6 and out["eta_defect"] <= 1e-8
          and out["commutation_defect"] <= 1e-8)
    assert _verdict("6 uniqueness rotation recovery", ok,
                    f"rot_err={rot_err:.2e} eta={out['eta_defect']:.2e} "
                    f"comm={out['commutation_defect']:.2e}")


# -- criterion 7 ------------------------------------------------------------

def _trio_and_path(fb, metric, bundle, sigma, psi):
    tol = fb.tolerances
    geom = Geometry(metric, bundle, sigma, psi)
    checks = check_all(geom, tol)
    g_, c_, r_ = (checks[name].max_abs for name in ("gauss", "codazzi", "ricci"))
    centre = tuple(d // 2 for d in fb.grid.dims)
    flows = EdgeFlows.of(geom.grid, geom.connection, centre)
    p_ = path_independence_residual(flows, tol).records[0].max_abs
    return np.array([g_, c_, r_]), p_


def test_criterion_7_negative_detection(f3):
    eps = 1e-2
    data = f3.data
    thr = 10 * f3.grid.h_max**2
    clean, path_clean = _trio_and_path(f3, data.metric, data.bundle, data.sigma,
                                       data.psi)

    sg = data.sigma.values.copy()
    sg[..., 1, 1, 0] += eps
    cases = {"sigma->gauss": (0, data.metric, data.bundle,
                              SecondFormField(f3.grid, sg), data.psi)}

    psi_u = data.psi.copy()
    psi_blocks(psi_u, 2)[1][..., 0, 0] += eps     # the u block
    cases["u->codazzi"] = (1, data.metric, data.bundle, data.sigma, psi_u)

    om = data.bundle.omega.copy()
    t2 = f3.grid.coords()[..., 1]
    width = f3.grid.spacing[1] * (f3.grid.dims[1] - 1)
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    om[..., 0, :, :] += (eps * np.sin(2 * np.pi * t2 / width))[..., None, None] * j
    bundle_om = BundleData(f3.grid, om)
    cases["omega->ricci"] = (2, data.metric, bundle_om, data.sigma, data.psi)

    all_ok = True
    for label, (target, metric, bundle, sigma, psi) in cases.items():
        trio, path = _trio_and_path(f3, metric, bundle, sigma, psi)
        others = [trio[i] for i in range(3) if i != target]
        fired = trio[target] > thr
        quiet = all(v <= thr for v in others)
        degraded = (path - path_clean) >= eps / 10
        all_ok &= _verdict(f"7 detection {label}", fired and quiet and degraded,
                           f"target={trio[target]:.2e} others={max(others):.2e} "
                           f"path_degrade={path - path_clean:.2e}")
    assert all_ok


# -- criterion 8 ------------------------------------------------------------

def test_criterion_8_kernel_properties(f3, rng):
    ok_frames = True
    for _ in range(25):
        vectors = np.eye(6) + 0.25 * rng.normal(size=(6, 6))
        frame = lorentz_orthonormalize(vectors)
        ok_frames &= np.abs(gram_defect(frame, eta(6))).max() <= 1e-12
    all_ok = _verdict("8 lorentz orthonormalize 1e-12", ok_frames)

    ops = shape_operator_field(f3.data.sigma, f3.data.metric)
    lowered = np.einsum("...ik,...akj->...aij", f3.data.metric.values, ops)
    sa = np.abs(lowered - np.swapaxes(lowered, -1, -2)).max()
    all_ok &= _verdict("8 shape operator self-adjoint 1e-12", sa <= 1e-12,
                       f"defect={sa:.2e}")

    h = 1e-3
    om = rng.normal(size=(6, 6))
    om /= np.linalg.norm(om, 2)
    err = np.abs(edge_flow(om, om, h) - scipy.linalg.expm(-h * om)).max()
    all_ok &= _verdict("8 transport vs matrix exponential 1e-10", err <= 1e-10,
                       f"err={err:.2e}")
    assert all_ok
