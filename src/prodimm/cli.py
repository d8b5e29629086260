"""Command-line pipeline: extract, check, reconstruct, roundtrip, align.

Exit codes are a stable contract: 0 all checks pass, 1 a check failed or the
computation rejected the data, 2 input could not be parsed or loaded.

Parallelism note: all kernels are vectorized numpy; the only environment
knob is the BLAS thread count (OMP_NUM_THREADS and friends), which does not
change any reported number.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import dataio
from .dataio import Dataset, Report, _take, load_dataset, save_dataset, save_report
from .errors import ProdimmError, SchemaError
from .extract import FIXTURES, extract_all, fixture
from .fields import ChartGrid
from .flatbundle import (FlatBundleGauge, build_connection, build_psi_tilde,
                         flatness_residual, metric_compatibility_residual,
                         psi_tilde_parallel_residual)
from .reconstruct import (ImmersionField, align_congruence, immersion_psi_field,
                          random_block_rotation, reconstruct_immersion)
from .structure import ResidualReport, ToleranceModel, check_all


def check_dataset(ds: Dataset, tolerances: ToleranceModel | None = None) -> Report:
    """Every structure check plus the flat-bundle diagnostics."""
    tol = tolerances if tolerances is not None else ds.tolerances
    structure_rep = check_all(ds.metric, ds.bundle, ds.sigma, ds.psi, tol)
    conn = build_connection(ds.metric, ds.bundle, ds.sigma, ds.psi)
    gauge = FlatBundleGauge.from_metric(ds.metric, ds.p)
    psi_tilde = build_psi_tilde(ds.psi)
    flat_rep = ResidualReport.merge(
        metric_compatibility_residual(conn, gauge, tol),
        flatness_residual(conn, tol),
        psi_tilde_parallel_residual(conn, psi_tilde, tol),
    )
    return Report.from_residuals(ds.grid, structure_rep, flat_rep)


def _print_checks(report: Report):
    for rec in report.checks:
        verdict = "PASS" if rec.passed else "FAIL"
        print(f"{verdict} {rec.name:35s} max={rec.max_abs:.6e} "
              f"thr={rec.threshold:.1e} at node {list(rec.argmax_node)}")


def _parse_tuple(text: str, count: int, cast):
    parts = [p for p in str(text).replace("x", ",").split(",") if p]
    if len(parts) == 1:
        parts = parts * count
    if len(parts) != count:
        raise ValueError(f"expected {count} comma-separated values, got {text!r}")
    return tuple(cast(p) for p in parts)


def _fixture_from_args(args):
    name = args.fixture.upper()
    if name not in FIXTURES:
        raise SchemaError(f"unknown fixture {args.fixture!r}; available: {sorted(FIXTURES)}")
    params = {}
    if name == "F1" and args.helix_a is not None:
        params["a"] = args.helix_a
    if name in ("F2", "F3") and args.theta0 is not None:
        params["theta0"] = args.theta0
    imm, grid = fixture(name, **params)
    n = imm.n
    dims = _parse_tuple(args.grid, n, int) if args.grid else grid.dims
    spacing = _parse_tuple(args.spacing, n, float) if args.spacing else grid.spacing
    origin = _parse_tuple(args.origin, n, float) if args.origin else grid.origin
    return imm, ChartGrid(dims=dims, spacing=spacing, origin=origin)


def _tolerances_from_args(args, base: ToleranceModel | None = None) -> ToleranceModel:
    base = base or ToleranceModel()
    overrides = dict(base.overrides)
    for item in args.tol or []:
        if "=" not in item:
            raise SchemaError(f"--tol expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        overrides[name.strip()] = float(value)
    factor = args.tol_factor if args.tol_factor is not None else base.factor
    return ToleranceModel(factor=factor, floor=base.floor, algebraic=base.algebraic,
                          overrides=overrides)


def _add_fixture_args(sub):
    sub.add_argument("--fixture", required=True, help="F1, F2 or F3")
    sub.add_argument("--theta0", type=float, default=None,
                     help="colatitude parameter for F2/F3")
    sub.add_argument("--helix-a", type=float, default=None,
                     help="sphere slope for F1 (hyperbolic slope is sqrt(1-a^2))")
    sub.add_argument("--grid", default=None, help="node counts, e.g. 200 or 64x64")
    sub.add_argument("--spacing", default=None, help="grid spacing per axis")
    sub.add_argument("--origin", default=None, help="chart origin per axis")
    sub.add_argument("--fd", action="store_true",
                     help="force finite-difference extraction (ignore analytic derivatives)")


def _add_tol_args(sub):
    sub.add_argument("--tol", action="append", metavar="NAME=VALUE",
                     help="per-check threshold override (repeatable)")
    sub.add_argument("--tol-factor", type=float, default=None,
                     help="factor of the h^2 threshold model (default 10)")


def cmd_extract(args) -> int:
    imm, grid = _fixture_from_args(args)
    data = extract_all(imm, grid, use_analytic=not args.fd)
    ds = Dataset.from_extraction(data)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: fixture {imm.name}, n={imm.n}, p={imm.p}, "
          f"grid {'x'.join(map(str, grid.dims))}, "
          f"max |sigma| = {np.abs(ds.sigma.values).max():.6f}")
    return 0


def cmd_check(args) -> int:
    ds = load_dataset(args.dataset)
    tol = _tolerances_from_args(args, ds.tolerances)
    report = check_dataset(ds, tol)
    _print_checks(report)
    if args.report:
        save_report(report, args.report)
    return 0 if report.passed else 1


def _reconstruction_block(result) -> dict:
    psi_base = immersion_psi_field(result.frame, result.gauge)[result.immersion.base_node]
    return {
        "k": result.k,
        "ambient_dim": result.gauge.size,
        "base_node": list(result.immersion.base_node),
        "on_product_defect": result.immersion.on_product_defect,
        "psi_base": psi_base.ravel().tolist(),
    }


def cmd_reconstruct(args) -> int:
    ds = load_dataset(args.dataset)
    tol = _tolerances_from_args(args, ds.tolerances)
    pre = check_dataset(ds, tol)
    _print_checks(pre)
    if not pre.passed and not args.force:
        print("input data fails its compatibility checks; use --force to proceed")
        return 1
    result = reconstruct_immersion(ds.metric, ds.bundle, ds.sigma, ds.psi, tolerances=tol,
                                   seed_frame=args.seed_frame,
                                   reorthonormalize=args.reorthonormalize,
                                   assemble_tol=np.inf if args.force else None)
    report = Report.from_residuals(
        ds.grid, ResidualReport(pre.checks), result.report,
        reconstruction=_reconstruction_block(result), timings=result.timings)
    _print_checks(Report(grid=ds.grid, checks=result.report.records))
    dataio.save_immersion_csv(args.out, ds.grid, result.k, result.immersion.values,
                              repair=args.repair_export)
    report_path = args.report or (args.out + ".report.json")
    save_report(report, report_path)
    print(f"wrote {args.out} and {report_path}; recovered k = {result.k}, "
          f"on-product defect {result.immersion.on_product_defect:.3e}")
    return 0 if report.passed else 1


def cmd_roundtrip(args) -> int:
    imm, grid = _fixture_from_args(args)
    data = extract_all(imm, grid, use_analytic=not args.fd)
    ds = Dataset.from_extraction(data)
    tol = _tolerances_from_args(args, ds.tolerances)
    checks = check_dataset(ds, tol)
    result = reconstruct_immersion(ds.metric, ds.bundle, ds.sigma, ds.psi, tolerances=tol,
                                   seed_frame=args.seed_frame)
    analytic = ImmersionField(grid=grid, k=imm.k, values=data.points,
                              base_node=result.immersion.base_node, on_product_defect=0.0)
    alignment = align_congruence(result.immersion,
                                 immersion_psi_field(result.frame, result.gauge),
                                 analytic, data.ambient_frame_field())
    distance_tol = args.distance_tol if args.distance_tol is not None \
        else max(tol.factor * grid.h_max**2, tol.floor)
    k_ok = result.k == imm.k
    aligned_ok = alignment.max_distance <= distance_tol
    report = Report.from_residuals(
        grid, ResidualReport(checks.checks), result.report,
        reconstruction=_reconstruction_block(result),
        alignment={"max_distance": alignment.max_distance,
                   "distance_tol": distance_tol,
                   "eta_defect": alignment.eta_defect,
                   "commutation_defect": alignment.commutation_defect,
                   "isometry": alignment.isometry.ravel().tolist()},
        timings=result.timings)
    _print_checks(report)
    verdict = "PASS" if (k_ok and aligned_ok) else "FAIL"
    print(f"{verdict} roundtrip_alignment                max={alignment.max_distance:.6e} "
          f"thr={distance_tol:.1e} (k {result.k} vs {imm.k})")
    if args.report:
        save_report(report, args.report)
    return 0 if (report.passed and k_ok and aligned_ok) else 1


def cmd_align(args) -> int:
    coords_a, values_a, k_a = dataio.load_immersion_csv(args.mesh_a)
    coords_b, values_b, k_b = dataio.load_immersion_csv(args.mesh_b)
    rep_a = dataio.load_report(args.report_a or args.mesh_a + ".report.json")
    rep_b = dataio.load_report(args.report_b or args.mesh_b + ".report.json")
    if rep_a.grid is None or rep_b.grid is None or rep_a.reconstruction is None \
            or rep_b.reconstruction is None:
        raise SchemaError("align needs reconstruction reports with grid blocks")
    if values_a.shape != values_b.shape or coords_a.shape != coords_b.shape:
        raise SchemaError("meshes have different sizes")
    ra, rb = rep_a.reconstruction, rep_b.reconstruction
    if tuple(_take(ra, "base_node")) != tuple(_take(rb, "base_node")):
        raise SchemaError("align inputs must share the base node")
    size = int(_take(ra, "ambient_dim"))
    grid = rep_a.grid
    base = tuple(int(i) for i in ra["base_node"])
    imm_a = ImmersionField(grid=grid, k=k_a, values=values_a.reshape(grid.dims + (size,)),
                           base_node=base, on_product_defect=0.0)
    imm_b = ImmersionField(grid=grid, k=k_b, values=values_b.reshape(grid.dims + (size,)),
                           base_node=base, on_product_defect=0.0)
    psi_a = np.zeros(grid.dims + (size, size))
    psi_a[base] = np.asarray(_take(ra, "psi_base"), dtype=float).reshape(size, size)
    psi_b = np.zeros(grid.dims + (size, size))
    psi_b[base] = np.asarray(_take(rb, "psi_base"), dtype=float).reshape(size, size)
    alignment = align_congruence(imm_a, psi_a, imm_b, psi_b, node=base)
    print("isometry:")
    for row in alignment.isometry:
        print("  " + " ".join(f"{v: .6f}" for v in row))
    print(f"max node distance   {alignment.max_distance:.6e}")
    print(f"eta defect          {alignment.eta_defect:.3e}")
    print(f"commutation defect  {alignment.commutation_defect:.3e}")
    if args.out:
        save_report(Report(grid=grid, checks=(),
                           alignment={"max_distance": alignment.max_distance,
                                      "eta_defect": alignment.eta_defect,
                                      "commutation_defect": alignment.commutation_defect,
                                      "isometry": alignment.isometry.ravel().tolist()}),
                    args.out)
    if args.distance_tol is not None and alignment.max_distance > args.distance_tol:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodimm",
        description="verify and rebuild isometric immersions into sphere x "
                    "hyperboloid products")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="sample a fixture immersion into a dataset")
    _add_fixture_args(p)
    p.add_argument("-o", "--out", required=True, help="dataset path (JSON)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("check", help="run every compatibility check on a dataset")
    p.add_argument("dataset")
    _add_tol_args(p)
    p.add_argument("--report", default=None, help="write the report JSON here")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reconstruct", help="rebuild the immersion from a dataset")
    p.add_argument("dataset")
    _add_tol_args(p)
    p.add_argument("-o", "--out", required=True, help="mesh CSV path")
    p.add_argument("--report", default=None,
                   help="report path (default: <out>.report.json)")
    p.add_argument("--force", action="store_true",
                   help="reconstruct even if the checks fail")
    p.add_argument("--seed-frame", type=int, default=None,
                   help="seeded random rotation of the initial sphere-block frame")
    p.add_argument("--reorthonormalize", action="store_true",
                   help="re-orthonormalize the frame after every edge")
    p.add_argument("--repair-export", action="store_true",
                   help="renormalize exported points onto the product (export only)")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("roundtrip", help="extract, check, rebuild and align a fixture")
    _add_fixture_args(p)
    _add_tol_args(p)
    p.add_argument("--distance-tol", type=float, default=None,
                   help="aligned max node distance budget (default: h^2 model)")
    p.add_argument("--seed-frame", type=int, default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("align", help="congruence between two rebuilt meshes")
    p.add_argument("mesh_a")
    p.add_argument("mesh_b")
    p.add_argument("--report-a", default=None)
    p.add_argument("--report-b", default=None)
    p.add_argument("--distance-tol", type=float, default=None)
    p.add_argument("-o", "--out", default=None, help="write an alignment report here")
    p.set_defaults(func=cmd_align)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ProdimmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
