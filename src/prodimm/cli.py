"""Command-line pipeline: extract, check, reconstruct, roundtrip, align.

Exit codes are a stable contract: 0 or 1 as the ``pass`` of the command's report;
1 also when the data is rejected before a report exists, 2 when input cannot be loaded.

Parallelism note: all kernels are vectorized numpy; the only environment
knob is the BLAS thread count (OMP_NUM_THREADS and friends), which does not
change any reported number.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

import numpy as np

from . import dataio
from .dataio import Dataset, Report, _take, load_dataset, save_dataset, save_report
from .errors import DimensionError, ProdimmError, SchemaError
from .extract import FIXTURES, default_tolerances, extract_all, fixture
from .fields import ChartGrid
from .flatbundle import Geometry, metric_compatibility_residual
from .reconstruct import align_congruence, immersion_psi_field, reconstruct_immersion
from .structure import ResidualReport, ToleranceModel, check_all, require_tolerance


def check_dataset(geom: Geometry, tolerances: ToleranceModel) -> Report:
    """Every structure check plus the flat-bundle diagnostics, with their timings.

    The differential records are blocks of the big connection's curvature F
    and of D psi~, each formed once by :func:`prodimm.structure.check_all`.
    Timings in seconds: ``connection`` Omega with the Christoffel symbols and
    shape operators it is built from, ``flat_bundle`` the metric compatibility
    of Omega, ``structure`` ``check_all``: the algebra records, F, psi~, D psi~
    and the nine records read from F and D psi~.  The checks fill ``geom``, so
    a rebuild derives nothing twice.
    """
    t0 = time.perf_counter()
    geom.connection   # built here, so the connection key times it alone
    t1 = time.perf_counter()
    compatibility = metric_compatibility_residual(geom, tolerances)
    t2 = time.perf_counter()
    checks = check_all(geom, tolerances)
    t3 = time.perf_counter()
    return Report.from_residuals(geom.grid, compatibility, checks,
                                 timings={"structure": t3 - t2, "connection": t1 - t0,
                                          "flat_bundle": t2 - t1})


def _print_checks(report: ResidualReport):
    """One verdict line per record, then one named ``alignment`` if the report gives it one."""
    rows = [(r.passed, r.name, r.max_abs, r.threshold, f" at node {list(r.argmax_node)}")
            for r in report.records]
    if isinstance(report, Report) and report.aligned is not None:
        rows.append((report.aligned, "alignment", report.alignment["max_distance"],
                     report.alignment["distance_tol"], ""))
    for passed, name, value, threshold, where in rows:
        print(f"{'PASS' if passed else 'FAIL'} {name:35s} max={value:.6e} "
              f"thr={threshold:.1e}{where}")


def _parse_tuple(text: str, count: int, cast):
    parts = [p for p in str(text).replace("x", ",").split(",") if p]
    if len(parts) == 1:
        parts = parts * count
    if len(parts) != count:
        raise ValueError(f"expected {count} comma-separated values, got {text!r}")
    return tuple(cast(p) for p in parts)


# fixture parameter -> the flag that sets it
FIXTURE_FLAGS = {"a": "--helix-a", "theta0": "--theta0"}


def _fixture_from_args(args):
    name = args.fixture.upper()
    if name not in FIXTURES:
        raise SchemaError(f"unknown fixture {args.fixture!r}; available: {sorted(FIXTURES)}")
    params = {key: value for key, flag in FIXTURE_FLAGS.items()
              if (value := getattr(args, flag[2:].replace("-", "_"))) is not None}
    taken = inspect.signature(FIXTURES[name]).parameters   # the factory decides
    unknown = [FIXTURE_FLAGS[key] for key in params if key not in taken]
    if unknown:
        raise SchemaError(f"fixture {name} takes no {' or '.join(unknown)}")
    try:   # a fixture or grid the arguments cannot describe is unloadable input
        imm, grid = fixture(name, **params)
        n = imm.n
        dims = _parse_tuple(args.grid, n, int) if args.grid else grid.dims
        spacing = _parse_tuple(args.spacing, n, float) if args.spacing else grid.spacing
        origin = _parse_tuple(args.origin, n, float) if args.origin else grid.origin
        return imm, ChartGrid(dims=dims, spacing=spacing, origin=origin)
    except DimensionError as exc:
        raise SchemaError(str(exc)) from exc


def _tolerances_from_args(args, base: ToleranceModel) -> ToleranceModel:
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


def _base_frame_map(result, geom: Geometry) -> np.ndarray:
    """The rebuild's (N, N) frame map bundle -> ambient coordinates at its base node."""
    base = result.base_node
    return immersion_psi_field(result.frame[base], geom.gram[base])


def _rebuild_report(grid: ChartGrid, checks: Report, result, frame_map: np.ndarray,
                    **blocks) -> Report:
    """The check and rebuild records, the reconstruction block and the timings of both."""
    reconstruction = {"k": result.k, "ambient_dim": frame_map.shape[-1],
                      "base_node": list(result.base_node),
                      "on_product_defect": result.on_product_defect,
                      "psi_base": frame_map.ravel().tolist()}
    return Report.from_residuals(grid, checks, result.report, reconstruction=reconstruction,
                                 timings=checks.timings | result.timings, **blocks)


def _alignment_block(alignment, distance_tol: float | None) -> dict:
    """The report block of ``alignment``; a ``distance_tol`` of None gives it no verdict."""
    verdict = {} if distance_tol is None else {"distance_tol": distance_tol}
    return {"max_distance": alignment.max_distance, "eta_defect": alignment.eta_defect,
            "commutation_defect": alignment.commutation_defect,
            "isometry": alignment.isometry.ravel().tolist()} | verdict


def cmd_reconstruct(args) -> int:
    ds = load_dataset(args.dataset)
    tol = _tolerances_from_args(args, ds.tolerances)
    pre = check_dataset(ds, tol)
    _print_checks(pre)
    if not pre.passed and not args.force:
        print("input data fails its compatibility checks; use --force to proceed")
        return 1
    result = reconstruct_immersion(ds, tolerances=tol, seed_frame=args.seed_frame)
    report = _rebuild_report(ds.grid, pre, result, _base_frame_map(result, ds))
    _print_checks(result.report)
    dataio.save_immersion_csv(args.out, ds.grid, result.k, result.points,
                              repair=args.repair_export)
    report_path = args.report or (args.out + ".report.json")
    save_report(report, report_path)
    print(f"wrote {args.out} and {report_path}; recovered k = {result.k}, "
          f"on-product defect {result.on_product_defect:.3e}")
    return 0 if report.passed else 1


def cmd_roundtrip(args) -> int:
    require_tolerance("--distance-tol", args.distance_tol)
    imm, grid = _fixture_from_args(args)
    data = extract_all(imm, grid, use_analytic=not args.fd)
    tol = _tolerances_from_args(args, default_tolerances(data))
    checks = check_dataset(data, tol)
    result = reconstruct_immersion(data, tolerances=tol, seed_frame=args.seed_frame)
    frame_map = _base_frame_map(result, data)
    alignment = align_congruence(result.points, frame_map, result.k,
                                 data.points, data.ambient_frame(result.base_node), imm.k)
    distance_tol = args.distance_tol if args.distance_tol is not None else tol.h2_budget(grid)
    report = _rebuild_report(grid, checks, result, frame_map,
                             alignment=_alignment_block(alignment, distance_tol))
    _print_checks(report)
    if args.report:
        save_report(report, args.report)
    return 0 if report.passed else 1


def cmd_align(args) -> int:
    require_tolerance("--distance-tol", args.distance_tol)
    coords_a, values_a, k_a = dataio.load_immersion_csv(args.mesh_a)
    coords_b, values_b, k_b = dataio.load_immersion_csv(args.mesh_b)
    rep_a = dataio.load_report(args.report_a or args.mesh_a + ".report.json")
    rep_b = dataio.load_report(args.report_b or args.mesh_b + ".report.json")
    if rep_a.grid is None or rep_b.grid is None or rep_a.reconstruction is None \
            or rep_b.reconstruction is None:
        raise SchemaError("align needs reconstruction reports with grid blocks")
    if rep_a.grid != rep_b.grid:
        raise SchemaError(f"align inputs must share the grid: {rep_a.grid} vs {rep_b.grid}")
    if values_a.shape != values_b.shape or coords_a.shape != coords_b.shape:
        raise SchemaError("meshes have different sizes")
    ra, rb = rep_a.reconstruction, rep_b.reconstruction
    if tuple(_take(ra, "base_node")) != tuple(_take(rb, "base_node")):
        raise SchemaError("align inputs must share the base node")
    size = int(_take(ra, "ambient_dim"))
    grid = rep_a.grid

    def frame_map(block):
        return np.asarray(_take(block, "psi_base"), dtype=float).reshape(size, size)

    shape = grid.dims + (size,)
    alignment = align_congruence(values_a.reshape(shape), frame_map(ra), k_a,
                                 values_b.reshape(shape), frame_map(rb), k_b)
    print("isometry:")
    for row in alignment.isometry:
        print("  " + " ".join(f"{v: .6f}" for v in row))
    print(f"max node distance   {alignment.max_distance:.6e}")
    print(f"eta defect          {alignment.eta_defect:.3e}")
    print(f"commutation defect  {alignment.commutation_defect:.3e}")
    report = Report(records=(), grid=grid,
                    alignment=_alignment_block(alignment, args.distance_tol))
    _print_checks(report)
    if args.out:
        save_report(report, args.out)
    return 0 if report.passed else 1


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
    except (ProdimmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        rejected = isinstance(exc, ProdimmError) and not isinstance(exc, SchemaError)
        return 1 if rejected else 2


if __name__ == "__main__":
    sys.exit(main())
