"""Command-line pipeline: extract, check, reconstruct, roundtrip, align.

Exit codes are a stable contract: 0 or 1 as the ``pass`` of the command's report;
1 also when the data is rejected before a report exists, 2 when input cannot be loaded.

Each stage builds its own part of a :class:`prodimm.structure.Report`: the
checks, the rebuild and the alignment (``reconstruct.align_congruence``).  A
command merges them (``Report.merge``), prints them, and writes the merged
report through ``dataio``, the one module that reads and writes the formats.

Parallelism note: all kernels are vectorized numpy; the only environment
knob is the BLAS thread count (OMP_NUM_THREADS and friends), which does not
change any reported number.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from . import dataio
from .dataio import load_dataset, save_dataset, save_report
from .errors import ProdimmError, SchemaError
from .extract import FIXTURES, extract_all
from .fields import ChartGrid
from .flatbundle import Geometry, metric_compatibility_residual
from .lorentz import onto_product
from .reconstruct import align_congruence, reconstruct_immersion
from .structure import Report, ToleranceModel, check_all, require_tolerance


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
    return Report.merge(compatibility, checks, grid=geom.grid, timings={
        "structure": t3 - t2, "connection": t1 - t0, "flat_bundle": t2 - t1})


def _print_checks(report: Report):
    """One verdict line per record, then one named ``alignment`` if the report gives it one."""
    rows = [(r.passed, r.name, r.max_abs, r.threshold, f" at node {list(r.argmax_node)}")
            for r in report.records]
    if report.aligned is not None:
        rows.append((report.aligned, "alignment", report.alignment["max_distance"],
                     report.alignment["distance_tol"], ""))
    for passed, name, value, threshold, where in rows:
        print(f"{'PASS' if passed else 'FAIL'} {name:35s} max={value:.6e} "
              f"thr={threshold:.1e}{where}")


def _verdict(report: Report, path) -> int:
    """Print ``report``, write it to ``path`` if one is given; exit 0 if it passed, else 1."""
    _print_checks(report)
    if path:
        save_report(report, path)
    return 0 if report.passed else 1


@contextmanager
def _naming(*given):
    """Inside, the owner of each flag value judges it: a ``ValueError`` it raises becomes one
    ``SchemaError`` that starts with ``given``'s (flag, value) pairs whose value is set."""
    try:
        yield
    except ValueError as exc:
        flags = " ".join(f"{flag} {value}" for flag, value in given if value is not None)
        raise SchemaError(f"{flags}: {exc}") from exc


def _parse_tuple(text, default: tuple, cast) -> tuple:
    """``len(default)`` values of ``cast`` in ``text`` (one stands for all), or ``default``."""
    if not text:
        return default
    parts = [p for p in str(text).replace("x", ",").split(",") if p]
    values = tuple(map(cast, parts * len(default) if len(parts) == 1 else parts))
    if len(values) != len(default):
        raise ValueError(f"expects {len(default)} comma-separated values")
    return values


# fixture parameter -> the flag that sets it
FIXTURE_FLAGS = {"a": "--helix-a", "theta0": "--theta0"}


def _fixture_from_args(args):
    params = {key: value for key, flag in FIXTURE_FLAGS.items()
              if (value := getattr(args, flag[2:].replace("-", "_"))) is not None}
    taken = inspect.signature(FIXTURES[args.fixture]).parameters   # the factory decides
    unknown = [FIXTURE_FLAGS[key] for key in params if key not in taken]
    if unknown:
        raise SchemaError(f"fixture {args.fixture} takes no {' or '.join(unknown)}")
    with _naming(*((FIXTURE_FLAGS[key], value) for key, value in params.items())):
        imm, grid = FIXTURES[args.fixture](**params)
    with _naming(("--grid", args.grid), ("--spacing", args.spacing), ("--origin", args.origin)):
        return imm, ChartGrid(dims=_parse_tuple(args.grid, grid.dims, int),
                              spacing=_parse_tuple(args.spacing, grid.spacing, float),
                              origin=_parse_tuple(args.origin, grid.origin, float))


def _tolerances_from_args(args, base: ToleranceModel) -> ToleranceModel:
    """``base`` with ``--tol-factor``, then each ``--tol`` in turn: the model judges each."""
    with _naming(("--tol-factor", args.tol_factor)):
        tol = base if args.tol_factor is None else replace(base, factor=args.tol_factor)
    for item in args.tol or []:
        name, _, value = item.partition("=")
        with _naming(("--tol", item)):   # without "=", value is "" and fails too
            tol = replace(tol, overrides={**tol.overrides, name.strip(): float(value)})
    return tol


def _add_fixture_args(sub):
    sub.add_argument("--fixture", required=True, type=str.upper, choices=sorted(FIXTURES))
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
    save_dataset(data, args.out)
    print(f"wrote {args.out}: fixture {imm.name}, n={imm.n}, p={imm.p}, "
          f"grid {'x'.join(map(str, grid.dims))}, "
          f"max |sigma| = {np.abs(data.sigma.values).max():.6f}")
    return 0


def cmd_check(args) -> int:
    ds = load_dataset(args.dataset)
    tol = _tolerances_from_args(args, ds.tolerances)
    return _verdict(check_dataset(ds, tol), args.report)


def cmd_reconstruct(args) -> int:
    ds = load_dataset(args.dataset)
    tol = _tolerances_from_args(args, ds.tolerances)
    pre = check_dataset(ds, tol)
    _print_checks(pre)
    if not pre.passed and not args.force:
        print("input data fails its compatibility checks; use --force to proceed")
        return 1
    result = reconstruct_immersion(ds, tolerances=tol, seed_frame=args.seed_frame)
    report = Report.merge(pre, result.report)
    _print_checks(result.report)
    points = onto_product(result.points, result.k) if args.repair_export else result.points
    dataio.save_immersion_csv(args.out, ds.grid, result.k, points)
    save_report(report, args.report)
    print(f"wrote {args.out} and {args.report}; recovered k = {result.k}, "
          f"on-product defect {result.on_product_defect:.3e}")
    return 0 if report.passed else 1


def cmd_roundtrip(args) -> int:
    imm, grid = _fixture_from_args(args)
    data = extract_all(imm, grid, use_analytic=not args.fd)
    tol = _tolerances_from_args(args, data.tolerances)
    checks = check_dataset(data, tol)
    result = reconstruct_immersion(data, tolerances=tol, seed_frame=args.seed_frame)
    distance_tol = args.distance_tol if args.distance_tol is not None else tol.h2_budget(grid)
    alignment = align_congruence(result.points, result.report.reconstruction["psi_base"],
                                 result.k, data.points, data.ambient_frame(result.base_node),
                                 imm.k, distance_tol)
    return _verdict(Report.merge(checks, result.report, alignment), args.report)


def cmd_align(args) -> int:
    rep_a, points_a = dataio.load_rebuild(args.mesh_a, args.report_a)
    rep_b, points_b = dataio.load_rebuild(args.mesh_b, args.report_b)
    ra, rb = rep_a.reconstruction, rep_b.reconstruction
    for what, a, b in (("the grid", rep_a.grid, rep_b.grid),
                       ("reconstruction.ambient_dim", ra["ambient_dim"], rb["ambient_dim"]),
                       ("the base node", ra["base_node"], rb["base_node"])):
        if a != b:
            raise SchemaError(f"align inputs must share {what}: {a} vs {b}, "
                              f"in reports {args.report_a!r} and {args.report_b!r}")
    report = Report.merge(align_congruence(points_a, ra["psi_base"], ra["k"], points_b,
                                           rb["psi_base"], rb["k"], args.distance_tol),
                          grid=rep_a.grid)
    block, size = report.alignment, ra["ambient_dim"]
    print("isometry:")
    for row in np.reshape(block["isometry"], (size, size)):
        print("  " + " ".join(f"{v: .6f}" for v in row))
    print(f"max node distance   {block['max_distance']:.6e}")
    print(f"eta defect          {block['eta_defect']:.3e}")
    print(f"commutation defect  {block['commutation_defect']:.3e}")
    return _verdict(report, args.out)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose rejections, its subcommands' too, are one ``SchemaError``."""

    def error(self, message):
        raise SchemaError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    p = sub.add_parser("align", help="congruence between two rebuilt meshes, each read "
                                     "with its reconstruction report")
    p.add_argument("mesh_a")
    p.add_argument("mesh_b")
    p.add_argument("--report-a", default=None,
                   help="report of mesh_a (default: <mesh_a>.report.json)")
    p.add_argument("--report-b", default=None,
                   help="report of mesh_b (default: <mesh_b>.report.json)")
    p.add_argument("--distance-tol", type=float, default=None)
    p.add_argument("-o", "--out", default=None, help="write an alignment report here")
    p.set_defaults(func=cmd_align)
    return parser


# file argument -> its name in an error line: the inputs, then the outputs in writing order
FILE_ARGS = {"dataset": "dataset", "mesh_a": "mesh_a", "mesh_b": "mesh_b",
             "report_a": "--report-a", "report_b": "--report-b",
             "out": "-o/--out", "report": "--report"}


def _resolve_files(args):
    """Give each rebuild report not given its default, ``<mesh>.report.json``; reject an output
    that is a directory, is in a missing one, or is an input or an earlier output."""
    for report, mesh in (("report", "out"), ("report_a", "mesh_a"), ("report_b", "mesh_b")):
        if getattr(args, report, "") is None and getattr(args, mesh, None):
            setattr(args, report, getattr(args, mesh) + ".report.json")
    files = [(dest, name, path) for dest, name in FILE_ARGS.items()
             if (path := getattr(args, dest, None))]
    for i, (dest, flag, path) in enumerate(files):
        if dest not in ("out", "report"):
            continue
        if os.path.isdir(path):
            raise SchemaError(f"{flag} {path!r} is a directory")
        if not os.path.isdir(directory := os.path.dirname(os.path.abspath(path))):
            raise SchemaError(f"{flag} {path!r}: no directory {directory!r}")
        for _, name, other in files[:i]:
            if os.path.realpath(other) == os.path.realpath(path):
                raise SchemaError(f"{flag} {path!r} would overwrite {name} {other!r}")


def main(argv=None) -> int:
    try:   # flags that only a late stage reads, and the files, are checked before any stage
        args = build_parser().parse_args(argv)
        seed, distance_tol = getattr(args, "seed_frame", None), getattr(args, "distance_tol", None)
        with _naming(("--seed-frame", seed)):
            if seed is not None:
                np.random.SeedSequence(seed)   # numpy judges the seed of the frame's rotation
        with _naming(("--distance-tol", distance_tol)):
            require_tolerance("distance_tol", distance_tol)
        _resolve_files(args)
        return args.func(args)
    except (ProdimmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        rejected = isinstance(exc, ProdimmError) and not isinstance(exc, SchemaError)
        return 1 if rejected else 2


if __name__ == "__main__":
    sys.exit(main())
