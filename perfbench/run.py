#!/usr/bin/env python3
"""Benchmark of the prodimm CLI: end-to-end command times and per-layer probes.

Usage, from the repository root:

    python3 perfbench/run.py --workload surface --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke            # tiny grids, every workload, both modes
    python3 perfbench/run.py --write-reference  # refresh perfbench/reference.json

Each workload item runs ``extract -> check -> reconstruct -> roundtrip`` through
``prodimm.cli.main`` in this process, one command at a time.  Passes over the
items repeat while the next pass is expected to end within ``--seconds``; a
command's time is summed over the items of a pass and reported as the median
over passes, in seconds at a reference core speed (see speed.py).  ``--trace 1``
adds one traced pass and reports per-layer metrics instead.  The last line of
standard output is the JSON result; see NOTES.md for the metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: the plain single-threaded baseline.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import outputs  # noqa: E402
from spans import SPAN_PROBES, Tracer  # noqa: E402
from speed import SpeedSampler, pin_to_one_cpu  # noqa: E402
from workloads import (COMMANDS, PINNED_SEED, WORKLOADS, allowed_failures,  # noqa: E402
                       make_workload)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 11
CHILD_TIMEOUT = 150

# name -> unit; the order is the print order.
END_TO_END = {"setup_s": "s", "extract_s": "s", "check_s": "s", "reconstruct_s": "s",
              "roundtrip_s": "s", "peak_rss_mb": "MiB", "passed_frac": "ratio",
              "worst_margin": "ratio", "align_margin": "ratio"}
FIELD_PROBES = ("fields.grad_field", "fields.hessian_field", "fields.christoffel",
                "fields.curvature_tensor", "fields.shape_operator_field",
                "fields.bundle_curvature")
TIMING_PHASES = ("setup", "transport", "assemble", "verify")
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_PROBES},
    **{f"{name}_s": "s" for name in FIELD_PROBES},
    **{f"reconstruct.{phase}_s": "s" for phase in TIMING_PHASES},
    "dataio.dataset_bytes": "bytes", "dataio.mesh_bytes": "bytes",
    "extract.point_evals": "count", "extract.derivative_evals": "count",
    "reconstruct.transport_steps": "count",
    "extract.extract_all_peak_mb": "MiB", "cli.check_dataset_peak_mb": "MiB",
    "reconstruct.reconstruct_immersion_peak_mb": "MiB",
    "trace.overhead_frac": "ratio", "output.residual_drift": "ratio",
}


# ---------------------------------------------------------------------------
# running commands


def call_cli(cli_main, argv: list, tracer: Tracer | None = None, span: str = "") -> tuple:
    """Run one CLI command in process; returns (exit code, seconds, reference seconds).

    ``cli._print_checks`` binds ``sys.stdout`` as a default argument when the
    module is imported, so ``contextlib.redirect_stdout`` would not silence it:
    file descriptor 1 itself is pointed at /dev/null for the call.
    """
    gc.collect()
    sys.stdout.flush()
    saved = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    try:
        with tracer.span(span) if tracer else nullcontext(), SpeedSampler() as speed:
            t0 = time.perf_counter()
            try:
                rc = cli_main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is an outcome to report, not to die on
                traceback.print_exc()
                rc = -1
            seconds = time.perf_counter() - t0
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)
        os.close(devnull)
    return rc, seconds, speed.scale(seconds)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list) -> tuple:
    """Run ``python -m prodimm ARGV`` in a fresh process.

    Returns (exit code, seconds, reference seconds).  The speed is sampled just
    before and just after the child, not while it runs on the same CPU.

    The wait blocks in waitpid: ``subprocess.run(timeout=...)`` polls with sleeps
    of up to 50 ms, which would quantize the measured time.  A timer kills a
    child that outlives CHILD_TIMEOUT instead.
    """
    with SpeedSampler(during=False) as speed:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "prodimm", *argv], cwd=ROOT,
                                env=child_env(), stdout=subprocess.DEVNULL)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    return rc, seconds, speed.scale(seconds)


@dataclass
class PassResult:
    seconds: dict                                   # command -> scaled, summed over items
    raw_seconds: dict
    calls: list = field(default_factory=list)       # (item label, command, exit code)
    problems: list = field(default_factory=list)
    timing_docs: list = field(default_factory=list)
    dataset_bytes: list = field(default_factory=list)
    mesh_bytes: list = field(default_factory=list)

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


def unexpected_exits(workload: str, calls: list) -> list:
    return [f"{label} {cmd} exited {rc}" for label, cmd, rc in calls
            if rc != 0 and not (rc == 1 and allowed_failures(workload, label, cmd))]


def unexpected_records(workload: str, label: str, cmd: str, doc: dict) -> list:
    return [f"{label} {cmd}: {name} fails and is not a known failure"
            for name in sorted(outputs.failing_records(doc)
                               - allowed_failures(workload, label, cmd))]


def run_pass(cli_main, workload, ref: dict, work: Path,
             tracer: Tracer | None = None) -> PassResult:
    res = PassResult(seconds=dict.fromkeys(COMMANDS, 0.0),
                     raw_seconds=dict.fromkeys(COMMANDS, 0.0))
    for idx, item in enumerate(workload.items):
        directory = work / f"{idx}-{item.label}"
        directory.mkdir(parents=True, exist_ok=True)
        for stale in item.files(directory).values():
            stale.unlink(missing_ok=True)
        if tracer:
            tracer.item = item.label
        for cmd in COMMANDS:
            rc, seconds, scaled = call_cli(cli_main, item.argv(cmd, directory), tracer,
                                           f"cli.{cmd}")
            res.raw_seconds[cmd] += seconds
            res.seconds[cmd] += scaled
            res.calls.append((item.label, cmd, rc))
        check_item(res, workload.name, item, directory, ref, idx)
    res.problems += unexpected_exits(workload.name, res.calls)
    return res


def check_item(res: PassResult, workload: str, item, directory: Path, ref: dict, idx: int):
    files = item.files(directory)
    items = ref.get("items", [])
    item_ref = items[idx] if idx < len(items) else {}
    if item_ref.get("label") != item.label:
        res.problems.append(f"{item.label}: no reference records")
        item_ref = {"records": {}}
    on_product_tol = 1e-6
    for cmd in COMMANDS[1:]:
        doc = outputs.read_report(files[cmd])
        bad = outputs.report_problems(
            doc, outputs.expected_records(ref.get("check_records", []), item_ref, cmd), cmd)
        res.problems += [f"{item.label} {cmd}: {p}" for p in bad]
        if bad:
            continue
        res.problems += unexpected_records(workload, item.label, cmd, doc)
        if cmd == "reconstruct":
            on_product_tol = outputs.record_margins(doc).get(
                "reconstruction_on_product", (0.0, on_product_tol))[1]
        if cmd in ("reconstruct", "roundtrip"):
            res.timing_docs.append(doc)
    res.problems += [f"{item.label} mesh: {p}"
                     for p in outputs.mesh_problems(files["mesh"], item.n_nodes, on_product_tol)]
    for key, sizes in (("dataset", res.dataset_bytes), ("mesh", res.mesh_bytes)):
        if files[key].exists():
            sizes.append(files[key].stat().st_size)


# ---------------------------------------------------------------------------
# measurements outside the timed passes


def measure_setup() -> tuple:
    """Median scaled and median raw time of a fresh ``python -m prodimm --help``; problems."""
    raw, scaled, problems = [], [], []
    for _ in range(SETUP_REPEATS):
        rc, seconds, ref_seconds = run_child(["--help"])
        raw.append(seconds)
        scaled.append(ref_seconds)
        if rc != 0:
            problems.append(f"--help exited {rc}")
    return statistics.median(scaled), statistics.median(raw), problems


def measure_rss(workload, work: Path) -> tuple:
    """Max RSS of a fresh process running the heaviest command (the rss item's roundtrip)."""
    item = workload.items[workload.rss_item]
    directory = work / "rss"
    directory.mkdir(parents=True, exist_ok=True)
    rc, _, _ = run_child(item.argv("roundtrip", directory))
    mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return mib, unexpected_exits(workload.name, [(item.label, "roundtrip", rc)])


def standalone_fields(ds) -> dict:
    """Seconds of one call of each field kernel on a loaded dataset, by metric name."""
    import prodimm.fields as fields
    calls = {"grad_field": lambda f: f(ds.grid, ds.metric.values),
             "hessian_field": lambda f: f(ds.grid, ds.metric.values),
             "christoffel": lambda f: f(ds.metric),
             "curvature_tensor": lambda f: f(ds.metric),
             "shape_operator_field": lambda f: f(ds.sigma, ds.metric),
             "bundle_curvature": lambda f: f(ds.bundle)}
    out = {}
    for attr, call in calls.items():
        fn = getattr(fields, attr, None)
        try:
            t0 = time.perf_counter()
            call(fn)
            out[f"fields.{attr}_s"] = time.perf_counter() - t0
        except (TypeError, AttributeError, ValueError, IndexError):
            pass    # a reshaped kernel: its metric is reported missing
    return out


def replay_peak_mb(captured: tuple) -> float:
    """Peak traced allocation (MiB) of one call, replayed under tracemalloc."""
    fn, args, kwargs = captured
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else None


# ---------------------------------------------------------------------------
# a run


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    from prodimm.cli import main as cli_main

    workload = make_workload(name, seed, smoke)
    size = "smoke" if smoke else "full"
    try:
        reference = outputs.load_reference()
        ref = {"check_records": reference["check_records"],
               "items": reference["workloads"][name][size]}
    except (OSError, ValueError, KeyError):
        ref = {}
    work = WORK / f"{name}-{size}"

    # Warm-up on the smoke-size items: lazy imports and first-call costs.
    warm = make_workload(name, seed, smoke=True).items[0]
    (work / "warmup").mkdir(parents=True, exist_ok=True)
    for cmd in COMMANDS:
        call_cli(cli_main, warm.argv(cmd, work / "warmup"))

    # Passes while the next one is expected to end within --seconds; at least one.
    passes: list[PassResult] = []
    t_start = time.perf_counter()
    while not passes or (time.perf_counter() - t_start) * (len(passes) + 1) / len(passes) \
            <= seconds:
        passes.append(run_pass(cli_main, workload, ref, work / "untraced"))
    problems = [p for res in passes for p in res.problems]
    calls = [c for res in passes for c in res.calls]
    pinned, pinned_docs, pinned_problems = pinned_roundtrips(cli_main, name, size, work)
    problems += pinned_problems
    detail = {"workload": name, "seed": seed, "trace": int(trace), "size": size,
              "why": workload.why, "items": [list(it.fixture_args) + ["--seed-frame",
                                                                       str(it.seed_frame)]
                                             for it in workload.items],
              "passes": [res.seconds for res in passes],
              "raw_passes": [res.raw_seconds for res in passes]}
    if not trace:
        rss, rss_problems = measure_rss(workload, work)
        setup, setup_raw, setup_problems = measure_setup()
        detail["setup_raw_s"] = setup_raw
        problems += rss_problems + setup_problems
        n_ok = sum(1 for _label, _cmd, rc in calls if rc == 0)
        metrics = {"setup_s": setup,
                   **{f"{cmd}_s": statistics.median(res.seconds[cmd] for res in passes)
                      for cmd in COMMANDS},
                   "peak_rss_mb": rss,
                   "passed_frac": n_ok / len(calls),
                   "worst_margin": pinned_docs and max(
                       outputs.worst_margin(doc, allowed_failures(name, it.label, "roundtrip"))
                       for it, doc in zip(pinned.items, pinned_docs)),
                   "align_margin": pinned_docs and max(map(outputs.align_margin, pinned_docs))}
        units = END_TO_END
    else:
        tracer = Tracer()
        tracer.capture_item = workload.items[workload.rss_item].label
        try:
            tracer.install()
            traced = run_pass(cli_main, workload, ref, work / "traced", tracer)
        finally:
            tracer.uninstall()
        problems += traced.problems
        calls += traced.calls
        metrics = layer_metrics(tracer, traced, passes, workload, work)
        if pinned_docs and len(pinned_docs) == len(ref.get("items", [])):
            metrics["output.residual_drift"] = max(
                outputs.residual_drift(doc, item_ref)
                for doc, item_ref in zip(pinned_docs, ref["items"]))
        with open(work / "trace.json", "w") as fh:
            json.dump({"workload": name, "seed": seed, **tracer.to_json()}, fh)
        units = PER_LAYER

    missing = [m for m in units if metrics.get(m) is None]
    detail.update(problems=problems, missing=missing, environment=environment())
    with open(work / f"result-trace{int(trace)}.json", "w") as fh:
        json.dump({**detail, "metrics": metrics}, fh, indent=1)
    return {"correct": not problems, "attempted": len(calls),
            "failed": sum(1 for _label, _cmd, rc in calls if rc != 0),
            "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()
                        if metrics.get(m) is not None},
            "detail": detail}


def layer_metrics(tracer: Tracer, traced: PassResult, passes: list, workload,
                  work: Path) -> dict:
    """Per-layer metrics; a probe that no longer fits the program leaves its metric out."""
    by_name: dict = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)

    def span_mean(name):
        return mean(sp.duration for sp in by_name.get(name, []))

    def count_mean(name, key):
        return mean(sp.counts.get(key, 0) for sp in by_name.get(name, []))

    metrics = {f"{name}_s": span_mean(name) for name in SPAN_PROBES}
    for phase in TIMING_PHASES:
        metrics[f"reconstruct.{phase}_s"] = mean(
            doc["timings"][phase] for doc in traced.timing_docs
            if phase in (doc.get("timings") or {}))
    if "fields.sweep_steps" not in tracer.missing:
        metrics["reconstruct.transport_steps"] = count_mean(
            "reconstruct.sweep_parallel_frame", "sweep_steps")
    if "extract.FIXTURES" not in tracer.missing:
        metrics["extract.point_evals"] = count_mean("extract.extract_all", "point_evals")
        metrics["extract.derivative_evals"] = count_mean("extract.extract_all",
                                                         "derivative_evals")
    metrics["dataio.dataset_bytes"] = mean(traced.dataset_bytes)
    metrics["dataio.mesh_bytes"] = mean(traced.mesh_bytes)
    untraced = statistics.median(res.total for res in passes)
    metrics["trace.overhead_frac"] = traced.total / untraced - 1.0

    item = workload.items[workload.rss_item]
    try:
        from prodimm.dataio import load_dataset
        ds = load_dataset(str(item.files(work / "traced" / f"{workload.rss_item}-{item.label}")
                              ["dataset"]))
        metrics.update(standalone_fields(ds))
    except (ImportError, AttributeError, TypeError, OSError, ValueError):
        pass
    for name in ("extract.extract_all", "cli.check_dataset", "reconstruct.reconstruct_immersion"):
        try:
            metrics[f"{name}_peak_mb"] = replay_peak_mb(tracer.captured[name])
        except Exception:  # a reshaped function: its metric is reported missing
            pass
    return metrics


def pinned_roundtrips(cli_main, name: str, size: str, work: Path) -> tuple:
    """Untimed roundtrips of the pinned seed's items, for the margins and the drift.

    The margins are deterministic for given inputs but move with the drawn
    parameters, so they are taken at fixed inputs: they then compare program
    versions, not draws.  Returns (pinned workload, reports or None, problems).
    """
    pinned = make_workload(name, PINNED_SEED, size == "smoke")
    docs, calls, problems = [], [], []
    for idx, item in enumerate(pinned.items):
        directory = work / "pinned" / f"{idx}-{item.label}"
        directory.mkdir(parents=True, exist_ok=True)
        item.files(directory)["roundtrip"].unlink(missing_ok=True)
        rc, _, _ = call_cli(cli_main, item.argv("roundtrip", directory))
        calls.append((item.label, "roundtrip", rc))
        doc = outputs.read_report(item.files(directory)["roundtrip"])
        if outputs.report_problems(doc, [], "roundtrip"):
            doc = None
        else:
            problems += unexpected_records(name, item.label, "roundtrip", doc)
        docs.append(doc)
    problems += unexpected_exits(name, calls)
    if any(doc is None for doc in docs):
        return pinned, None, problems + ["pinned roundtrip reports missing"]
    return pinned, docs, problems


# ---------------------------------------------------------------------------
# environment, reference, smoke


def environment() -> dict:
    import numpy
    import scipy
    files = sorted((SRC / "prodimm").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
            "src_prodimm_lines": lines}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def write_reference():
    """The check record names, and the roundtrip residuals of every item at the pinned seed."""
    from prodimm.cli import main as cli_main
    doc = {"pinned_seed": PINNED_SEED, "check_records": None, "workloads": {}}
    for name in WORKLOADS:
        for size in ("full", "smoke"):
            workload = make_workload(name, PINNED_SEED, size == "smoke")
            entries = []
            for idx, item in enumerate(workload.items):
                directory = WORK / "reference" / f"{name}-{size}-{idx}"
                directory.mkdir(parents=True, exist_ok=True)
                for cmd in COMMANDS:
                    call_cli(cli_main, item.argv(cmd, directory))
                files = item.files(directory)
                names = [r["name"] for r in outputs.read_report(files["check"])["checks"]]
                if doc["check_records"] not in (None, names):
                    raise SystemExit(f"{name} {item.label}: check records differ between items")
                doc["check_records"] = names
                entries.append({"label": item.label, **outputs.reference_entry(
                    outputs.read_report(files["roundtrip"]))})
                print(f"reference {name} {size} {item.label}", file=sys.stderr)
            doc["workloads"].setdefault(name, {})[size] = entries
    with open(outputs.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def smoke() -> int:
    import smoke_checks
    errors = smoke_checks.validate_benchmark_json(ROOT / "BENCHMARK.json", END_TO_END, PER_LAYER)
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, PINNED_SEED, 0, trace, smoke=True)
            expected = PER_LAYER if trace else END_TO_END
            errors += [f"{name} trace={int(trace)}: {e}"
                       for e in smoke_checks.result_errors(result, expected)]
            print(f"smoke {name} trace={int(trace)}: {len(result['metrics'])} metrics, "
                  f"correct={result['correct']}", file=sys.stderr)
    for e in errors:
        print(f"smoke: {e}", file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problems")
    return 0 if not errors else 1


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, every workload, both modes; validates BENCHMARK.json")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.json at the pinned seed")
    args = parser.parse_args(argv)
    if not (SRC / "prodimm" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'prodimm'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    if args.write_reference:
        write_reference()
        return 0
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    print(f"# workload {args.workload} (seed {args.seed}, trace {args.trace}): "
          f"{len(detail['passes'])} passes; {detail['why']}")
    for metric, entry in result["metrics"].items():
        print(f"{metric:44s} {entry['value']:.6g} {entry['unit']}")
    raw = {cmd: statistics.median(p[cmd] for p in detail["raw_passes"]) for cmd in COMMANDS}
    if "setup_raw_s" in detail:
        raw = {"setup": detail["setup_raw_s"], **raw}
    print("# unscaled wall seconds, median: "
          + ", ".join(f"{cmd} {v:.4g}" for cmd, v in raw.items()))
    for problem in detail["problems"]:
        print(f"# problem: {problem}")
    print(json.dumps({"environment": detail["environment"], "missing": detail["missing"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
