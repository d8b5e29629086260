"""Workload items: the CLI argument sets each workload runs, drawn from a seed.

Every item runs ``extract -> check -> reconstruct -> roundtrip``.  The seed
draws the fixture parameter and ``--seed-frame``; the program sees only the
generated arguments.  Grids and spacings are always passed explicitly, so a
change of the fixtures' default grids does not change the benchmark's inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

COMMANDS = ("extract", "check", "reconstruct", "roundtrip")
PINNED_SEED = 0

# Parameter ranges; both ends were probed on the default grids.
PARAM_RANGES = {"F1": ("--helix-a", 0.5, 0.7),
                "F2": ("--theta0", 0.9, 1.2),
                "F3": ("--theta0", 0.7, 0.9)}


@dataclass(frozen=True)
class KnownFailure:
    commands: tuple         # commands that may exit 1
    records: frozenset      # records (or "alignment") that may fail in their reports
    cause: str


# Known failures at the pinned program version, keyed by (workload, item label).
# A listed command may exit 1, and only the listed records may fail in its
# report; any other failing record or non-zero exit makes the run incorrect.
# A fix that makes them pass is welcome.
KNOWN_FAILURES = {
    ("desk", "F1-fd"): KnownFailure(
        commands=("check", "reconstruct", "roundtrip"),
        records=frozenset({"psi_parallel_f", "psi_parallel_lambda", "psi_tilde_parallel",
                           "psi_parallel_u", "psi_parallel_U"}),
        cause="psi_parallel_f is 11-15x its threshold at the edge node: the one-sided "
              "boundary stencils of FD extraction leave an O(h) error there; "
              "psi_parallel_u/U follow at 4-6.5x for helix-a below ~0.65"),
    ("curve", "F2-fd"): KnownFailure(
        commands=("roundtrip",), records=frozenset({"alignment"}),
        cause="alignment distance ~1.2-1.5e-3 against the 10h^2 = 1e-3 budget: the "
              "distance grows linearly with chart length, the h^2 budget ignores path "
              "length"),
}


def allowed_failures(workload: str, label: str, command: str) -> frozenset:
    """Records that may fail in this command's report; empty unless it is a known failure."""
    known = KNOWN_FAILURES.get((workload, label))
    return known.records if known and command in known.commands else frozenset()


@dataclass(frozen=True)
class Item:
    label: str              # fixture and route, e.g. "F3-fd"
    fixture_args: tuple     # --fixture ... arguments shared by extract and roundtrip
    seed_frame: int
    n_nodes: int

    def files(self, directory: Path) -> dict:
        return {"dataset": directory / "ds.json", "mesh": directory / "mesh.csv",
                **{cmd: directory / f"{cmd}.json" for cmd in COMMANDS[1:]}}

    def argv(self, command: str, directory: Path) -> list:
        f = {k: str(v) for k, v in self.files(directory).items()}
        sf = ["--seed-frame", str(self.seed_frame)]
        if command == "extract":
            return ["extract", *self.fixture_args, "-o", f["dataset"]]
        if command == "check":
            return ["check", f["dataset"], "--report", f["check"]]
        if command == "reconstruct":
            return ["reconstruct", f["dataset"], "--force", *sf, "-o", f["mesh"],
                    "--report", f["reconstruct"]]
        if command == "roundtrip":
            return ["roundtrip", *self.fixture_args, *sf, "--report", f["roundtrip"]]
        raise ValueError(f"unknown command {command!r}")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    items: tuple
    rss_item: int           # item whose roundtrip is the workload's heaviest command


# (fixture, dims, spacing) per workload, full size and smoke size.
_GRIDS = {
    "surface": {"full": [("F3", (127, 127), 1.5 / 126)],
                "smoke": [("F3", (17, 17), 1.5 / 16)]},
    "curve": {"full": [("F2", (10001,), 1e-2)],
              "smoke": [("F2", (401,), 1e-2)]},
    "desk": {"full": [("F1", (200,), 5e-3), ("F2", (201,), 1e-2), ("F3", (64, 64), 1.5 / 63)],
             "smoke": [("F1", (50,), 5e-3), ("F2", (51,), 1e-2), ("F3", (16, 16), 1.5 / 63)]},
}
_ROUTES = {"surface": (True,), "curve": (True,), "desk": (False, True)}
_WHY = {
    "surface": "F3 on 127x127 with --fd: batched numpy kernels, 4 MB dataset JSON, "
               "2 MB mesh CSV; only 252 transport line steps",
    "curve": "F2 on 10001 nodes with --fd: per-edge Python loops in the normal-frame "
             "sweep and in 10000-step transport; checks are cheap",
    "desk": "F1, F2, F3 at default grids, analytic and --fd: small working sets where "
            "per-call fixed costs count; the only workload with both routes",
}
WORKLOADS = tuple(_GRIDS)


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    if name not in _GRIDS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    items = []
    for fx, dims, spacing in _GRIDS[name]["smoke" if smoke else "full"]:
        flag, lo, hi = PARAM_RANGES[fx]
        value = rng.uniform(lo, hi)
        n_nodes = 1
        for d in dims:
            n_nodes *= d
        for fd in _ROUTES[name]:
            args = ["--fixture", fx, flag, f"{value:.6f}",
                    "--grid", "x".join(map(str, dims)),
                    "--spacing", ",".join([repr(spacing)] * len(dims))]
            if fd:
                args.append("--fd")
            items.append(Item(label=f"{fx}-{'fd' if fd else 'analytic'}",
                              fixture_args=tuple(args),
                              seed_frame=rng.randrange(1_000_000), n_nodes=n_nodes))
    return Workload(name=name, why=_WHY[name], items=tuple(items), rss_item=len(items) - 1)
