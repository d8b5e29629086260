"""In-memory span tracing around calls into the program's modules.

Spans are recorded from outside the program: each probed function is replaced
by a wrapper in every ``prodimm`` module that holds a reference to it, for the
duration of the traced pass only.  A span records name, start, end, parent and
item; counters bumped while a span is open are added to that span and all its
ancestors.  A probe whose function is gone is reported as missing.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from contextlib import contextmanager

# Functions wrapped in spans during the traced pass, named module.function.
# The fields kernels are not among them: run.py times one standalone call of each.
SPAN_PROBES = (
    "cli.check_dataset",
    "dataio.save_dataset", "dataio.load_dataset", "dataio.save_immersion_csv",
    "dataio.save_report",
    "extract.extract_all", "extract.induced_normal_frame",
    "structure.check_all", "structure.check_psi_algebra", "structure.check_psi_parallel",
    "structure.check_gauss", "structure.check_codazzi", "structure.check_ricci",
    "flatbundle.build_connection", "flatbundle.metric_compatibility_residual",
    "flatbundle.flatness_residual", "flatbundle.psi_tilde_parallel_residual",
    "reconstruct.reconstruct_immersion", "reconstruct.sweep_parallel_frame",
    "reconstruct.verify_reconstruction", "reconstruct.path_independence_residual",
    "reconstruct.align_congruence",
)
# Calls whose arguments are kept (first call on ``capture_item``) for the tracemalloc replay.
CAPTURED = ("extract.extract_all", "cli.check_dataset", "reconstruct.reconstruct_immersion")


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    item: str | None
    end: float = 0.0
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.item: str | None = None
        self.capture_item: str | None = None
        self.captured: dict = {}
        self.missing: set = set()
        self._restore: list = []

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1].id if self.stack else None
        sp = Span(id=len(self.spans), name=name, start=time.perf_counter(),
                  parent=parent, item=self.item)
        self.spans.append(sp)
        self.stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self.stack.pop()

    def count(self, key: str, amount: int = 1):
        for sp in self.stack:
            sp.counts[key] = sp.counts.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        capture = name in CAPTURED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if capture and self.item == self.capture_item and name not in self.captured:
                self.captured[name] = (fn, args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _replace_everywhere(self, original, replacement):
        """Rebind every module-level name in the package that holds ``original``."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("prodimm"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))

    def install(self):
        for name in SPAN_PROBES:
            fn = _lookup(name)
            if fn is None:
                self.missing.add(name)
                continue
            self._replace_everywhere(fn, self._wrap(name, fn))
        sweep = _lookup("fields.sweep_steps")
        if sweep is None:
            self.missing.add("fields.sweep_steps")
        else:
            @functools.wraps(sweep)
            def counted_sweep(*args, **kwargs):
                for step in sweep(*args, **kwargs):
                    self.count("sweep_steps")
                    yield step
            self._replace_everywhere(sweep, counted_sweep)
        self._install_eval_counters()

    def _install_eval_counters(self):
        """Count closed-form point and derivative evaluations of the fixtures."""
        fixtures = getattr(_module("extract"), "FIXTURES", None)
        if not isinstance(fixtures, dict):
            self.missing.add("extract.FIXTURES")
            return
        originals = dict(fixtures)

        def counting(fn, key):
            if fn is None:
                return None

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.count(key)
                return fn(*args, **kwargs)
            return wrapper

        def make(factory):
            @functools.wraps(factory)
            def wrapper(*args, **kwargs):
                imm, grid = factory(*args, **kwargs)
                imm = dataclasses.replace(
                    imm, point=counting(imm.point, "point_evals"),
                    derivative=counting(imm.derivative, "derivative_evals"))
                return imm, grid
            return wrapper

        for key, factory in originals.items():
            fixtures[key] = make(factory)
        self._restore.append((fixtures, None, originals))

    def uninstall(self):
        while self._restore:
            target, attr, original = self._restore.pop()
            if attr is None:
                target.clear()
                target.update(original)
            else:
                setattr(target, attr, original)

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict:
        """Span id -> duration minus the time its direct children cover."""
        child = {sp.id: 0.0 for sp in self.spans}
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.duration
        return {sp.id: sp.duration - child[sp.id] for sp in self.spans}

    def summary(self) -> dict:
        selfs = self.self_times()
        out: dict = {}
        for sp in self.spans:
            row = out.setdefault(sp.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += sp.duration
            row["self_s"] += selfs[sp.id]
        return out

    def to_json(self) -> dict:
        return {"spans": [{"id": sp.id, "name": sp.name, "start": sp.start, "end": sp.end,
                           "parent": sp.parent, "item": sp.item, "counts": sp.counts}
                          for sp in self.spans],
                "summary": self.summary(), "missing": sorted(self.missing)}


def _module(short: str):
    try:
        return importlib.import_module(f"prodimm.{short}")
    except ImportError:
        return None


def _lookup(name: str):
    mod_name, attr = name.rsplit(".", 1)
    fn = getattr(_module(mod_name), attr, None)
    return fn if callable(fn) else None
