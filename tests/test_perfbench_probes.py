"""The benchmark's probes still fit the program.

``perfbench/spans.py`` wraps program functions by name and ``perfbench/run.py``
calls six ``fields`` kernels standalone; a probe that no longer fits is
reported as a missing per-layer metric, not as an error.  These tests load
``spans.py`` by its path (it only reads) and take run.py's probe list from its
source without importing it, since importing run.py rewrites BLAS settings.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from prodimm.dataio import Dataset
from prodimm.extract import default_tolerances, extract_all, fixture
from prodimm.fields import ChartGrid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The call shapes of run.py's ``standalone_fields``.
FIELD_CALLS = {
    "fields.grad_field": lambda fn, ds: fn(ds.grid, ds.metric.values),
    "fields.hessian_field": lambda fn, ds: fn(ds.grid, ds.metric.values),
    "fields.christoffel": lambda fn, ds: fn(ds.metric),
    "fields.curvature_tensor": lambda fn, ds: fn(ds.metric),
    "fields.shape_operator_field": lambda fn, ds: fn(ds.sigma, ds.metric),
    "fields.bundle_curvature": lambda fn, ds: fn(ds.bundle),
}


def _spans_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _program_attr(name: str):
    module, attr = name.rsplit(".", 1)
    return getattr(importlib.import_module(f"prodimm.{module}"), attr, None)


def _run_py_constant(name: str):
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_every_span_probe_names_a_callable(monkeypatch):
    probes = _spans_module(monkeypatch).SPAN_PROBES
    assert probes
    missing = [name for name in probes if not callable(_program_attr(name))]
    assert not missing, missing
    assert callable(_program_attr("fields.sweep_steps"))     # the transport step counter
    assert isinstance(_program_attr("extract.FIXTURES"), dict)   # the evaluation counters


def test_field_probes_accept_the_standalone_call_shapes():
    assert set(_run_py_constant("FIELD_PROBES")) == set(FIELD_CALLS)
    imm, _ = fixture("F3")
    grid = ChartGrid(dims=(9, 9), spacing=(1.5 / 8, 1.5 / 8), origin=(0.0, 0.0))
    ds = Dataset.from_extraction(extract_all(imm, grid, use_analytic=False))
    for name, call in FIELD_CALLS.items():
        fn = _program_attr(name)
        assert callable(fn), name
        call(fn, ds)


def test_tracer_counts_the_rebuild_layers(monkeypatch):
    """One 2-D rebuild: transport and cross-check sweeps, one path-independence record."""
    imm, _ = fixture("F3")
    grid = ChartGrid(dims=(9, 9), spacing=(1.5 / 8, 1.5 / 8), origin=(0.0, 0.0))
    data = extract_all(imm, grid)
    tracer = _spans_module(monkeypatch).Tracer()
    tracer.install()
    try:
        _program_attr("reconstruct.reconstruct_immersion")(
            data, tolerances=default_tolerances(data))
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    assert calls["reconstruct.reconstruct_immersion"] == 1
    assert calls["reconstruct.sweep_parallel_frame"] == 2
    assert calls["reconstruct.path_independence_residual"] == 1
    sweeps = [sp for sp in tracer.spans if sp.name == "reconstruct.sweep_parallel_frame"]
    assert all(sp.counts.get("sweep_steps", 0) > 0 for sp in sweeps)
    assert not tracer.missing, tracer.missing


def test_tracer_counts_the_check_layers(monkeypatch):
    """One 2-D check: every structure and flat-bundle span opens once, none is missing."""
    imm, _ = fixture("F3")
    grid = ChartGrid(dims=(9, 9), spacing=(1.5 / 8, 1.5 / 8), origin=(0.0, 0.0))
    data = extract_all(imm, grid)
    tracer = _spans_module(monkeypatch).Tracer()
    tracer.install()
    try:
        _program_attr("cli.check_dataset")(data, default_tolerances(data))
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    for name in ("cli.check_dataset", "structure.check_all", "structure.check_psi_algebra",
                 "structure.check_psi_parallel", "structure.check_gauss",
                 "structure.check_codazzi", "structure.check_ricci",
                 "flatbundle.build_connection", "flatbundle.metric_compatibility_residual",
                 "flatbundle.flatness_residual", "flatbundle.psi_tilde_parallel_residual"):
        assert calls.get(name) == 1, (name, calls.get(name))
    assert not tracer.missing, tracer.missing
