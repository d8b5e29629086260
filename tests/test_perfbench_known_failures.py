"""The benchmark's listed known failures pass in the program.

``perfbench/workloads.py`` lists items whose commands may exit 1
(``KNOWN_FAILURES``), and the benchmark forgives those exits; so a
regression on one of those items would go unnoticed there.  This test runs
every command of each listed item at the pinned seed and requires exit 0.
It loads ``workloads.py`` by its path (it only reads) and never imports
``run.py``, which rewrites BLAS settings on import.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from prodimm.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look it up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


_MODULE = _workloads_module()


@pytest.mark.parametrize("workload,label", sorted(_MODULE.KNOWN_FAILURES), ids=str)
def test_known_failure_items_exit_zero(workload, label, tmp_path):
    item = next(it for it in _MODULE.make_workload(workload, _MODULE.PINNED_SEED).items
                if it.label == label)
    codes = {command: main(item.argv(command, tmp_path)) for command in _MODULE.COMMANDS}
    assert codes == dict.fromkeys(_MODULE.COMMANDS, 0)
