"""Compare the seed-0 benchmark commands of this checkout with those of another one.

    python tools/parity.py OTHER_CHECKOUT

The commands are those of ``perfbench/workloads.make_workload(name, 0)`` for the
``surface``, ``curve`` and ``desk`` workloads: extract, check, reconstruct and
roundtrip of each item, 32 in all.  Each runs in a fresh ``python -m prodimm``
per tree, with that tree's ``src`` on ``PYTHONPATH``, in a temporary directory.
The exit codes, stdout and stderr (the temporary directory replaced by a
placeholder), the dataset and mesh bytes, and each report without its
``timings`` are compared.  Every mismatch is printed, and the exit code is 1 if
there is one.  The workloads module is only read, and nothing is written inside
either checkout.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True   # loading the workloads module writes no __pycache__

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("surface", "curve", "desk")
SEED = 0


def load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)   # for its dataclasses
    spec.loader.exec_module(module)
    return module


def run(tree: Path, argv: list, directory: Path) -> dict:
    """Exit code, stdout and stderr of ``python -m prodimm argv`` from ``tree``'s ``src``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "prodimm", *argv], cwd=directory, env=env,
                          capture_output=True, text=True)
    return {"exit code": proc.returncode, "stdout": proc.stdout.replace(str(directory), "<dir>"),
            "stderr": proc.stderr.replace(str(directory), "<dir>")}


def written(files: dict) -> dict:
    """The dataset and mesh bytes and each report without ``timings``; None if not written."""
    out = {}
    for key, path in files.items():
        if not path.exists():
            out[key] = None
        elif path.suffix == ".csv" or key == "dataset":
            out[key] = path.read_bytes()
        else:
            doc = json.loads(path.read_text())
            doc.pop("timings", None)
            out[key] = json.dumps(doc, sort_keys=True)   # NaN compares equal as text
    return out


def first_difference(a, b) -> str:
    if isinstance(a, (str, bytes)) and isinstance(b, (str, bytes)) and type(a) is type(b):
        at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        return f"lengths {len(a)} and {len(b)}, first difference at {at}: " \
               f"{a[max(0, at - 30):at + 50]!r} vs {b[max(0, at - 30):at + 50]!r}"
    return f"{a!r} vs {b!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="the checkout to compare with")
    other = parser.parse_args(argv).other.resolve()
    workloads = load_workloads()
    trees = {"this": ROOT, "other": other}
    commands = mismatches = 0
    with tempfile.TemporaryDirectory(prefix="parity-") as scratch:
        for name in WORKLOADS:
            for item in workloads.make_workload(name, SEED).items:
                results = {}
                for tree_name, tree in trees.items():
                    directory = Path(scratch, tree_name, name, item.label)
                    directory.mkdir(parents=True)
                    results[tree_name] = {cmd: run(tree, item.argv(cmd, directory), directory)
                                          for cmd in workloads.COMMANDS}
                    results[tree_name]["files"] = written(item.files(directory))
                commands += len(workloads.COMMANDS)
                for step, mine in results["this"].items():
                    for key, value in mine.items():
                        theirs = results["other"][step][key]
                        if value != theirs:
                            mismatches += 1
                            print(f"{name} {item.label} {step} {key}: "
                                  f"{first_difference(value, theirs)}")
    print(f"{commands} commands against {other}: {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
