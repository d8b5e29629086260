"""Checks used by ``run.py --smoke``: BENCHMARK.json's shape and a result's metrics."""

from __future__ import annotations

import json
import re
from pathlib import Path

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def validate_benchmark_json(path: Path, end_to_end: dict, per_layer: dict) -> list:
    """Problems with BENCHMARK.json, and with its agreement with the metrics run.py emits."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"BENCHMARK.json unreadable: {exc}"]
    if len(path.read_bytes()) > 64 * 1024:
        return ["BENCHMARK.json is over 64 KiB"]
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != keys:
        return [f"BENCHMARK.json keys {sorted(doc)} != {sorted(keys)}"]
    errors = []
    cmd = doc["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32
            and all(isinstance(c, str) and len(c) <= 200 and not c.startswith("/")
                    and ".." not in c.split("/") for c in cmd)):
        errors.append("command must be at most 32 relative strings")
    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16
            and all(isinstance(p, str) and PATH.match(p) and ".." not in p.split("/")
                    for p in paths)):
        errors.append("paths must be 1 to 16 relative directories")
    rs = doc["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        errors.append("run_seconds must be a whole number from 1 to 60")
    wl = doc["workloads"]
    if not (isinstance(wl, list) and 2 <= len(wl) <= 8):
        errors.append("2 to 8 workloads")
    else:
        for w in wl:
            if set(w) != {"name", "why"} or not NAME.match(str(w["name"])) \
                    or len(str(w["why"])) > 200 or "\n" in str(w["why"]):
                errors.append(f"bad workload entry {w}")
    seen: set = set()
    for key, limit, bounded, emitted in (("end_to_end", 16, True, end_to_end),
                                         ("per_layer", 128, False, per_layer)):
        entries = doc[key]
        if not (isinstance(entries, list) and 1 <= len(entries) <= limit):
            errors.append(f"{key}: 1 to {limit} metrics")
            continue
        fields = {"name", "unit", "better"} | ({"bound"} if bounded else set())
        for m in entries:
            name = str(m.get("name"))
            if set(m) != fields:
                errors.append(f"{key} {name}: keys {sorted(m)}")
            if not NAME.match(name) or name in seen:
                errors.append(f"{key} {name}: bad or repeated name")
            seen.add(name)
            if not UNIT.match(str(m.get("unit"))) or m.get("better") not in ("lower", "higher"):
                errors.append(f"{key} {name}: bad unit or direction")
            if bounded and not (isinstance(m.get("bound"), (int, float))
                                and 0 < m["bound"] <= 0.25):
                errors.append(f"{key} {name}: bound must be in (0, 0.25]")
        declared = {m.get("name"): m.get("unit") for m in entries}
        if declared != emitted:
            errors.append(f"{key}: BENCHMARK.json {declared} != emitted {emitted}")
    setup = next((m for m in doc["end_to_end"] if m.get("name") == "setup_s"), None)
    if not setup or setup.get("unit") != "s" or setup.get("better") != "lower":
        errors.append("end_to_end needs setup_s in s, lower is better")
    elif any(m["bound"] > setup["bound"] for m in doc["end_to_end"]):
        errors.append("setup_s must have the largest bound")
    return errors


def result_errors(result: dict, expected: dict) -> list:
    errors = []
    if set(result) - {"detail"} != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"incorrect: {result.get('detail', {}).get('problems')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append("attempted must be at least 1")
    got = {name: entry.get("unit") for name, entry in result.get("metrics", {}).items()
           if isinstance(entry.get("value"), (int, float))}
    for name, unit in expected.items():
        if got.get(name) != unit:
            errors.append(f"metric {name} missing or without unit {unit}")
    return errors
