"""Checks on the files each CLI call writes, and the reference residuals.

A report must parse, carry every record the reference lists for that item
and command, and hold finite numbers; a record may fail only if it is a known
failure of that call.  A mesh must have one row per node and points on the
product.  Residual drift compares roundtrip reports with the reference written
at the pinned seed; it is reported, never gated.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def read_report(path: Path) -> dict | None:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    return doc if isinstance(doc, dict) and isinstance(doc.get("checks"), list) else None


def record_margins(doc: dict) -> dict:
    """Record name -> (max, threshold)."""
    return {r["name"]: (float(r["max"]), float(r["threshold"])) for r in doc["checks"]}


def report_problems(doc: dict | None, expected_names: list, command: str) -> list:
    if doc is None:
        return ["report missing or unparsable"]
    try:
        margins = record_margins(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed record: {exc!r}"]
    problems = [f"record {n} missing" for n in expected_names if n not in margins]
    problems += [f"record {n} not finite" for n, (mx, thr) in margins.items()
                 if not (math.isfinite(mx) and math.isfinite(thr) and thr > 0)]
    if command == "roundtrip":
        align = doc.get("alignment") or {}
        dist, tol = align.get("max_distance"), align.get("distance_tol")
        if not (isinstance(dist, (int, float)) and isinstance(tol, (int, float))
                and math.isfinite(dist) and tol > 0):
            problems.append("alignment block missing")
    return problems


def mesh_problems(path: Path, n_nodes: int, tol: float) -> list:
    """Row count, and the first and last points on S^k x H^m to within ``tol``."""
    try:
        data = path.read_bytes()
    except OSError:
        return ["mesh missing"]
    lines = data.decode().splitlines()
    if len(lines) != n_nodes + 1:
        return [f"mesh has {len(lines) - 1} rows, expected {n_nodes}"]
    header = lines[0].split(",")
    xs = [i for i, c in enumerate(header) if c.startswith("x")]
    ys = [i for i, c in enumerate(header) if c.startswith("y")]
    problems = []
    for line in (lines[1], lines[-1]):
        row = [float(v) for v in line.split(",")]
        sphere = sum(row[i] ** 2 for i in xs) - 1.0
        hyper = row[ys[-1]] ** 2 - sum(row[i] ** 2 for i in ys[:-1]) - 1.0
        if max(abs(sphere), abs(hyper)) > tol:
            problems.append(f"mesh point off the product by {max(abs(sphere), abs(hyper)):.2e}")
    return problems


def failing_records(doc: dict) -> set:
    """Records over their threshold, and "alignment" if the roundtrip alignment is off."""
    failing = {n for n, (mx, thr) in record_margins(doc).items() if not mx <= thr}
    align = doc.get("alignment")
    if align and not float(align["max_distance"]) <= float(align["distance_tol"]):
        failing.add("alignment")
    return failing


def worst_margin(doc: dict, known: frozenset = frozenset()) -> float:
    """Largest max / threshold over the records that are not known failures."""
    return max(mx / thr for n, (mx, thr) in record_margins(doc).items() if n not in known)


def align_margin(doc: dict) -> float:
    align = doc["alignment"]
    return float(align["max_distance"]) / float(align["distance_tol"])


def expected_records(check_records: list, item_ref: dict, command: str) -> list:
    """Record names a report must carry: the check list, or the item's roundtrip records."""
    return check_records if command == "check" else list(item_ref["records"])


def reference_entry(doc: dict) -> dict:
    """What the reference keeps of a roundtrip report."""
    align = doc["alignment"]
    return {"records": {n: mx for n, (mx, _thr) in record_margins(doc).items()},
            "alignment": float(align["max_distance"])}


def residual_drift(doc: dict, ref: dict) -> float:
    """Largest |max - reference max| / threshold over the records and the alignment."""
    margins = record_margins(doc)
    drift = [abs(margins[n][0] - mx) / margins[n][1]
             for n, mx in ref["records"].items() if n in margins]
    align = doc.get("alignment") or {}
    if "max_distance" in align:
        drift.append(abs(float(align["max_distance"]) - ref["alignment"])
                     / float(align["distance_tol"]))
    return max(drift, default=math.nan)
