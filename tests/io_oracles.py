"""Element-by-element reference writers for the dataset, report and mesh text.

These are the writers that ``prodimm.dataio`` replaced with whole-array
encoder and format calls: a Python type test on every element before a
numeric array is inlined, one ``str.replace`` pass per array, and one
``csv.writer`` row of ``repr(float(v))`` strings per mesh node.  The new
writers must give the same bytes.

``field_values`` and ``edit_field`` decode and re-encode one base64 field of a
``/2`` document with the ``base64`` module, independently of the loader.
"""

import base64
import csv
import io
import json

import numpy as np

from prodimm.dataio import immersion_csv_header
from prodimm.lorentz import minkowski_dot

V2_SCHEMA = "prodimm-dataset/2"


def field_values(doc: dict, name: str) -> np.ndarray:
    """A writable flat copy of field ``name`` of a ``/2`` dataset document."""
    assert doc["schema"] == V2_SCHEMA, doc["schema"]
    return np.frombuffer(base64.b64decode(doc["fields"][name], validate=True),
                         dtype="<f8").copy()


def edit_field(doc: dict, name: str, edit) -> None:
    """Replace field ``name`` of a ``/2`` document by ``edit(flat values)``, re-encoded."""
    values = np.asarray(edit(field_values(doc, name)), dtype="<f8")
    doc["fields"][name] = base64.b64encode(values.tobytes()).decode("ascii")


def render_with_inline_arrays(doc: dict) -> str:
    """Indented JSON with numeric arrays kept on single lines."""
    arrays: list[str] = []

    def stash(obj):
        if isinstance(obj, dict):
            return {k: stash(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)) and obj and all(
                isinstance(v, (int, float)) for v in obj):
            arrays.append(json.dumps(list(obj)))
            return f"@@array{len(arrays) - 1}@@"
        if isinstance(obj, (list, tuple)):
            return [stash(v) for v in obj]
        return obj

    text = json.dumps(stash(doc), indent=2)
    for idx, payload in enumerate(arrays):
        text = text.replace(f'"@@array{idx}@@"', payload)
    return text


def immersion_csv_text(k: int, values: np.ndarray, repair: bool = False) -> str:
    """The mesh file ``save_immersion_csv`` writes, one ``csv.writer`` row per node."""
    pts = np.array(values, dtype=float)
    if repair:
        x = pts[..., : k + 1]
        y = pts[..., k + 1:]
        x /= np.sqrt(np.einsum("...i,...i->...", x, x))[..., None]
        y /= np.sqrt(-minkowski_dot(y, y))[..., None]
    handle = io.StringIO(newline="")
    writer = csv.writer(handle)
    writer.writerow(immersion_csv_header(k, pts.shape[-1]))
    for row in pts.reshape(-1, pts.shape[-1]):
        writer.writerow([repr(float(v)) for v in row])
    return handle.getvalue()
