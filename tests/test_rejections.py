"""Every rejection that names a node carries it: as the error's ``.node`` and in its message.

One case per rejecting site: the validated fields, the evaluated immersion,
the swept normal frame, the loader, the base node of the rebuild, assembly and
the mesh repair.  Faults sit away from the grid's first node, except where the
site is the corner base itself, and the two planted turns of the normal-frame
cases put the first node in C order apart from the first in Fortran order.
"""

import json

import numpy as np
import pytest

from prodimm import extract
from prodimm.dataio import dataset_to_dict, load_dataset
from prodimm.errors import (ConstraintError, DegeneracyError, DimensionError, ExclusionError,
                            MetricError, ReconstructionError, SchemaError, StructureError)
from prodimm.extract import (FIXTURES, AnalyticImmersion, extract_all, immersion_points,
                             induced_normal_frame)
from prodimm.fields import BundleData, ChartGrid, MetricField, SecondFormField
from prodimm.flatbundle import Geometry
from prodimm.lorentz import onto_product
from prodimm.reconstruct import assemble_immersion, reconstruct_immersion
from prodimm.structure import ToleranceModel

from io_oracles import edit_field

GRID = ChartGrid(dims=(6, 7), spacing=(0.1, 0.12), origin=(0.0, 0.2))
GRID3 = ChartGrid(dims=(5, 6, 5), spacing=(0.1, 0.12, 0.1), origin=(0.0, 0.2, -0.3))


def _metric(node, block, grid=GRID):
    n = grid.ndim
    g = np.broadcast_to(np.eye(n), grid.dims + (n, n)).copy()
    g[node] = block
    return MetricField(grid, g)


def _planted(shape, index, value=1e-6):
    values = np.zeros(GRID.dims + shape)
    values[index] = value
    return values


def _f1_point(node, edit):
    imm, grid = FIXTURES["F1"]()

    def point(coords):
        out = imm.point(coords)
        edit(out[node])
        return out
    return AnalyticImmersion(name="F1", k=1, m=1, n=1, point=point), grid


def _far_f1():
    """F1 on a chart whose |y|^2 overflows from node 110 on: t = 443.5 + 5e-3 i, |y|^2 ~
    exp(1.6 t) / 2.  The evaluation warns nowhere (pytest makes every warning an error)."""
    imm, _ = FIXTURES["F1"]()
    return immersion_points(imm, ChartGrid(dims=(200,), spacing=(5e-3,), origin=(443.5,)))


def _pole_surface(turned, tangent):
    """A surface of S^2 x H^1 at one point, tangents (e_0, e_1) except (e_0, ``tangent``)
    at the ``turned`` nodes; the base normal is e_3."""
    pole = np.array([0.0, 0.0, 1.0, 0.0, 1.0])
    imm = AnalyticImmersion(name="pole", k=2, m=1, n=2,
                            point=lambda c: np.broadcast_to(pole, c.shape[:-1] + (5,)))
    tangents = np.broadcast_to(np.eye(5)[:2], GRID.dims + (2, 5)).copy()
    for node in turned:
        tangents[node + (1,)] = np.eye(5)[tangent]
    return imm, immersion_points(imm, GRID), tangents


def _normal_frame(turned, tangent):
    imm, points, tangents = _pole_surface(turned, tangent)
    induced_normal_frame(imm, GRID, points, tangents)


def _no_completion(request):
    request.getfixturevalue("monkeypatch").setattr(extract, "complete_basis",
                                                   lambda *args, **kwargs: [])
    _normal_frame((), 1)


def _broken_frame(request, edit):
    f1 = request.getfixturevalue("f1")
    frame = f1.recon.frame.copy()
    edit(frame[57])
    assemble_immersion(frame, f1.recon.k)


def _unrepairable_point(request):
    f1 = request.getfixturevalue("f1")
    points = f1.recon.points.copy()
    points[57, :2] = 0.0
    onto_product(points, f1.recon.k)


def _nan_psi_document(request):
    """The loader reads the file: ``load_dataset`` keeps the node of the error it names."""
    doc = dataset_to_dict(request.getfixturevalue("f1").data)

    def poison(values):
        values[57] = np.nan
        return values
    edit_field(doc, "psi.lambda", poison)
    path = request.getfixturevalue("tmp_path") / "nan.json"
    path.write_text(json.dumps(doc))
    load_dataset(str(path))


def _rebuild_with_psi(request, scale):
    data = request.getfixturevalue("f1").data
    psi = scale(data.psi)
    reconstruct_immersion(Geometry(data.metric, data.bundle, data.sigma, psi), ToleranceModel())


# case: (reject(request), error type, node, a fragment of the site's message)
CASES = {
    "check_values_metric_nan": (lambda r: _metric((4, 2), [[1.0, np.nan], [0.0, 1.0]]),
                                DimensionError, (4, 2), "non-finite value"),
    "metric_asymmetric": (lambda r: _metric((3, 5), [[1.0, 1e-6], [0.0, 1.0]]),
                          MetricError, (3, 5), "metric asymmetric"),
    "metric_not_positive_definite": (lambda r: _metric((2, 1), np.diag([1.0, -1.0])),
                                     MetricError, (2, 1), "not positive definite"),
    # leading minors 2 and 3 pass; only det g = -5 fails
    "metric_3x3_negative_determinant": (
        lambda r: _metric((2, 3, 1), [[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, -1.0]],
                          GRID3),
        MetricError, (2, 3, 1), "not positive definite"),
    "bundle_not_skew": (lambda r: BundleData(GRID, _planted((2, 2, 2), (1, 4, 0, 1, 0))),
                        DimensionError, (1, 4), "connection not skew"),
    "second_form_asymmetric": (
        lambda r: SecondFormField(GRID, _planted((2, 2, 1), (5, 6, 0, 1, 0))),
        DimensionError, (5, 6), "second form asymmetric"),
    "immersion_off_the_product": (
        lambda r: immersion_points(*_f1_point(123, lambda p: np.multiply(p, 1.1, out=p))),
        ConstraintError, (123,), "leaves the product"),
    "immersion_overflows": (lambda r: _far_f1(), ConstraintError, (110,),
                            "point or its |y|^2 is not finite"),
    # far from the apex the metric's pairings round to noise before anything else fails
    "metric_precision_lost_far_from_the_apex": (
        lambda r: extract_all(FIXTURES["F1"]()[0], ChartGrid((200,), (5e-3,), (30.0,))),
        MetricError, (0,), "precision lost far from the apex, where |y|^2 = 3.508e+20"),
    "immersion_lower_sheet": (
        lambda r: immersion_points(*_f1_point(123, lambda p: np.negative(p[2:], out=p[2:]))),
        ConstraintError, (123,), "lower sheet"),
    # the first turned node in C order; the normal frame names the first in Fortran order
    "tangent_rank": (lambda r: _normal_frame([(1, 4), (3, 2)], 0),
                     DegeneracyError, (1, 4), "rank-deficient"),
    "normal_frame_degenerates": (lambda r: _normal_frame([(1, 4), (3, 2)], 3),
                                 DegeneracyError, (3, 2), "normal frame degenerates"),
    "normal_frame_base_completion": (_no_completion, DegeneracyError, (0, 0),
                                     "canonical completion"),
    "mesh_repair": (_unrepairable_point, ReconstructionError, (57,), "sphere block is zero"),
    "assemble_lower_sheet": (lambda r: _broken_frame(r, lambda f: np.negative(f, out=f)),
                             ReconstructionError, (57,), "lower sheet"),
    "assemble_nan": (lambda r: _broken_frame(r, lambda f: f.fill(np.nan)),
                     ReconstructionError, (57,), "not finite"),
    "loader_nan_psi": (_nan_psi_document, SchemaError, (57,), "non-finite value"),
    "base_node_not_an_involution": (lambda r: _rebuild_with_psi(r, lambda psi: 1.2 * psi),
                                    StructureError, (100,), "not an involution"),
    "base_node_excluded_identity": (
        lambda r: _rebuild_with_psi(r, lambda psi: np.broadcast_to(np.eye(2), psi.shape)),
        ExclusionError, (100,), "plus/minus identity"),
}


@pytest.mark.parametrize("case", CASES)
def test_every_nodal_rejection_carries_its_node(request, case):
    reject, error, node, site = CASES[case]
    with pytest.raises(error) as err:
        reject(request)
    assert type(err.value) is error
    assert err.value.node == node
    assert site in str(err.value) and f"node {node}" in str(err.value)
