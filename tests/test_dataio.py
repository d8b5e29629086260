"""The dataset, report and mesh writers give the bytes of the element-by-element oracles."""

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from prodimm import cli
from prodimm.dataio import (Dataset, Report, _render_with_inline_arrays, dataset_to_dict,
                            load_dataset, load_immersion_csv, report_from_dict, report_to_dict,
                            save_dataset, save_immersion_csv, save_report)
from prodimm.errors import GridMismatchError, ReconstructionError, SchemaError
from prodimm.fields import BundleData, ChartGrid, MetricField, SecondFormField
from prodimm.structure import CheckRecord, ToleranceModel

import io_oracles
from conftest import random_geometry


def _oracle_json(doc: dict) -> bytes:
    return (io_oracles.render_with_inline_arrays(doc) + "\n").encode()


@pytest.mark.parametrize("bundle", ["f1", "f1_fd", "f3", "f3_fd"])
def test_dataset_bytes_match_oracle(request, tmp_path, bundle):
    ds = request.getfixturevalue(bundle).dataset()
    path = tmp_path / "ds.json"
    save_dataset(ds, str(path))
    assert path.read_bytes() == _oracle_json(dataset_to_dict(ds))


def test_dataset_psi_blocks_keep_their_names(tmp_path):
    """On a 2-dim chart with p = 3, u (3, 2) and U (2, 3) are independent and differ in shape."""
    geom = random_geometry(11, (7, 8), p=3)
    ds = Dataset(metric=geom.metric, bundle=geom.bundle, sigma=geom.sigma,
                 psi=geom.psi, tolerances=ToleranceModel(), meta={})
    path = tmp_path / "ds.json"
    save_dataset(ds, str(path))
    psi = geom.psi
    blocks = {"psi.f": psi[..., :2, :2], "psi.u": psi[..., 2:, :2],
              "psi.U": psi[..., :2, 2:], "psi.lambda": psi[..., 2:, 2:]}
    doc = json.loads(path.read_text())
    back = load_dataset(str(path)).psi
    for name, block in blocks.items():
        assert np.array_equal(io_oracles.field_values(doc, name).view(np.int64),
                              block.ravel().view(np.int64)), name
    assert back.view(np.int64).tolist() == psi.view(np.int64).tolist()


def _assert_same_bits(back: Dataset, ds: Dataset):
    """Every loaded field is writable and bitwise equal to the saved one."""
    def arrays(d: Dataset) -> tuple:
        return d.metric.values, d.bundle.omega, d.sigma.values, d.psi

    for name, got, want in zip(("metric", "bundle", "sigma", "psi"), arrays(back), arrays(ds)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
        assert got.flags.writeable, name


def _special_dataset() -> Dataset:
    """A valid dataset whose fields hold -0.0, a subnormal and +-1e300."""
    geom = random_geometry(5, (6, 5), p=2)
    tiny = np.nextafter(0.0, 1.0) * 3            # subnormal
    g = geom.metric.values.copy()
    g[..., 0, 1] = g[..., 1, 0] = -0.0
    g[1, 2, 0, 1] = g[1, 2, 1, 0] = tiny
    omega = geom.bundle.omega.copy()
    omega[..., 0, 0, 1], omega[..., 0, 1, 0] = 1e300, -1e300
    sigma = geom.sigma.values.copy()
    sigma[0, 0, 0, 1, 1] = sigma[0, 0, 1, 0, 1] = -1e300
    psi = geom.psi.copy()
    psi[..., 0, 0] = -0.0
    psi[2, 1, 3, 2] = -tiny
    psi[3, 0, 1, 3] = 1e300
    return Dataset(metric=MetricField(geom.grid, g),
                   bundle=BundleData(geom.grid, omega),
                   sigma=SecondFormField(geom.grid, sigma), psi=psi,
                   tolerances=ToleranceModel(), meta={"case": "special values"})


def test_dataset_roundtrip_keeps_special_values_bitwise(tmp_path):
    ds = _special_dataset()
    path = tmp_path / "special.json"
    save_dataset(ds, str(path))
    assert json.loads(path.read_text())["schema"] == "prodimm-dataset/2"
    _assert_same_bits(load_dataset(str(path)), ds)


def test_dataset_fields_on_two_grids_are_rejected():
    """A dataset's grid is its fields' grid: no other grid can be saved with them."""
    geom = random_geometry(5, (6, 5), p=2)
    coarse = ChartGrid(dims=(6, 5), spacing=(0.5, 0.5), origin=(0.0, 0.0))
    with pytest.raises(GridMismatchError):
        Dataset(metric=MetricField(coarse, geom.metric.values), bundle=geom.bundle,
                sigma=geom.sigma, psi=geom.psi, tolerances=ToleranceModel(), meta={})


def test_record_verdict_is_read_off_max_and_threshold():
    records = (CheckRecord("gauss", 0.5, 0.1, (2,), 0.5),
               CheckRecord("codazzi", 0.7, 0.1, (1,), 0.5),
               CheckRecord("ricci", float("nan"), 0.0, (0,), float("inf")))
    assert [r.passed for r in records] == [True, False, False]
    doc = report_to_dict(Report(records=records))
    assert [c["pass"] for c in doc["checks"]] == [True, False, False]
    for check in doc["checks"]:
        check["pass"] = not check["pass"]   # a stale verdict in the document is not read
    assert [r.passed for r in report_from_dict(doc).records] == [True, False, False]
    # the alignment is one more input: its distance against its tolerance, NaN failing
    for distance, tol, passed in ((0.5, 0.5, True), (0.7, 0.5, False),
                                  (float("nan"), float("inf"), False), (float("nan"), None, True)):
        block = {"max_distance": distance} | ({} if tol is None else {"distance_tol": tol})
        doc = report_to_dict(Report(records=records[:1], alignment=block))
        assert doc["pass"] is passed
        doc["pass"] = not passed
        assert report_from_dict(doc).passed is passed


@pytest.mark.parametrize("block", [5, [0.1], {}, {"max_distance": "0.1"}, {"max_distance": True},
                                   {"max_distance": 0.1, "distance_tol": None}],
                         ids=["number", "list", "no_distance", "string", "bool", "null_tol"])
def test_malformed_alignment_block_is_a_schema_error(block):
    with pytest.raises(SchemaError, match="alignment"):
        report_from_dict({"schema": "prodimm-report/1", "checks": [], "alignment": block})


def test_report_bytes_match_oracle(tmp_path, monkeypatch):
    saved = []

    def recording_save_report(report, path):
        saved.append((report, path))
        save_report(report, path)

    monkeypatch.setattr(cli, "save_report", recording_save_report)
    ds_path, mesh = tmp_path / "f1.json", tmp_path / "f1.csv"
    assert cli.main(["extract", "--fixture", "F1", "-o", str(ds_path)]) == 0
    assert cli.main(["check", str(ds_path), "--report", str(tmp_path / "check.json")]) == 0
    assert cli.main(["reconstruct", str(ds_path), "-o", str(mesh)]) == 0
    assert cli.main(["roundtrip", "--fixture", "F1", "--distance-tol", "1e-4",
                     "--report", str(tmp_path / "roundtrip.json")]) == 0
    assert cli.main(["align", str(mesh), str(mesh), "-o", str(tmp_path / "align.json")]) == 0
    check, rebuild, roundtrip, align = (report_to_dict(report) for report, _ in saved)
    assert "timings" in check
    assert {"reconstruction", "timings"} <= rebuild.keys()
    assert "alignment" in roundtrip
    assert align["checks"] == [] and "alignment" in align
    for report, path in saved:
        assert Path(path).read_bytes() == _oracle_json(report_to_dict(report)), path


def test_inline_rule_matches_oracle():
    doc = {"flags": [True, False], "ints": [1, 2, 3], "tuple": (3, 4.0),
           "mixed": [1, 2.5, True, np.float64(0.1)],
           "numpy": [np.float64(1e-300), np.float64(-0.0)], "scalar": np.float64(2.0),
           "special": [float("nan"), float("-inf")],
           "nested": [[1, 2], [3.0], []], "empty": [], "strings": ["a", 1],
           "holes": [1.0, None], "records": [{"argmax_node": [0, 5], "pass": True}, {}]}
    text = _render_with_inline_arrays(doc)
    assert text == io_oracles.render_with_inline_arrays(doc)
    assert '"mixed": [1, 2.5, true, 0.1]' in text
    assert '"nested": [\n    [1, 2],\n    [3.0],\n    []\n  ]' in text
    assert '"strings": [\n    "a",\n    1\n  ]' in text


@pytest.mark.parametrize("repair", [False, True])
def test_mesh_bytes_match_oracle(f3, tmp_path, repair):
    values = f3.recon.points
    path = tmp_path / "mesh.csv"
    save_immersion_csv(str(path), f3.grid, f3.recon.k, values, repair=repair)
    expected = io_oracles.immersion_csv_text(f3.grid, f3.recon.k, values, repair=repair)
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("block, planted", [
    ("sphere block is zero", {(20, 30): (slice(0, 3), 0.0), (40, 2): (slice(3, 6), 0.0)}),
    ("hyperbolic block is not timelike", {(20, 30): (slice(3, 6), (2.0, 0.0, 1.0)),
                                          (40, 2): (slice(0, 3), 0.0),
                                          (50, 7): (slice(3, 6), (1.0, 0.0, 1.0))})],
    ids=["sphere_zero", "hyperbolic_spacelike"])
def test_mesh_repair_names_the_first_unrepairable_node(f3, tmp_path, block, planted):
    """A point with no repair onto the product raises before the file exists; no nan is written."""
    values = f3.recon.points.copy()
    for node, (cols, entry) in planted.items():
        values[node + (cols,)] = entry
    path = tmp_path / "mesh.csv"
    with pytest.raises(ReconstructionError, match=rf"node \(20, 30\): its {block}") as err:
        save_immersion_csv(str(path), f3.grid, f3.recon.k, values, repair=True)
    assert err.value.node == (20, 30)
    assert not path.exists()


def test_mesh_roundtrip_is_bitwise(f3, tmp_path):
    values = f3.recon.points
    path = tmp_path / "mesh.csv"
    save_immersion_csv(str(path), f3.grid, f3.recon.k, values)
    coords, back, k = load_immersion_csv(str(path))
    assert k == f3.recon.k
    saved_coords = f3.grid.coords().reshape(-1, f3.grid.ndim)
    saved_values = values.reshape(-1, values.shape[-1])
    assert np.array_equal(coords.view(np.int64), saved_coords.view(np.int64))
    assert np.array_equal(back.view(np.int64), saved_values.view(np.int64))


@pytest.mark.parametrize("body", ["", "1.0,2.0\n1.0\n", "1.0,abc\n"],
                         ids=["empty", "ragged", "non_numeric"])
def test_mesh_table_errors(tmp_path, body):
    path = tmp_path / "mesh.csv"
    path.write_text("t1,x1\n" + body)
    with pytest.raises(SchemaError, match="cannot parse mesh"):
        load_immersion_csv(str(path))


def test_writer_signatures_unchanged():
    """The benchmark wraps these writers by name and calls them as the CLI does."""
    def params(fn):
        return [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]

    positional, empty = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
    assert params(save_dataset) == [("ds", positional, empty), ("path", positional, empty)]
    assert params(save_report) == [("report", positional, empty), ("path", positional, empty)]
    assert params(save_immersion_csv) == [
        ("path", positional, empty), ("grid", positional, empty), ("k", positional, empty),
        ("values", positional, empty), ("repair", positional, False)]
