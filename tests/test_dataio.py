"""The dataset, report and mesh writers give the bytes of the element-by-element oracles."""

import inspect
import json
import os
import re
import stat
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from prodimm import cli, dataio
from prodimm.dataio import (_CSV_BLOCK_ROWS, Dataset, _render_with_inline_arrays,
                            dataset_to_dict, load_dataset, load_rebuild, report_from_dict,
                            report_to_dict, save_dataset, save_immersion_csv, save_report,
                            tolerances_from_dict, tolerances_to_dict)
from prodimm.errors import DimensionError, GridMismatchError, ReconstructionError, SchemaError
from prodimm.fields import BundleData, ChartGrid, MetricField, SecondFormField
from prodimm.lorentz import onto_product
from prodimm.structure import CheckRecord, Report, ToleranceModel

import io_oracles
from conftest import random_geometry


def _oracle_json(doc: dict) -> bytes:
    return (io_oracles.render_with_inline_arrays(doc) + "\n").encode()


@pytest.mark.parametrize("bundle", ["f1", "f1_fd", "f3", "f3_fd"])
def test_dataset_bytes_match_oracle(request, tmp_path, bundle):
    ds = request.getfixturevalue(bundle).data
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
    back = load_dataset(str(path))
    _assert_same_bits(back, ds)
    assert back.grid == ds.grid and back.tolerances == ds.tolerances
    save_dataset(back, str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_dataset_fields_on_two_grids_are_rejected():
    """A dataset's grid is its fields' grid: no other grid can be saved with them."""
    geom = random_geometry(5, (6, 5), p=2)
    coarse = ChartGrid(dims=(6, 5), spacing=(0.5, 0.5), origin=(0.0, 0.0))
    with pytest.raises(GridMismatchError):
        Dataset(metric=MetricField(coarse, geom.metric.values), bundle=geom.bundle,
                sigma=geom.sigma, psi=geom.psi, tolerances=ToleranceModel(), meta={})


def test_tolerance_model_roundtrip():
    tol = ToleranceModel(factor=5.0, floor=1e-9, algebraic=None,
                         overrides={"gauss": 1e-3})
    back = tolerances_from_dict(tolerances_to_dict(tol))
    assert back == tol
    # a document without keys takes the dataclass defaults, but no algebraic means h^2
    assert tolerances_from_dict({}) == ToleranceModel(algebraic=None)
    for model in (ToleranceModel(), ToleranceModel(algebraic=None),
                  ToleranceModel(overrides={"ricci": 0.5, "gauss": float("inf")})):
        assert tolerances_from_dict(tolerances_to_dict(model)) == model


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


PSI_BASE = [1.0, 0.0, 0.5, 1, *np.eye(4).ravel().tolist()[4:]]
RECONSTRUCTION = {"k": 1, "ambient_dim": 4, "base_node": [3, 0], "psi_base": PSI_BASE}


def test_reconstruction_block_round_trips():
    doc = {"schema": "prodimm-report/1", "checks": [], "reconstruction": RECONSTRUCTION}
    block = report_from_dict(doc).reconstruction
    assert block["base_node"] == (3, 0) and block["k"] == 1
    assert np.array_equal(block["psi_base"][:1], [[1.0, 0.0, 0.5, 1.0]])
    assert block["psi_base"].shape == (4, 4)
    assert report_to_dict(Report(reconstruction=block))["reconstruction"] == RECONSTRUCTION
    # a report written before the on-product defect lived in its record alone still loads
    older = doc | {"reconstruction": RECONSTRUCTION | {"on_product_defect": 0.0}}
    assert report_from_dict(older).reconstruction["k"] == 1


def _psi_with(index: int, entry) -> list:
    return PSI_BASE[:index] + [entry] + PSI_BASE[index + 1:]


@pytest.mark.parametrize("key, value", [
    ("base_node", None), ("base_node", 3), ("base_node", [3.0, 0]), ("base_node", [True, 0]),
    ("ambient_dim", None), ("ambient_dim", "2"), ("ambient_dim", 2.0), ("ambient_dim", 0),
    ("psi_base", None), ("psi_base", "1 0 0 1"), ("psi_base", PSI_BASE[:-1]),
    ("psi_base", _psi_with(2, "0")), ("psi_base", _psi_with(0, float("nan"))),
    ("psi_base", _psi_with(1, float("inf"))),
    ("k", None), ("k", True), ("k", 1.0), ("k", 0), ("k", 2)],
    ids=["base_missing", "base_number", "base_float", "base_bool", "dim_missing", "dim_string",
         "dim_float", "dim_zero", "psi_missing", "psi_string", "psi_short", "psi_string_entry",
         "psi_nan", "psi_inf", "k_missing", "k_bool", "k_float", "k_zero", "k_above_n_minus_3"])
def test_malformed_reconstruction_block_is_a_schema_error(key, value):
    block = {k: v for k, v in RECONSTRUCTION.items() if k != key}
    if value is not None:
        block[key] = value
    with pytest.raises(SchemaError, match=rf"\b{key}\b"):
        report_from_dict({"schema": "prodimm-report/1", "checks": [], "reconstruction": block})


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
    pieces = _render_with_inline_arrays(doc)
    text = "".join(pieces)
    assert pieces[-1] == "\n" and text == io_oracles.render_with_inline_arrays(doc) + "\n"
    assert '"mixed": [1, 2.5, true, 0.1]' in text
    assert '"nested": [\n    [1, 2],\n    [3.0],\n    []\n  ]' in text
    assert '"strings": [\n    "a",\n    1\n  ]' in text


# Grids with non-zero origins and unequal dims and spacings, whose lines along the
# last axis straddle the writer's blocks of rows; "f3" is F3's rebuilt mesh.
MESH_GRIDS = {
    "1dim": ChartGrid(dims=(2500,), spacing=(0.0123,), origin=(-1.7,)),
    "2dim": ChartGrid(dims=(37, 41), spacing=(0.031, 0.0175), origin=(0.45, -2.1)),
    "3dim": ChartGrid(dims=(7, 13, 17), spacing=(0.3, 0.07, 0.011), origin=(1.1, -0.2, 3.3)),
}


def _product_points(grid: ChartGrid, k: int, m: int) -> np.ndarray:
    """Random points near S^k x H^m: a non-zero sphere block and a timelike hyperbolic one."""
    rng = np.random.default_rng(grid.n_nodes)
    x = rng.normal(size=grid.dims + (k + 1,))
    y = rng.normal(size=grid.dims + (m + 1,))
    y[..., -1] = 1.0 + np.sqrt(np.einsum("...i,...i->...", y[..., :-1], y[..., :-1]))
    return np.concatenate([x, y], axis=-1)


def _repeating_points(grid: ChartGrid) -> np.ndarray:
    """``_product_points`` with k = 2 and one kind of repeat per column, each a column the
    writer formats from its distinct values:

    x1  0.0 and -0.0, a run of -0.0 across each block edge after a run of 0.0;
    x2  subnormals and +-1e300, a run of 1e300 across each block edge;
    x3  constant along grid axis 0 (a constant column on a 1-dim grid);
    y1  exactly one repeat, the first node's value at the last node;
    y2  a constant.

    The last hyperbolic column is set again so that each point stays timelike.
    """
    pts = _product_points(grid, 2, 5 - grid.ndim)
    flat = pts.reshape(-1, pts.shape[-1])   # a view of pts
    rng = np.random.default_rng(len(flat) + 1)
    pick = rng.integers(0, 4, size=len(flat))
    flat[:, 0] = np.choose(pick, [0.0, -0.0, flat[:, 0], flat[:, 0]])
    flat[:, 1] = np.where(pick == 3, rng.choice([5e-324, -5e-324, 1e-310, -2.5e-320,
                                                  1e300, -1e300], size=len(flat)), flat[:, 1])
    for edge in range(_CSV_BLOCK_ROWS, len(flat), _CSV_BLOCK_ROWS):
        flat[edge - 4:edge - 1, 0] = 0.0
        flat[edge - 1:edge + 3, 0] = -0.0
        flat[edge - 2:edge + 2, 1] = 1e300
    pts[..., 2] = pts[:1, ..., 2]
    flat[-1, 3] = flat[0, 3]
    flat[:, 4] = 0.75
    flat[:, -1] = 1.0 + np.sqrt(np.einsum("ri,ri->r", flat[:, 3:-1], flat[:, 3:-1]))
    return pts


@pytest.mark.parametrize("repair", [False, True])
@pytest.mark.parametrize("case", ["f3", *MESH_GRIDS, *(f"{name}-repeats" for name in MESH_GRIDS)])
def test_mesh_bytes_match_oracle(f3, tmp_path, case, repair):
    """One ``%`` format per block of rows, each distinct value of a column formatted once,
    gives the oracle's C-order rows, one ``repr`` per cell, byte for byte; so does the
    export repair, ``onto_product``, before the write."""
    if case == "f3":
        grid, k, values = f3.grid, f3.recon.k, f3.recon.points
    elif case.endswith("-repeats"):
        grid, k = MESH_GRIDS[case.removesuffix("-repeats")], 2
        values = _repeating_points(grid)
        bits = values.reshape(-1, values.shape[-1]).view(np.int64)
        distinct = [len(np.unique(column)) for column in bits.T]
        assert distinct[3] == grid.n_nodes - 1 and distinct[4] == 1, distinct
        assert {0, np.float64(-0.0).view(np.int64)} <= set(bits[:, 0].tolist())
    else:
        grid, k = MESH_GRIDS[case], 2
        values = _product_points(grid, k, 5 - grid.ndim)
    path = tmp_path / "mesh.csv"
    save_immersion_csv(str(path), grid, k, onto_product(values, k) if repair else values)
    expected = io_oracles.immersion_csv_text(k, values, repair=repair)
    assert path.read_bytes() == expected.encode()


# Most cells of a drawn mesh table come from this pool, so its columns repeat: both
# zeros, subnormals, values near overflow and a few ordinary ones.
CELL_POOL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1e300, -1e300,
             1.0, -1.0, 0.1, 1 / 3, -2.5e-8, 123456.789)
# Node counts per axis, by chart dimension, that keep a drawn table small.
DRAWN_AXIS_NODES = {1: 40, 2: 8, 3: 5}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mesh_bytes_match_oracle_on_drawn_tables(tmp_path_factory, data):
    """Any table, in blocks of a few rows, gives the oracle's bytes: each cell is the
    ``repr`` of its own bit pattern, whichever columns repeat."""
    ndim = data.draw(st.integers(1, 3), label="ndim")
    dims = tuple(data.draw(st.lists(st.integers(5, DRAWN_AXIS_NODES[ndim]),
                                    min_size=ndim, max_size=ndim), label="dims"))
    size = data.draw(st.integers(4, 7), label="N")
    k = data.draw(st.integers(1, size - 3), label="k")
    cells = st.one_of(st.sampled_from(CELL_POOL),
                      st.floats(allow_nan=False, allow_infinity=False))
    values = data.draw(hnp.arrays(np.float64, dims + (size,), elements=cells), label="values")
    grid = ChartGrid(dims=dims, spacing=(0.1,) * ndim, origin=(0.0,) * ndim)
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    with mock.patch.object(dataio, "_CSV_BLOCK_ROWS", data.draw(st.integers(1, 8),
                                                                label="block rows")):
        save_immersion_csv(str(path), grid, k, values)
    assert path.read_bytes() == io_oracles.immersion_csv_text(k, values).encode()


@pytest.mark.parametrize("block, planted", [
    ("sphere block is zero", {(20, 30): (slice(0, 3), 0.0), (40, 2): (slice(3, 6), 0.0)}),
    ("hyperbolic block is not timelike", {(20, 30): (slice(3, 6), (2.0, 0.0, 1.0)),
                                          (40, 2): (slice(0, 3), 0.0),
                                          (50, 7): (slice(3, 6), (1.0, 0.0, 1.0))})],
    ids=["sphere_zero", "hyperbolic_spacelike"])
def test_mesh_repair_names_the_first_unrepairable_node(f3, block, planted):
    """A point with no repair onto the product raises, naming the first such node in C order;
    no nan is returned."""
    values = f3.recon.points.copy()
    for node, (cols, entry) in planted.items():
        values[node + (cols,)] = entry
    with pytest.raises(ReconstructionError, match=rf"node \(20, 30\): its {block}") as err:
        onto_product(values, f3.recon.k)
    assert err.value.node == (20, 30)


def _save_rebuild(directory, grid: ChartGrid, k: int, values: np.ndarray) -> tuple:
    """Mesh and report paths of the rebuild ``values`` with ``k``, as ``reconstruct`` names them."""
    mesh, report = directory / "mesh.csv", directory / "mesh.csv.report.json"
    size = values.shape[-1]
    save_immersion_csv(str(mesh), grid, k, values)
    save_report(Report(grid=grid, reconstruction={
        "k": k, "ambient_dim": size, "base_node": tuple(d // 2 for d in grid.dims),
        "psi_base": np.eye(size)}), str(report))
    return mesh, report


def test_mesh_values_must_have_the_grid_shape(f3, tmp_path):
    """The grid fixes the row order, so points flattened off it are refused, no file written."""
    path, flat = tmp_path / "mesh.csv", f3.recon.points.reshape(-1, 6)
    dims = "x".join(map(str, f3.grid.dims))
    with pytest.raises(DimensionError, match=rf"shape \({len(flat)}, 6\) on a {dims} grid"):
        save_immersion_csv(str(path), f3.grid, f3.recon.k, flat)
    assert not path.exists()


def test_mesh_roundtrip_is_bitwise(f3, tmp_path):
    """Every grid's points come back bitwise, in their node shape, with the report they fit."""
    cases = {"f3": (f3.grid, f3.recon.k, f3.recon.points)}
    cases |= {name: (grid, 2, _product_points(grid, 2, 5 - grid.ndim))
              for name, grid in MESH_GRIDS.items()}
    for name, (grid, k, values) in cases.items():
        report, back = load_rebuild(*map(str, _save_rebuild(tmp_path, grid, k, values)))
        assert report.grid == grid and report.reconstruction["k"] == k, name
        assert back.shape == values.shape, name
        assert np.array_equal(back.view(np.int64), values.view(np.int64)), name


def _small_rebuild(directory) -> tuple:
    """Five points of S^1 x H^1 at the apex: k = 1, N = 4, header x1,x2,y3,y4."""
    return _save_rebuild(directory, ChartGrid(dims=(5,), spacing=(0.5,), origin=(0.0,)), 1,
                         np.array([[1.0, 0.0, 0.0, 1.0]] * 5))


@pytest.mark.parametrize("block", ["grid", "reconstruction"])
def test_rebuild_needs_grid_and_reconstruction_blocks(tmp_path, block):
    mesh, report = _small_rebuild(tmp_path)
    doc = json.loads(report.read_text())
    del doc[block]
    report.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="needs its grid and reconstruction blocks"):
        load_rebuild(str(mesh), str(report))


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_written_files_get_the_mode_open_gives(f1, tmp_path, umask):
    """A dataset, a mesh and its report are 0666 less the umask, as ``open`` would create
    them: the temp file each is written to is made by ``open``."""
    saved = os.umask(umask)
    try:
        save_dataset(f1.data, str(tmp_path / "ds.json"))
        written = [tmp_path / "ds.json", *_small_rebuild(tmp_path)]
    finally:
        os.umask(saved)
    assert {path.name: stat.S_IMODE(path.stat().st_mode) for path in written} == \
        {path.name: 0o666 & ~umask for path in written}


def test_a_failed_write_names_its_file_and_leaves_no_temp(f1, tmp_path):
    """The ``OSError`` names the file asked for, not the temp file next to it, which goes."""
    missing = tmp_path / "missing" / "ds.json"
    with pytest.raises(OSError, match=re.escape(f"cannot write {str(missing)!r}: No such file")):
        save_dataset(f1.data, str(missing))
    (tmp_path / "ds.json").mkdir()   # the rename onto a directory fails after the write
    with pytest.raises(OSError, match=re.escape(f"cannot write {str(tmp_path / 'ds.json')!r}")):
        save_dataset(f1.data, str(tmp_path / "ds.json"))
    assert [path.name for path in tmp_path.iterdir()] == ["ds.json"]


def test_writer_signatures_unchanged():
    """The benchmark wraps these writers by name and calls them as the CLI does."""
    def params(fn):
        return [(p.name, p.kind, p.default) for p in inspect.signature(fn).parameters.values()]

    positional, empty = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
    assert params(save_dataset) == [("ds", positional, empty), ("path", positional, empty)]
    assert params(save_report) == [("report", positional, empty), ("path", positional, empty)]
    assert params(save_immersion_csv) == [
        ("path", positional, empty), ("grid", positional, empty), ("k", positional, empty),
        ("values", positional, empty)]
