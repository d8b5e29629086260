import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from prodimm import cli, fields, flatbundle, reconstruct
from prodimm.cli import check_dataset, main
from prodimm.dataio import (load_dataset, load_rebuild, load_report, save_dataset,
                            save_immersion_csv)
from prodimm.structure import RECORD_NAMES

from conftest import geometry_of, twisted_f3
from io_oracles import edit_field, field_values


@pytest.fixture(scope="module")
def f1_dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "f1.json"
    assert main(["extract", "--fixture", "F1", "-o", str(path)]) == 0
    return path


def test_extract_reports_sigma_magnitude(tmp_path, capsys):
    out = tmp_path / "f2.json"
    assert main(["extract", "--fixture", "F2", "-o", str(out)]) == 0
    text = capsys.readouterr().out
    assert f"{1.0 / np.tan(np.pi / 3):.6f}"[:6] in text  # cot(pi/3) ~ 0.577350
    ds = load_dataset(str(out))
    assert np.abs(ds.sigma.values).max() == pytest.approx(1.0 / np.tan(np.pi / 3),
                                                          abs=1e-10)


def test_check_passes_on_fixture(f1_dataset_path, tmp_path):
    report_path = tmp_path / "report.json"
    assert main(["check", str(f1_dataset_path), "--report", str(report_path)]) == 0
    report = load_report(str(report_path))
    assert report.passed
    assert [r.name for r in report.records] == list(RECORD_NAMES[:15])
    assert set(report.timings) == {"structure", "connection", "flat_bundle"}
    assert all(seconds >= 0.0 for seconds in report.timings.values())


def test_check_table_follows_redirected_stdout(f1_dataset_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["check", str(f1_dataset_path)]) == 0
    lines = out.getvalue().splitlines()
    assert any(line.startswith("PASS gauss ") for line in lines)
    assert all(line.split()[0] == "PASS" for line in lines if " thr=" in line)


def test_check_caches_neither_curvature_nor_structure_derivative(f3):
    # F and D psi~ are transient: the rebuild keeps the geometry alive
    geom = geometry_of(f3.data)
    check_dataset(geom, f3.tolerances)
    cached = set(vars(geom)) - {f.name for f in dataclasses.fields(geom)}
    assert cached == {"f_lowered", "gram", "connection"}


def test_reconstruct_writes_mesh_and_report(f1_dataset_path, tmp_path):
    mesh = tmp_path / "f1.csv"
    assert main(["reconstruct", str(f1_dataset_path), "-o", str(mesh)]) == 0
    report, values = load_rebuild(str(mesh), str(mesh) + ".report.json")
    assert mesh.read_text().startswith("x1,x2,y3,y4\n")
    assert values.shape == (200, 4)
    assert report.reconstruction["k"] == 1
    assert set(report.reconstruction) == {"k", "ambient_dim", "base_node", "psi_base"}
    assert set(report.timings) == {"structure", "connection", "flat_bundle",
                                   "setup", "transport", "assemble", "verify"}
    assert report["reconstruction_on_product"].max_abs < 1e-6
    x = values[:, :2]
    assert np.abs((x**2).sum(axis=1) - 1.0).max() < 1e-6


def test_reconstruct_refuses_then_forces(f1_dataset_path, tmp_path):
    doc = json.loads(f1_dataset_path.read_text())
    t = np.arange(200) * 5e-3

    def bump(values):
        sg = values.reshape(200, 1, 1, 1)
        sg[..., 0, 0, 0] += 5e-2 * np.sin(3 * t)
        return sg.ravel()
    edit_field(doc, "sigma", bump)
    bad = tmp_path / "bad_sigma.json"
    bad.write_text(json.dumps(doc))
    mesh = tmp_path / "forced.csv"
    assert main(["reconstruct", str(bad), "-o", str(mesh)]) == 1
    assert not mesh.exists()
    assert main(["reconstruct", str(bad), "-o", str(mesh), "--force"]) == 1
    assert mesh.exists()   # rebuild proceeded, report carries the failures
    report = load_report(str(mesh) + ".report.json")
    assert not report.passed


def _count_calls(monkeypatch, module, name) -> list:
    """Record each call of ``module.name`` made through any prodimm module that holds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("prodimm"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_each_command_derives_the_geometry_once(f1_dataset_path, tmp_path, monkeypatch):
    chris = _count_calls(monkeypatch, fields, "christoffel")
    conn = _count_calls(monkeypatch, flatbundle, "build_connection")
    assert main(["reconstruct", str(f1_dataset_path), "-o", str(tmp_path / "f1.csv")]) == 0
    assert (len(chris), len(conn)) == (1, 1)
    chris.clear()
    conn.clear()
    assert main(["roundtrip", "--fixture", "F3", "--grid", "17x17"]) == 0
    assert (len(chris), len(conn)) == (1, 1)


def test_roundtrip_f1_and_f2(tmp_path):
    assert main(["roundtrip", "--fixture", "F1", "--distance-tol", "1e-4",
                 "--report", str(tmp_path / "rt1.json")]) == 0
    report = load_report(str(tmp_path / "rt1.json"))
    assert report.alignment["max_distance"] <= 1e-4
    assert main(["roundtrip", "--fixture", "F2", "--distance-tol", "1e-3"]) == 0


def test_roundtrip_rejects_a_recovered_split_that_differs(monkeypatch, capsys):
    rebuild = cli.reconstruct_immersion

    def wrong_split(*args, **kwargs):
        result = rebuild(*args, **kwargs)
        block = result.report.reconstruction | {"k": result.k - 1}
        return dataclasses.replace(result, report=dataclasses.replace(result.report,
                                                                      reconstruction=block))

    monkeypatch.setattr(cli, "reconstruct_immersion", wrong_split)
    assert main(["roundtrip", "--fixture", "F2"]) == 1
    assert "recovered factor splits differ: 1 vs 2" in capsys.readouterr().err


def test_align_same_and_rotated(f1_dataset_path, tmp_path):
    mesh_a = tmp_path / "a.csv"
    mesh_b = tmp_path / "b.csv"
    assert main(["reconstruct", str(f1_dataset_path), "-o", str(mesh_a)]) == 0
    assert main(["reconstruct", str(f1_dataset_path), "-o", str(mesh_b),
                 "--seed-frame", "3"]) == 0
    out = tmp_path / "align.json"
    assert main(["align", str(mesh_a), str(mesh_a), "-o", str(out),
                 "--distance-tol", "1e-10"]) == 0
    report = load_report(str(out))
    t = np.asarray(report.alignment["isometry"]).reshape(4, 4)
    assert np.abs(t - np.eye(4)).max() <= 1e-12
    assert main(["align", str(mesh_b), str(mesh_a), "-o", str(out),
                 "--distance-tol", "1e-8"]) == 0
    report = load_report(str(out))
    t = np.asarray(report.alignment["isometry"]).reshape(4, 4)
    assert np.abs(t[2:, :2]).max() <= 1e-12   # block diagonal w.r.t. the split
    assert np.abs(t[:2, 2:]).max() <= 1e-12
    assert report.alignment["commutation_defect"] <= 1e-8


def test_report_determinism(f1_dataset_path, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["check", str(f1_dataset_path), "--report", str(r1)]) == 0
    assert main(["check", str(f1_dataset_path), "--report", str(r2)]) == 0
    # everything but the wall-clock timings is reproduced exactly
    docs = [json.loads(path.read_text()) for path in (r1, r2)]
    timings = [doc.pop("timings") for doc in docs]
    assert timings[0].keys() == timings[1].keys()
    assert docs[0] == docs[1]


@pytest.fixture(scope="module")
def f3_rebuilt_meshes(tmp_path_factory):
    """Two F3 17x17 rebuilds, the second from a rotated initial frame."""
    directory = tmp_path_factory.mktemp("f3")
    ds = directory / "f3.json"
    assert main(["extract", "--fixture", "F3", "--grid", "17x17", "-o", str(ds)]) == 0
    meshes = [str(directory / "a.csv"), str(directory / "b.csv")]
    assert main(["reconstruct", str(ds), "-o", meshes[0]]) == 0
    assert main(["reconstruct", str(ds), "-o", meshes[1], "--seed-frame", "3"]) == 0
    return meshes


# case: (arguments before the report flag, the report flag, exit code); {ds} is the F1
# dataset, {a} and {b} the F3 meshes, {out} a mesh path
VERDICT_CASES = {
    "check_passes": (["check", "{ds}"], "--report", 0),
    "check_fails": (["check", "{ds}", "--tol", "psi_tilde_parallel=1e-30"], "--report", 1),
    "reconstruct_passes": (["reconstruct", "{ds}", "-o", "{out}"], "--report", 0),
    "roundtrip_passes": (["roundtrip", "--fixture", "F1"], "--report", 0),
    # the ambient coordinates grow like cosh(bt), but the distance in the product's
    # metric stays within the h^2 budget
    "roundtrip_far_from_the_apex_passes": (["roundtrip", "--fixture", "F1", "--helix-a", "0.6",
                                            "--fd", "--grid", "1400", "--spacing", "5e-3"],
                                           "--report", 0),
    "roundtrip_alignment_fails": (["roundtrip", "--fixture", "F1", "--distance-tol", "1e-20"],
                                  "--report", 1),
    "align_fails": (["align", "{a}", "{b}", "--distance-tol", "1e-20"], "-o", 1),
    "align_without_tolerance": (["align", "{a}", "{b}"], "-o", 0),
    # a negative number is the value of the flag before it, not a flag
    "roundtrip_negative_origin_passes": (["roundtrip", "--fixture", "F3", "--origin", "-1,-2"],
                                         "--report", 0),
    "roundtrip_negative_exponent_origin_passes": (["roundtrip", "--fixture", "F1", "--origin",
                                                   "-1e-3"], "--report", 0),
}


@pytest.mark.parametrize("case", VERDICT_CASES)
def test_exit_code_is_the_saved_pass(f1_dataset_path, f3_rebuilt_meshes, tmp_path, capsys, case):
    """Every command exits on the ``pass`` of the report it writes, the alignment's included."""
    template, flag, code = VERDICT_CASES[case]
    path = tmp_path / "report.json"
    paths = {"ds": f1_dataset_path, "a": f3_rebuilt_meshes[0], "b": f3_rebuilt_meshes[1],
             "out": tmp_path / "mesh.csv"}
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in template] + [flag, str(path)]) == code
    doc = json.loads(path.read_text())
    assert doc["pass"] == (code == 0) == load_report(str(path)).passed
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith(("PASS ", "FAIL "))]
    alignment = [line for line in lines if line.split()[1] == "alignment"]
    if case in ("roundtrip_alignment_fails", "align_fails"):
        assert all(check["pass"] for check in doc["checks"])
        assert doc["alignment"]["distance_tol"] == 1e-20
        assert alignment == [f"FAIL {'alignment':35s} max={doc['alignment']['max_distance']:.6e} "
                             f"thr={doc['alignment']['distance_tol']:.1e}"]
    if case == "align_without_tolerance":
        assert "distance_tol" not in doc["alignment"] and lines == []
    if "--origin" in template:
        origin = template[template.index("--origin") + 1]
        assert doc["grid"]["origin"] == [float(v) for v in origin.split(",")]
    assert len(lines) == len(doc["checks"]) + len(alignment)


# offsets of 1e-3 in the F3 mesh's coordinates (x1, x2, x3, y4, y5, y6)
SHIFTS = {"sphere": (1e-3, 0, 0, 0, 0, 0), "spacelike": (0, 0, 0, 1e-3, 0, 0),
          "timelike": (0, 0, 0, 0, 0, 1e-3), "null": (0, 0, 0, 1e-3, 0, 1e-3)}


@pytest.mark.parametrize("shift", SHIFTS)
def test_align_sees_every_shift(f3_rebuilt_meshes, tmp_path, shift):
    """A rebuild against a copy of itself shifted off the product fails a tight alignment,
    whatever the kind of the offset: the product distance is zero only for a zero offset
    (the chord of the hyperbolic block would read the null offset as zero)."""
    mesh = f3_rebuilt_meshes[0]
    report, points = load_rebuild(mesh, mesh + ".report.json")
    shifted = str(tmp_path / "shifted.csv")
    save_immersion_csv(shifted, report.grid, report.reconstruction["k"],
                       points + np.array(SHIFTS[shift]))
    Path(shifted + ".report.json").write_text(Path(mesh + ".report.json").read_text())
    out = tmp_path / "align.json"
    assert main(["align", mesh, shifted, "--distance-tol", "1e-8", "-o", str(out)]) == 1
    assert load_report(str(out)).alignment["max_distance"] > 0.9e-3


def test_record_names_are_the_records_of_a_2d_roundtrip(tmp_path):
    path = tmp_path / "rt.json"
    assert main(["roundtrip", "--fixture", "F3", "--grid", "17x17", "--report", str(path)]) == 0
    assert tuple(load_report(str(path)).names()) == RECORD_NAMES


def test_normal_connection_override_fails_a_twisted_rebuild(tmp_path, capsys):
    """``reconstruction_normal_connection`` is a record the tolerances can name.  On F3 the
    rebuilt normals lie in the two factors, so the record reads exactly 0 and a zero
    threshold passes; on F3 with its normals turned it reads about 2e-3 and fails."""
    flag = ["--tol", "reconstruction_normal_connection=0"]
    capsys.readouterr()
    assert main(["roundtrip", "--fixture", "F3", "--grid", "17x17", *flag]) == 0
    assert "PASS reconstruction_normal_connection    max=0.000000e+00 " in capsys.readouterr().out
    path = tmp_path / "twisted.json"
    save_dataset(twisted_f3(64), str(path))
    assert main(["reconstruct", str(path), "-o", str(tmp_path / "mesh.csv")]) == 0
    capsys.readouterr()
    assert main(["reconstruct", str(path), "-o", str(tmp_path / "mesh.csv"), *flag]) == 1
    fails = [line.split()[1] for line in capsys.readouterr().out.splitlines()
             if line.startswith("FAIL ")]
    assert fails == ["reconstruction_normal_connection"]


def test_repair_export_renormalizes(f1_dataset_path, tmp_path):
    mesh = tmp_path / "repaired.csv"
    assert main(["reconstruct", str(f1_dataset_path), "-o", str(mesh),
                 "--repair-export"]) == 0
    report, values = load_rebuild(str(mesh), str(mesh) + ".report.json")
    x = values[:, : report.reconstruction["k"] + 1]
    assert np.abs((x**2).sum(axis=1) - 1.0).max() <= 1e-14


def test_repair_export_of_an_unrepairable_point_exits_1(f1_dataset_path, tmp_path,
                                                        monkeypatch, capsys):
    rebuild = cli.reconstruct_immersion

    def rebuild_with_a_spacelike_point(*args, **kwargs):
        result = rebuild(*args, **kwargs)
        points = result.points.copy()
        points[57, 2:] = (2.0, 1.0)
        return dataclasses.replace(result, points=points)

    monkeypatch.setattr(cli, "reconstruct_immersion", rebuild_with_a_spacelike_point)
    mesh = tmp_path / "repaired.csv"
    assert main(["reconstruct", str(f1_dataset_path), "--force", "-o", str(mesh),
                 "--repair-export"]) == 1
    assert "node (57,): its hyperbolic block is not timelike" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []   # neither the mesh nor the report


@pytest.fixture(scope="module")
def f1_fd_dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "f1_fd.json"
    assert main(["extract", "--fixture", "F1", "--fd", "-o", str(path)]) == 0
    return path


@pytest.mark.parametrize("psi", [np.eye(2), np.diag([1.0 + 1e-6, 1.0 - 1e-6])],
                         ids=["identity", "near_identity"])
@pytest.mark.parametrize("command", ["check", "reconstruct"])
def test_excluded_structure_exits_1_naming_its_first_node(f1_fd_dataset_path, tmp_path, capsys,
                                                          command, psi):
    """psi = I passes the algebra records on the h^2 budget of ``--fd`` data, but has no
    -1 eigenspace: the check rejects it at node (0,), before any rebuild, ``--force`` or not."""
    ds = load_dataset(str(f1_fd_dataset_path))
    excluded = tmp_path / "identity.json"
    save_dataset(dataclasses.replace(ds, psi=np.broadcast_to(psi, ds.psi.shape)), str(excluded))
    mesh, report = tmp_path / "m.csv", tmp_path / "r.json"
    rebuild = ["--force", "-o", str(mesh)] if command == "reconstruct" else []
    capsys.readouterr()
    assert main([command, str(excluded), *rebuild, "--report", str(report)]) == 1
    assert "plus/minus the identity at node (0,)" in capsys.readouterr().err
    assert not mesh.exists() and not report.exists()


def test_off_product_rebuild_exits_1_with_its_report_and_mesh(f1_dataset_path, tmp_path,
                                                              monkeypatch):
    """A rebuilt point off the product fails its record; the rebuild still writes both files."""
    sweep = reconstruct.sweep_parallel_frame
    monkeypatch.setattr(reconstruct, "sweep_parallel_frame",
                        lambda *args, **kwargs: 1.01 * sweep(*args, **kwargs))
    mesh = tmp_path / "off.csv"
    assert main(["reconstruct", str(f1_dataset_path), "-o", str(mesh)]) == 1
    report = load_report(str(mesh) + ".report.json")
    assert not report["reconstruction_on_product"].passed and not report.passed
    assert load_rebuild(str(mesh), str(mesh) + ".report.json")[1].shape == (200, 4)


@pytest.mark.parametrize("command, nodes, fd", [
    ("check", 1000, False), ("roundtrip", 1400, False), ("check", 1800, True),
    ("extract", 3199, False)])
def test_f1_chart_length_ladder(tmp_path, capsys, command, nodes, fd):
    """The reach of each route on long hyperbolic charts, F1 with b = 0.8.

    The timelike coordinate cosh(bt) of the points reaches 135 at 1400 nodes
    and 2e5 at 3199 nodes; the ``extract`` docstring lists the measured floors.
    """
    fx = ["--fixture", "F1", "--helix-a", "0.6", "--grid", str(nodes), "--spacing", "5e-3"]
    fx += ["--fd"] if fd else []
    dataset, report = tmp_path / "ds.json", tmp_path / "report.json"
    if command == "roundtrip":
        assert main(["roundtrip", *fx, "--report", str(report)]) == 0
    else:
        assert main(["extract", *fx, "-o", str(dataset)]) == 0
        if command == "extract":
            return
        assert main(["check", str(dataset), "--report", str(report)]) == 0
    capsys.readouterr()
    worst = max(rec.max_abs / rec.threshold for rec in load_report(str(report)).records)
    assert worst < 0.3


def test_an_infinite_dataset_tolerance_factor_switches_checks_off(f1_dataset_path, tmp_path,
                                                                  capsys):
    doc = json.loads(f1_dataset_path.read_text())
    doc["tolerances"]["factor"] = float("inf")
    path = tmp_path / "factor.json"
    path.write_text(json.dumps(doc))   # written as Infinity, which json.load reads back
    capsys.readouterr()
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]], ids=["prodimm", "check"])
def test_help_exits_0(capsys, argv):
    """A parser that raises its rejections still prints its help and exits 0."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(["usage: prodimm", *argv[:-1]]))


# ---------------------------------------------------------------------------
# unloadable input: one table of commands that exit 2


@pytest.fixture(scope="module")
def unloadable_sources(f1_dataset_path, tmp_path_factory):
    """The inputs the rows copy: ``ds`` the F1 dataset, ``f3`` a 9x9 F3 dataset, ``mesh`` an F1
    rebuild and ``f2`` an F2 rebuild (k 2, N 5) on the F1 grid, each with ``<mesh>.report.json``."""
    directory = tmp_path_factory.mktemp("unloadable")
    paths = {"ds": str(f1_dataset_path), "dir": str(directory), **{
        key: str(directory / name) for key, name in (("f3", "f3.json"), ("mesh", "f1.csv"),
                                                     ("f2", "f2.csv"))}}
    for argv in ("extract --fixture F3 --grid 9x9 --spacing 0.1875,0.1875 -o {f3}",
                 "extract --fixture F2 --grid 200 --spacing 5e-3 -o {dir}/f2.json",
                 "reconstruct {ds} -o {mesh}", "reconstruct {dir}/f2.json -o {f2}"):
        assert main(argv.format_map(paths).split()) == 0
    return paths


class Unloadable(NamedTuple):
    """A command that rejects its input.  The fields are formatted with ``{tmp}``, the test's
    directory, and the paths of ``unloadable_sources``; ``argv`` is split at spaces first."""
    argv: str
    names: str      # the rejected files or flag values the error line names, split at spaces
    message: str    # a fragment of the error line, or all of it if it starts with "error: "
    # file in {tmp} -> (source file, edit): a copy of the source written before the run, a
    # ".json" one after edit(doc) in place, any other one as edit(its lines); edit None copies
    files: dict = {}


def _check(edit, message, source="{ds}"):
    """``check`` of the dataset ``source`` after ``edit(doc)``, rejected naming its file."""
    return Unloadable("check {tmp}/bad.json --report {tmp}/out.json", "{tmp}/bad.json", message,
                      {"bad.json": (source, edit)})


def _align(edit, message, flags="--report-a {tmp}/bad.json", names="{tmp}/bad.json"):
    """``align`` of the F1 rebuild with itself, ``flags`` naming its report after ``edit(doc)``."""
    return Unloadable(f"align {{mesh}} {{mesh}} {flags} -o {{tmp}}/out.json", names, message,
                      {"bad.json": ("{mesh}.report.json", edit)})


def _mesh(message, lines=None, doc=None, source="{mesh}"):
    """``align`` of the F1 rebuild with a copy of mesh ``source`` and its report, edited by
    ``lines`` and ``doc``, each run with and without a distance tolerance."""
    report = (source + ".report.json", doc)
    row = Unloadable("align {mesh} {tmp}/bad.csv -o {tmp}/out.json", "{tmp}/bad.csv", message,
                     {"bad.csv": (source, lines), "bad.csv.report.json": report})
    return [row, row._replace(argv=row.argv + " --distance-tol 1e-9")]


def _nan_at_node_57(values):
    assert values.shape == (200,)   # one entry per node on F1 (n = p = 1)
    values[57] = float("nan")
    return values


def _last_value(lines, row, value=()):
    """Mesh ``lines`` with the last value of line ``row`` dropped, or replaced by ``value``."""
    cells = lines[row].rstrip("\r\n").split(",")[:-1] + list(value)
    return lines[:row] + [",".join(cells) + "\r\n"] + lines[row + 1:]


def _as_v1(doc):
    for name in doc["fields"]:
        doc["fields"][name] = field_values(doc, name).tolist()   # the /1 list layout
    doc["schema"] = "prodimm-dataset/1"


def _repeat_a_row(doc):
    psi = doc["reconstruction"]["psi_base"]
    psi[4:8] = psi[0:4]   # rank 3 of 4


NAN, INF = float("nan"), float("inf")
MISFIT = "error: mesh '{tmp}/bad.csv' has "

# test -> {case id: a row, or rows run in turn}; a test whose one id is "" has no parameter
UNLOADABLE = {
    "test_check_exit_codes_for_bad_files": {"": [
        Unloadable("check {tmp}/empty --report {tmp}/out.json", "{tmp}/empty",
                   "cannot parse dataset", {"empty": ("{ds}", lambda lines: [])}),
        Unloadable("check {tmp}/no.json --report {tmp}/out.json", "{tmp}/no.json", "No such file"),
        Unloadable("extract --fixture NOPE -o {tmp}/out.json", "--fixture 'NOPE'",
                   "argument --fixture: invalid choice: 'NOPE'")]},
    "test_grid_rejects_non_finite_spacing_and_non_integer_dims": {
        "flag-nan": Unloadable("extract --fixture F1 --spacing nan -o {tmp}/out.json",
                               "--spacing nan", "error: --spacing nan: grid spacing (nan,) and "
                               "origin (0.0,) must be finite"),
        **{f"{key}-{value}": _check(lambda doc, kv={key: [value]}: doc["grid"].update(kv), "grid")
           for key, value in (("spacing", NAN), ("origin", INF), ("dims", 200.7))}},
    "test_dataset_tolerance_factor": {"nan_exits_2": _check(
        lambda doc: doc["tolerances"].update(factor=NAN), "error: dataset '{tmp}/bad.json': "
        "tolerance factor must be a non-negative number or inf, got nan")},
    "test_misspelt_tolerance_override_exits_2": {
        "flag": Unloadable("check {ds} --tol psi_tilde_paralel=1e-30 --report {tmp}/out.json",
                           "--tol psi_tilde_paralel=1e-30", "error: --tol psi_tilde_paralel=1e-30: "
                           "tolerance override 'psi_tilde_paralel' names no check record"),
        "empty_name": Unloadable("check {ds} --tol =1 --report {tmp}/out.json", "--tol =1",
                                 "error: --tol =1: tolerance override '' names no check record"),
        "dataset": _check(lambda doc: doc["tolerances"].update(overrides={"psi_tilde_paralel": 1}),
                          "error: dataset '{tmp}/bad.json': tolerance override "
                          "'psi_tilde_paralel' names no check record")},
    "test_align_malformed_report_exits_2": {
        "check_max": _align(lambda doc: doc["checks"][0].pop("max"), "missing key 'max'"),
        "base_node": _align(lambda doc: doc["reconstruction"].pop("base_node"),
                            "missing key 'base_node'"),
        "grid_spacing": _align(lambda doc: doc["grid"].pop("spacing"), "missing key 'spacing'"),
        "grid_dims": _align(lambda doc: doc["grid"].update(dims=[2]), "at least 5 nodes"),
        "reconstruction_number": _align(lambda doc: doc.update(reconstruction=5),
                                        "report block 'reconstruction' must be an object")},
    "test_align_rejects_a_base_node_off_the_report_grid": {
        case: _align(lambda doc, node=node: doc["reconstruction"].update(base_node=node),
                     f"reconstruction base_node {node} is not a node of the 200 grid",
                     "--report-a {tmp}/bad.json --report-b {tmp}/bad.json --distance-tol 1e-9")
        for case, node in (("wrong_length", [5000, 3]), ("negative", [-1]),
                           ("out_of_range", [200]))},
    "test_align_refuses_reports_on_different_grids": {"": _align(
        lambda doc: doc["grid"].update(spacing=[4e-3]), "the grid: ChartGrid(dims=(200,), spacing="
        "(0.005,), origin=(0.0,)) vs ChartGrid(dims=(200,), spacing=(0.004,), origin=(0.0,))",
        "--report-b {tmp}/bad.json", "{mesh}.report.json {tmp}/bad.json")},
    "test_align_names_a_report_that_does_not_fit_its_mesh": {
        "other_report-align inputs must share reconstruction.ambient_dim: 4 vs 5": Unloadable(
            "align {mesh} {f2} -o {tmp}/out.json", "{mesh}.report.json {f2}.report.json",
            "align inputs must share reconstruction.ambient_dim: 4 vs 5"),
        "own_mesh_k": _mesh(MISFIT + "the header 'x1,x2,x3,y4,y5'; its report (k 1, ambient_dim "
                            "5) expects 'x1,x2,y3,y4,y5'", source="{f2}",
                            doc=lambda doc: doc["reconstruction"].update(k=1)),
        "own_mesh_ambient_dim": _mesh(
            MISFIT + "the header 'x1,x2,y3,y4'; its report (k 1, ambient_dim 5) expects "
            "'x1,x2,y3,y4,y5'", doc=lambda doc: doc["reconstruction"].update(
                ambient_dim=5, psi_base=np.eye(5).ravel().tolist())),
        "rows_short": _mesh(MISFIT + "199 rows of 4 values, its report's grid 200 nodes of 4",
                            lambda lines: lines[:-1]),
        # chart columns (here shifted by 7.0 off the report's grid) in front of the points
        "chart_columns": _mesh(
            MISFIT + "the header 't1,x1,x2,y3,y4'; its report (k 1, ambient_dim 4) expects "
            "'x1,x2,y3,y4'", lambda lines: ["t1," + lines[0]] + [
                f"{7.0 + 5e-3 * i!r},{line}" for i, line in enumerate(lines[1:])])},
    "test_dataset_header_counts_are_integers_or_exit_2": {
        f"{key}-{value}": _check(lambda doc, kv={key: value}: doc.update(kv), f"header {key!r}",
                                 "{f3}")
        for key, value in (("p", 2.7), ("p", 2.0), ("p", -1), ("p", 0), ("p", True), ("p", "2"),
                           ("n", 2.9), ("n", "2"), ("n", True), ("n", 3))},
    "test_dataset_malformed_header_exits_2": {
        case: _check(lambda doc, kv=kv: doc.update(kv), "load-time invariant violated")
        for case, kv in (("tolerances_number", {"tolerances": 5}),
                         ("overrides_list", {"tolerances": {"overrides": [1, 2]}}),
                         ("meta_list", {"meta": [1, 2, 3]}), ("meta_number", {"meta": 7}))},
    # a ragged row, and a header with no row under it
    "test_align_ragged_mesh_exits_2": {"": _mesh("cannot parse mesh",
                                                 lambda lines: _last_value(lines, 3))
                                       + _mesh("error: cannot parse mesh '{tmp}/bad.csv': no rows",
                                               lambda lines: lines[:1])},
    # with or without a distance tolerance, no NaN distance reaches a verdict
    "test_align_rejects_a_non_finite_input": {
        "mesh": _mesh("non-finite value in row 1 (line 2)",
                      lambda lines: _last_value(lines, 1, ["nan"])),
        "psi_base": _mesh("psi_base", doc=lambda doc: doc["reconstruction"][
            "psi_base"].__setitem__(0, NAN))},
    "test_align_rejects_a_singular_frame_map_naming_its_report": {
        side: _align(_repeat_a_row, "error: report '{tmp}/bad.json': reconstruction psi_base is "
                     "singular: rank 3 of 4", f"--report-{side} {{tmp}}/bad.json")
        for side in "ab"},
    "test_check_names_the_node_of_a_nan": {
        name: _check(lambda doc, name=name: edit_field(doc, name, _nan_at_node_57), "(57,)")
        for name in ("metric", "bundle_connection", "sigma", "psi.f", "psi.u", "psi.U",
                     "psi.lambda")},
    "test_malformed_field_exits_2_naming_it": {
        "not_a_string": _check(lambda doc: doc["fields"].update(
            metric=field_values(doc, "metric").tolist()), "field 'metric'"),
        "not_base64": _check(lambda doc: doc["fields"].update(
            {"psi.U": "*" + doc["fields"]["psi.U"][1:]}), "field 'psi.U'"),
        "one_float_short": _check(lambda doc: edit_field(doc, "sigma", lambda v: v[:-1]),
                                  "field 'sigma'")},
    "test_check_rejects_a_v1_dataset": {"": _check(
        _as_v1, "expected schema 'prodimm-dataset/2', got prodimm-dataset/1")},
    "test_unparsable_flag_value_names_its_flag": {
        "tol": Unloadable("check {ds} --tol gauss=abc --report {tmp}/out.json", "--tol gauss=abc",
                          "error: --tol gauss=abc: could not convert string to float: 'abc'"),
        "grid": Unloadable("extract --fixture F3 --grid 64xab -o {tmp}/out.json", "--grid 64xab",
                           "invalid literal for int()"),
        "spacing": Unloadable("extract --fixture F3 --spacing x -o {tmp}/out.json", "--spacing",
                              "expects 2 comma-separated values"),
        # an empty part is rejected, not dropped
        **{case: Unloadable(f"extract --fixture {name} {flag} -o {{tmp}}/out.json", flag,
                            f"error: {flag}: expects {count} comma-separated values")
           for case, name, flag, count in (("grid_leading_empty", "F3", "--grid ,17", 2),
                                           ("grid_trailing_empty", "F1", "--grid 200,", 1),
                                           ("spacing_trailing_empty", "F1", "--spacing 1e-2,", 1))},
        "origin": Unloadable("extract --fixture F3 --origin 0,zero -o {tmp}/out.json",
                             "--origin 0,zero", "could not convert string to float"),
        "tol_factor": Unloadable("check {ds} --tol-factor abc --report {tmp}/out.json",
                                 "--tol-factor abc",
                                 "error: argument --tol-factor: invalid float value: 'abc'")},
    # a token that parses as a list of numbers is its flag's value, judged by the value's owner
    "test_negative_flag_value_is_judged_by_its_owner": {
        case: Unloadable(argv + " {tmp}/out.json", given, f"error: {given}: {message}")
        for case, argv, given, message in (
            ("tol_factor", "check {ds} --tol-factor -1e-3 --report", "--tol-factor -0.001",
             "tolerance factor must be a non-negative number or inf, got -0.001"),
            ("theta0", "extract --fixture F2 --theta0 -1e-1 -o", "--theta0 -0.1",
             "colatitude must sit strictly inside (0, pi)"),
            ("origin_count", "extract --fixture F1 --origin -1,-2 -o", "--origin -1,-2",
             "expects 1 comma-separated values"),
            ("origin_inf", "extract --fixture F1 --origin -inf -o", "--origin -inf",
             "grid spacing (0.005,) and origin (-inf,) must be finite"))},
    "test_fixture_arguments_that_cannot_be_built_exit_2": {
        "extract_grid_too_small": Unloadable(
            "extract --fixture F1 --grid 3 -o {tmp}/out.json", "--grid 3",
            "error: --grid 3: every grid axis needs at least 5 nodes for the stencils"),
        "roundtrip_slope_out_of_range": Unloadable(
            "roundtrip --fixture F1 --helix-a 1.5 --report {tmp}/out.json", "--helix-a 1.5",
            "error: --helix-a 1.5: slope parameter must sit strictly between 0 and 1")},
    "test_fixture_flag_the_fixture_does_not_take_exits_2": {
        f"{name}-{flag}": Unloadable(f"extract --fixture {name} {flag} 0.5 -o {{tmp}}/out.json",
                                     flag, f"fixture {name.upper()} takes no {flag}")
        # the fixture name is read in any case
        for name, flag in (("F2", "--helix-a"), ("F1", "--theta0"), ("f1", "--theta0"))},
    # theta0 is tested for finiteness before any sine is taken: no warning (pytest makes
    # every warning an error), no node
    "test_non_finite_colatitude_exits_2": {
        f"{command}-{name}-{value}": Unloadable(
            f"{command} --fixture {name} --theta0={value} {out} {{tmp}}/out.json",
            f"--theta0 {float(value)}",
            f"error: --theta0 {float(value)}: colatitude must be finite, got {float(value)}")
        for command, out in (("extract", "-o"), ("roundtrip", "--report"))
        for name in ("F2", "F3") for value in ("nan", "inf", "-inf")},
    "test_unusable_tolerance_flags_exit_2": {
        case: Unloadable(f"check {{ds}} {given}{flag} --report {{tmp}}/out.json", flag,
                         f"error: {flag}: tolerance {field} must be a non-negative number or "
                         f"inf, got {value}")
        for case, given, flag, field, value in (
            ("factor_nan", "", "--tol-factor nan", "factor", "nan"),
            ("override_nan", "", "--tol gauss=nan", "override gauss", "nan"),
            ("override_negative", "", "--tol gauss=-1", "override gauss", "-1.0"),
            # each --tol is judged in turn: the line names the one that is rejected
            ("second_override_negative", "--tol gauss=1 ", "--tol ricci=-2", "override ricci",
             "-2.0"))},
    # flags that only a late stage reads are rejected before any stage: {tmp} stays empty
    "test_negative_seed_frame_exits_2_before_any_stage": {
        command: Unloadable(f"{command} {source} --seed-frame -1 --report {{tmp}}/r.json",
                            "--seed-frame -1", "error: --seed-frame -1: expected non-negative "
                            "integer")
        for command, source in (("reconstruct", "{ds} -o {tmp}/m.csv"),
                                ("roundtrip", "--fixture F1"))},
    # a NaN or negative --distance-tol is bad input, not a failed alignment
    "test_bad_distance_tol_exits_2": {
        f"{command}-{value}": Unloadable(
            f"{argv} --distance-tol {value}", f"--distance-tol {float(value)}",
            f"error: --distance-tol {float(value)}: tolerance distance_tol must be a non-negative "
            f"number or inf, got {float(value)}")
        for command, argv in (("align", "align {mesh} {mesh} -o {tmp}/out.json"),
                              ("roundtrip", "roundtrip --fixture F1 --report {tmp}/out.json"))
        for value in ("nan", "-1")},
    "test_reconstruct_has_no_reorthonormalize_option": {"": Unloadable(
        "reconstruct {ds} -o {tmp}/out.json --reorthonormalize", "--reorthonormalize",
        "error: unrecognized arguments: --reorthonormalize")},
    "test_argparse_rejections_are_one_error_line": {
        "missing_out": Unloadable("extract --fixture F1", "-o/--out",
                                  "error: the following arguments are required: -o/--out"),
        "no_command": Unloadable("", "command",
                                 "error: the following arguments are required: command")},
    # an output whose directory is missing is named before any stage runs (no stdout), and
    # no earlier output is left: the mesh of the --report row is {tmp}/out.json
    "test_an_output_in_a_missing_directory_exits_2": {
        case: Unloadable(argv, f"{flag} {{tmp}}/missing/{name}",
                         f"error: {flag} '{{tmp}}/missing/{name}': no directory '{{tmp}}/missing'")
        for case, argv, flag, name in (
            ("reconstruct_report", "reconstruct {ds} -o {tmp}/out.json "
             "--report {tmp}/missing/r.json", "--report", "r.json"),
            # its default report, <out>.report.json, is in the same missing directory
            ("reconstruct_out", "reconstruct {ds} -o {tmp}/missing/m.csv", "-o/--out", "m.csv"),
            ("check_report", "check {ds} --report {tmp}/missing/r.json", "--report", "r.json"),
            ("extract_out", "extract --fixture F1 -o {tmp}/missing/ds.json", "-o/--out",
             "ds.json"),
            ("roundtrip_report", "roundtrip --fixture F1 --report {tmp}/missing/r.json",
             "--report", "r.json"),
            ("align_out", "align {mesh} {mesh} -o {tmp}/missing/a.json", "-o/--out", "a.json"))},
    # an output that is a directory is named before any stage runs too
    "test_an_output_that_is_a_directory_exits_2": {
        "reconstruct_report": Unloadable("reconstruct {ds} -o {tmp}/out.json --report {tmp}",
                                         "{tmp}", "error: --report '{tmp}' is a directory"),
        "extract_out": Unloadable("extract --fixture F1 -o {tmp}", "{tmp}",
                                  "error: -o/--out '{tmp}' is a directory")},
    # an output that is an input, given or default, or an earlier output is named before any
    # stage runs; the inputs are copies in {tmp}, left as they were
    "test_an_output_that_is_another_file_exits_2": {
        case: Unloadable(argv, f"{flag} {path} {other}",
                         f"error: {flag} '{path}' would overwrite {other}", files)
        for case, argv, flag, path, other, files in (
            ("reconstruct_report_is_out", "reconstruct {ds} -o {tmp}/same.out --report "
             "{tmp}/same.out", "--report", "{tmp}/same.out", "-o/--out '{tmp}/same.out'", {}),
            # the paths resolve to one file
            ("reconstruct_report_is_out_resolved", "reconstruct {ds} -o {tmp}/m.csv --report "
             "{tmp}/./m.csv", "--report", "{tmp}/./m.csv", "-o/--out '{tmp}/m.csv'", {}),
            ("check_report_is_dataset", "check {tmp}/ds.json --report {tmp}/ds.json", "--report",
             "{tmp}/ds.json", "dataset '{tmp}/ds.json'", {"ds.json": ("{ds}", None)}),
            ("reconstruct_out_is_dataset", "reconstruct {tmp}/ds.json -o {tmp}/ds.json",
             "-o/--out", "{tmp}/ds.json", "dataset '{tmp}/ds.json'", {"ds.json": ("{ds}", None)}),
            # reconstruct's default report, <out>.report.json, is an output
            ("reconstruct_default_report_is_dataset", "reconstruct {tmp}/m.csv.report.json -o "
             "{tmp}/m.csv", "--report", "{tmp}/m.csv.report.json",
             "dataset '{tmp}/m.csv.report.json'", {"m.csv.report.json": ("{ds}", None)}),
            # align's default report, <mesh>.report.json, is an input
            ("align_out_is_default_report", "align {tmp}/m.csv {tmp}/m.csv -o "
             "{tmp}/m.csv.report.json", "-o/--out", "{tmp}/m.csv.report.json",
             "--report-a '{tmp}/m.csv.report.json'",
             {"m.csv": ("{mesh}", None), "m.csv.report.json": ("{mesh}.report.json", None)}),
            ("align_out_is_mesh", "align {mesh} {tmp}/m.csv -o {tmp}/m.csv", "-o/--out",
             "{tmp}/m.csv", "mesh_b '{tmp}/m.csv'",
             {"m.csv": ("{mesh}", None), "m.csv.report.json": ("{mesh}.report.json", None)}))},
}


def _rejected(case, tmp_path, capsys, sources):
    """Run each row of ``case``: exit 2 with no stdout and one ``error: `` line that names the
    rejected input and holds the row's message, and no file written: ``{tmp}`` holds the
    rows' inputs alone, each as it was written."""
    paths, inputs = {"tmp": str(tmp_path), **sources}, {}
    for row in case if isinstance(case, list) else [case]:
        for name, (source, edit) in row.files.items():
            text = Path(source.format_map(paths)).read_text()
            if edit and name.endswith(".json"):
                doc = json.loads(text)
                edit(doc)
                text = json.dumps(doc)
            elif edit:
                text = "".join(edit(text.splitlines(keepends=True)))
            (tmp_path / name).write_text(text)
            inputs[name] = text
        capsys.readouterr()
        assert main([arg.format_map(paths) for arg in row.argv.split()]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.index("\n") == len(err) - 1, err
        message, line = row.message.format_map(paths), err.removesuffix("\n")
        assert [name for name in row.names.format_map(paths).split() if name not in line] == []
        assert line == message if message.startswith("error: ") else message in line, line
        assert {path.name: path.read_bytes().decode() for path in tmp_path.iterdir()} == inputs


def _table_test(cases: dict):
    """The test of ``cases``, one parameter per case id; a test whose one id is "" has none."""
    def test(case, tmp_path, capsys, unloadable_sources):
        _rejected(case, tmp_path, capsys, unloadable_sources)
    if list(cases) == [""]:
        return lambda tmp_path, capsys, unloadable_sources: test(cases[""], tmp_path, capsys,
                                                                 unloadable_sources)
    return pytest.mark.parametrize("case", list(cases.values()), ids=list(cases))(test)


# each test of the table is a module global of its name, so its cases keep their test ids
for _name, _cases in UNLOADABLE.items():
    globals()[_name] = _table_test(_cases)
