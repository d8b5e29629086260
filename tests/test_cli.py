import contextlib
import dataclasses
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from prodimm import cli, fields, flatbundle, reconstruct
from prodimm.cli import check_dataset, main
from prodimm.dataio import (Dataset, dataset_from_dict, dataset_to_dict, load_dataset,
                            load_rebuild, load_report, save_dataset, save_immersion_csv)
from prodimm.errors import SchemaError
from prodimm.structure import RECORD_NAMES

from conftest import geometry_of, twisted_f3
from io_oracles import edit_field, field_values


@pytest.fixture(scope="module")
def f1_dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "f1.json"
    assert main(["extract", "--fixture", "F1", "-o", str(path)]) == 0
    return path


def test_dataset_roundtrip_bit_identical(tmp_path, f2):
    ds = f2.dataset()
    path = tmp_path / "f2.json"
    save_dataset(ds, str(path))
    back = load_dataset(str(path))
    assert np.array_equal(back.metric.values, ds.metric.values)
    assert np.array_equal(back.sigma.values, ds.sigma.values)
    assert np.array_equal(back.psi, ds.psi)
    assert back.grid == ds.grid and back.tolerances == ds.tolerances
    path2 = tmp_path / "again.json"
    save_dataset(back, str(path2))
    assert path.read_text() == path2.read_text()


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
    assert [r.name for r in report.records] == [
        "psi_f_symmetric", "psi_lambda_symmetric", "psi_u_U_adjoint", "psi_involution_tangent",
        "psi_involution_bundle", "psi_parallel_f", "psi_parallel_u", "psi_parallel_U",
        "psi_parallel_lambda", "gauss", "codazzi", "ricci", "bundle_metric_compatibility",
        "bundle_flatness", "psi_tilde_parallel"]
    assert set(report.timings) == {"structure", "connection", "flat_bundle"}
    assert all(seconds >= 0.0 for seconds in report.timings.values())


def test_check_table_follows_redirected_stdout(f1_dataset_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["check", str(f1_dataset_path)]) == 0
    lines = out.getvalue().splitlines()
    assert any(line.startswith("PASS gauss ") for line in lines)
    assert all(line.split()[0] == "PASS" for line in lines if " thr=" in line)


def test_check_flags_negated_u(f1_dataset_path, tmp_path):
    doc = json.loads(f1_dataset_path.read_text())
    edit_field(doc, "psi.u", lambda u: -u)
    bad = tmp_path / "bad_u.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad), "--report", str(tmp_path / "r.json")]) == 1
    report = load_report(str(tmp_path / "r.json"))
    # on a 1-dim chart the antisymmetrized equations cannot see u; the sign
    # flip lands on the pointwise adjointness and involution identities
    assert not report["psi_u_U_adjoint"].passed
    assert not report["psi_involution_tangent"].passed
    assert report["codazzi"].passed


def test_check_exit_codes_for_bad_files(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["check", str(empty)]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    assert main(["extract", "--fixture", "NOPE", "-o", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("argv", [
    ["extract", "--fixture", "F1", "--grid", "3", "-o", "x.json"],
    ["roundtrip", "--fixture", "F1", "--helix-a", "1.5"],
], ids=["extract_grid_too_small", "roundtrip_slope_out_of_range"])
def test_fixture_arguments_that_cannot_be_built_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("field, value", [("flag", "nan"), ("spacing", float("nan")),
                                          ("origin", float("inf")), ("dims", 200.7)])
def test_grid_rejects_non_finite_spacing_and_non_integer_dims(f1_dataset_path, tmp_path, capsys,
                                                              field, value):
    if field == "flag":
        argv = ["extract", "--fixture", "F1", "--spacing", value, "-o", str(tmp_path / "x.json")]
    else:
        doc = json.loads(f1_dataset_path.read_text())
        doc["grid"][field] = [value]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        argv = ["check", str(bad)]
    capsys.readouterr()
    assert main(argv) == 2
    assert "grid" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("name, flag", [("F2", "--helix-a"), ("F1", "--theta0")])
def test_fixture_flag_the_fixture_does_not_take_exits_2(tmp_path, capsys, name, flag):
    out = tmp_path / "x.json"
    assert main(["extract", "--fixture", name, flag, "0.5", "-o", str(out)]) == 2
    assert f"fixture {name} takes no {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("fixture_name", ["F2", "F3"])
@pytest.mark.parametrize("command", ["extract", "roundtrip"])
def test_non_finite_colatitude_exits_2(tmp_path, capsys, command, fixture_name, value):
    """theta0 is tested for finiteness before any sine is taken: no warning, no node."""
    out = tmp_path / "x.json"
    argv = [command, "--fixture", fixture_name, f"--theta0={value}"]
    argv += ["-o", str(out)] if command == "extract" else ["--report", str(out)]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr().err == f"error: colatitude must be finite, got {float(value)}\n"
    assert not out.exists()


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


def test_tolerance_override_flag(f1_dataset_path):
    assert main(["check", str(f1_dataset_path), "--tol",
                 "psi_tilde_parallel=1e-30"]) == 1


@pytest.mark.parametrize("form", ["flag", "dataset"])
def test_misspelt_tolerance_override_exits_2(f1_dataset_path, tmp_path, capsys, form):
    path, flags = f1_dataset_path, ["--tol", "psi_tilde_paralel=1e-30"]
    if form == "dataset":
        doc = json.loads(f1_dataset_path.read_text())
        doc["tolerances"]["overrides"] = {"psi_tilde_paralel": 1e-30}
        path, flags = tmp_path / "misspelt.json", []
        path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", str(path), *flags]) == 2
    assert capsys.readouterr().err == ("error: tolerance override 'psi_tilde_paralel' "
                                       "names no check record\n")


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


@pytest.mark.parametrize("flags, field", [(["--tol-factor", "nan"], "factor"),
                                          (["--tol", "gauss=nan"], "override gauss"),
                                          (["--tol", "gauss=-1"], "override gauss")],
                         ids=["factor_nan", "override_nan", "override_negative"])
def test_unusable_tolerance_flags_exit_2(f1_dataset_path, capsys, flags, field):
    capsys.readouterr()
    assert main(["check", str(f1_dataset_path), *flags]) == 2
    assert capsys.readouterr().err.startswith(f"error: tolerance {field} ")


@pytest.mark.parametrize("command", ["reconstruct", "roundtrip"])
def test_negative_seed_frame_exits_2_before_any_stage(f1_dataset_path, tmp_path, capsys,
                                                      command):
    out, report = tmp_path / "m.csv", tmp_path / "r.json"
    source = ([str(f1_dataset_path), "-o", str(out)] if command == "reconstruct"
              else ["--fixture", "F1"])
    capsys.readouterr()
    assert main([command, *source, "--seed-frame", "-1", "--report", str(report)]) == 2
    assert capsys.readouterr() == (
        "", "error: --seed-frame must be a non-negative integer, got -1\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("factor, code", [(float("nan"), 2), (float("inf"), 0)],
                         ids=["nan_exits_2", "inf_switches_checks_off"])
def test_dataset_tolerance_factor(f1_dataset_path, tmp_path, capsys, factor, code):
    doc = json.loads(f1_dataset_path.read_text())
    doc["tolerances"]["factor"] = factor
    path = tmp_path / "factor.json"
    path.write_text(json.dumps(doc))   # written as NaN or Infinity, which json.load reads back
    capsys.readouterr()
    assert main(["check", str(path)]) == code
    assert capsys.readouterr().err == ("error: tolerance factor must be a non-negative number "
                                       "or inf, got nan\n" if code else "")


def test_reconstruct_has_no_reorthonormalize_option(f1_dataset_path, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["reconstruct", str(f1_dataset_path), "-o", str(tmp_path / "m.csv"),
              "--reorthonormalize"])
    assert exc.value.code == 2


def test_dataset_schema_errors(f2):
    doc = dataset_to_dict(f2.dataset())
    edit_field(doc, "sigma", lambda sigma: sigma[:-1])
    with pytest.raises(SchemaError, match="'sigma'"):
        dataset_from_dict(doc)
    good = dataset_to_dict(f2.dataset())
    good["schema"] = "nope"
    with pytest.raises(SchemaError):
        dataset_from_dict(good)


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


@pytest.mark.parametrize("breakage", ["check_max", "base_node", "grid_spacing", "grid_dims",
                                      "reconstruction_number"])
def test_align_malformed_report_exits_2(f1_dataset_path, tmp_path, capsys, breakage):
    mesh = tmp_path / "a.csv"
    assert main(["reconstruct", str(f1_dataset_path), "-o", str(mesh)]) == 0
    doc = json.loads((tmp_path / "a.csv.report.json").read_text())
    if breakage == "check_max":
        del doc["checks"][0]["max"]
    elif breakage == "base_node":
        del doc["reconstruction"]["base_node"]
    elif breakage == "grid_spacing":
        del doc["grid"]["spacing"]
    elif breakage == "grid_dims":
        doc["grid"]["dims"] = [2]
    else:
        doc["reconstruction"] = 5
    bad = tmp_path / "bad.report.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["align", str(mesh), str(mesh), "--report-a", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("base_node", [[5000, 3], [-1], [200]],
                         ids=["wrong_length", "negative", "out_of_range"])
def test_align_rejects_a_base_node_off_the_report_grid(f1_dataset_path, tmp_path, capsys,
                                                       base_node):
    """A report's base node must be a node of its grid (200 nodes on F1), or the load fails."""
    mesh = tmp_path / "a.csv"
    assert main(["reconstruct", str(f1_dataset_path), "-o", str(mesh)]) == 0
    doc = json.loads((tmp_path / "a.csv.report.json").read_text())
    doc["reconstruction"]["base_node"] = base_node
    bad = tmp_path / "bad.report.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["align", str(mesh), str(mesh), "--report-a", str(bad), "--report-b", str(bad),
                 "--distance-tol", "1e-9"]) == 2
    assert f"reconstruction base_node {base_node} is not a node of the 200 grid" in \
        capsys.readouterr().err


def test_align_refuses_reports_on_different_grids(tmp_path, capsys):
    meshes = []
    for spacing in ("5e-3", "4e-3"):
        ds, mesh = tmp_path / f"{spacing}.json", tmp_path / f"{spacing}.csv"
        assert main(["extract", "--fixture", "F1", "--grid", "200", "--spacing", spacing,
                     "-o", str(ds)]) == 0
        assert main(["reconstruct", str(ds), "-o", str(mesh)]) == 0
        meshes.append(str(mesh))
    capsys.readouterr()
    assert main(["align", *meshes]) == 2
    err = capsys.readouterr().err
    assert "spacing=(0.005,)" in err and "spacing=(0.004,)" in err


@pytest.fixture(scope="module")
def f2_rebuild_on_f1_grid(tmp_path_factory):
    """An F2 rebuild (k 2, N 5) on the default F1 grid and base node: its mesh path."""
    directory = tmp_path_factory.mktemp("f2")
    ds, mesh = directory / "f2.json", directory / "f2.csv"
    assert main(["extract", "--fixture", "F2", "--grid", "200", "--spacing", "5e-3",
                 "-o", str(ds)]) == 0
    assert main(["reconstruct", str(ds), "-o", str(mesh)]) == 0
    return mesh


@pytest.mark.parametrize("case, named", [
    ("other_report", "align inputs must share reconstruction.ambient_dim: 4 vs 5"),
    pytest.param("own_mesh_k", "has the header 'x1,x2,x3,y4,y5'; its report (k 1, "
                 "ambient_dim 5) expects 'x1,x2,y3,y4,y5'", id="own_mesh_k"),
    pytest.param("own_mesh_ambient_dim", "has the header 'x1,x2,y3,y4'; its report (k 1, "
                 "ambient_dim 5) expects 'x1,x2,y3,y4,y5'", id="own_mesh_ambient_dim"),
    pytest.param("rows_short", "has 199 rows of 4 values, its report's grid 200 nodes of 4",
                 id="rows_short"),
    pytest.param("chart_columns", "has the header 't1,x1,x2,y3,y4'; its report (k 1, "
                 "ambient_dim 4) expects 'x1,x2,y3,y4'", id="chart_columns"),
])
def test_align_names_a_report_that_does_not_fit_its_mesh(f1_dataset_path, f2_rebuild_on_f1_grid,
                                                         tmp_path, capsys, case, named):
    """Two rebuilds of different ambient dimensions, or a mesh whose header or rows do not fit
    its own report's k, ambient_dim and grid, exit 2; a mesh misfit names the mesh.  A mesh
    that still carries chart columns (here shifted by 7.0 off its report's grid) is one."""
    mesh = tmp_path / "a.csv"
    assert main(["reconstruct", str(f1_dataset_path), "-o", str(mesh)]) == 0
    own, f2 = str(mesh) + ".report.json", f2_rebuild_on_f1_grid
    bad = tmp_path / "bad.csv"
    lines = mesh.read_text().splitlines(keepends=True)
    argv = ["align", str(bad), str(mesh), "--report-a", str(tmp_path / "bad.report.json"),
            "--distance-tol", "1e-9"]
    report = json.loads(Path(own).read_text())
    if case == "other_report":
        argv = ["align", str(mesh), str(f2)]
    elif case == "own_mesh_k":
        bad.write_text(f2.read_text())
        report = json.loads(Path(str(f2) + ".report.json").read_text())
        report["reconstruction"]["k"] = 1
    elif case == "own_mesh_ambient_dim":
        bad.write_text(mesh.read_text())
        report["reconstruction"] |= {"ambient_dim": 5, "psi_base": np.eye(5).ravel().tolist()}
    elif case == "rows_short":
        bad.write_text("".join(lines[:-1]))
    else:
        t = np.arange(200) * 5e-3 + 7.0
        bad.write_text("t1," + lines[0] + "".join(
            f"{ti!r},{line}" for ti, line in zip(t.tolist(), lines[1:])))
    (tmp_path / "bad.report.json").write_text(json.dumps(report))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err
    if case != "other_report":
        assert f"error: mesh '{bad}' {named}" in err


@pytest.fixture(scope="module")
def f3_small_dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "f3.json"
    assert main(["extract", "--fixture", "F3", "--grid", "9x9", "--spacing", "0.1875,0.1875",
                 "-o", str(path)]) == 0
    return path


@pytest.mark.parametrize("key, value", [("p", 2.7), ("p", 2.0), ("p", -1), ("p", 0), ("p", True),
                                        ("p", "2"), ("n", 2.9), ("n", "2"), ("n", True),
                                        ("n", 3)])
def test_dataset_header_counts_are_integers_or_exit_2(f3_small_dataset_path, tmp_path, capsys,
                                                      key, value):
    """``n`` and ``p`` are read as integers >= 1, never truncated or parsed from a string."""
    doc = json.loads(f3_small_dataset_path.read_text())
    doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", str(bad)]) == 2
    assert f"header {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("tolerances", 5), ("tolerances", {"overrides": [1, 2]}),
                                        ("meta", [1, 2, 3]), ("meta", 7)],
                         ids=["tolerances_number", "overrides_list", "meta_list", "meta_number"])
def test_dataset_malformed_header_exits_2(f1_dataset_path, tmp_path, capsys, key, value):
    doc = json.loads(f1_dataset_path.read_text())
    doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_align_ragged_mesh_exits_2(f1_dataset_path, tmp_path, capsys):
    mesh = tmp_path / "a.csv"
    assert main(["reconstruct", str(f1_dataset_path), "-o", str(mesh)]) == 0
    lines = mesh.read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:-1])   # one node row loses a coordinate
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("\n".join(lines) + "\n")
    (tmp_path / "ragged.csv.report.json").write_text(
        (tmp_path / "a.csv.report.json").read_text())
    capsys.readouterr()
    assert main(["align", str(mesh), str(ragged)]) == 2
    assert "cannot parse mesh" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["mesh", "psi_base"])
def test_align_rejects_a_non_finite_input(f1_dataset_path, tmp_path, capsys, where):
    """A NaN in the second mesh or in its report's frame map is unloadable input, with or
    without a distance tolerance: no NaN distance reaches a verdict."""
    mesh = tmp_path / "a.csv"
    assert main(["reconstruct", str(f1_dataset_path), "-o", str(mesh)]) == 0
    lines = mesh.read_text().splitlines()
    doc = json.loads((tmp_path / "a.csv.report.json").read_text())
    if where == "mesh":
        lines[1] = ",".join(lines[1].split(",")[:-1] + ["nan"])   # one coordinate of one node
        named = "non-finite value in row 1 (line 2)"
    else:
        doc["reconstruction"]["psi_base"][0] = float("nan")
        named = "psi_base"
    nan_mesh = tmp_path / "nan.csv"
    nan_mesh.write_text("\n".join(lines) + "\n")
    (tmp_path / "nan.csv.report.json").write_text(json.dumps(doc))
    for tol in ([], ["--distance-tol", "1e-6"]):
        out = tmp_path / "al.json"
        capsys.readouterr()
        assert main(["align", str(mesh), str(nan_mesh), "-o", str(out), *tol]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()


FIELD_NAMES = ("metric", "bundle_connection", "sigma", "psi.f", "psi.u", "psi.U", "psi.lambda")


@pytest.mark.parametrize("name", FIELD_NAMES)
def test_check_names_the_node_of_a_nan(f1_dataset_path, tmp_path, capsys, name):
    doc = json.loads(f1_dataset_path.read_text())
    assert field_values(doc, name).shape == (200,)   # one entry per node on F1 (n = p = 1)

    def poison(values):
        values[57] = float("nan")
        return values
    edit_field(doc, name, poison)
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", str(bad)]) == 2
    assert "(57,)" in capsys.readouterr().err


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


def _replace_char(text: str) -> str:
    return text[:10] + "*" + text[11:]


@pytest.mark.parametrize("name, breakage", [
    ("metric", lambda doc, name: doc["fields"].update({name: field_values(doc, name).tolist()})),
    ("psi.U", lambda doc, name: doc["fields"].update({name: _replace_char(doc["fields"][name])})),
    ("sigma", lambda doc, name: edit_field(doc, name, lambda values: values[:-1])),
], ids=["not_a_string", "not_base64", "one_float_short"])
def test_malformed_field_exits_2_naming_it(f1_dataset_path, tmp_path, capsys, name, breakage):
    doc = json.loads(f1_dataset_path.read_text())
    breakage(doc, name)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"field {name!r}" in err


def test_check_rejects_a_v1_dataset(f1_dataset_path, tmp_path, capsys):
    """``prodimm-dataset/1`` is no longer read: the schema error names the one format."""
    doc = json.loads(f1_dataset_path.read_text())
    for name in doc["fields"]:
        doc["fields"][name] = field_values(doc, name).tolist()   # the /1 list layout
    doc["schema"] = "prodimm-dataset/1"
    v1 = tmp_path / "v1.json"
    v1.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", str(v1)]) == 2
    err = capsys.readouterr().err
    assert "expected schema 'prodimm-dataset/2', got prodimm-dataset/1" in err


@pytest.mark.parametrize("value", ["nan", "-1"])
@pytest.mark.parametrize("command", ["roundtrip", "align"])
def test_bad_distance_tol_exits_2(f1_dataset_path, tmp_path, capsys, command, value):
    """A NaN or negative ``--distance-tol`` is bad input, not a failed alignment."""
    if command == "align":
        mesh = tmp_path / "a.csv"
        assert main(["reconstruct", str(f1_dataset_path), "-o", str(mesh)]) == 0
        argv = ["align", str(mesh), str(mesh)]
    else:
        argv = ["roundtrip", "--fixture", "F1"]
    capsys.readouterr()
    assert main(argv + ["--distance-tol", value]) == 2
    assert "tolerance --distance-tol must be a non-negative number" in capsys.readouterr().err
