import contextlib
import io
import json

import numpy as np
import pytest

from prodimm.cli import check_dataset, main
from prodimm.dataio import (Dataset, dataset_from_dict, dataset_to_dict, load_dataset,
                            load_immersion_csv, load_report, save_dataset)


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
    assert np.array_equal(back.psi.u.values, ds.psi.u.values)
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
    assert {"gauss", "codazzi", "ricci", "bundle_flatness"} <= \
        {r.name for r in report.checks}


def test_check_table_follows_redirected_stdout(f1_dataset_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["check", str(f1_dataset_path)]) == 0
    lines = out.getvalue().splitlines()
    assert any(line.startswith("PASS gauss ") for line in lines)
    assert all(line.split()[0] == "PASS" for line in lines if " thr=" in line)


def test_check_flags_negated_u(f1_dataset_path, tmp_path):
    doc = json.loads(f1_dataset_path.read_text())
    doc["fields"]["psi.u"] = [-v for v in doc["fields"]["psi.u"]]
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


def test_reconstruct_writes_mesh_and_report(f1_dataset_path, tmp_path):
    mesh = tmp_path / "f1.csv"
    assert main(["reconstruct", str(f1_dataset_path), "-o", str(mesh)]) == 0
    coords, values, k = load_immersion_csv(str(mesh))
    assert k == 1
    assert coords.shape == (200, 1) and values.shape == (200, 4)
    report = load_report(str(mesh) + ".report.json")
    assert report.reconstruction["k"] == 1
    assert report.reconstruction["on_product_defect"] < 1e-6
    x = values[:, :2]
    assert np.abs((x**2).sum(axis=1) - 1.0).max() < 1e-6


def test_reconstruct_refuses_then_forces(f1_dataset_path, tmp_path):
    doc = json.loads(f1_dataset_path.read_text())
    sg = np.asarray(doc["fields"]["sigma"]).reshape(200, 1, 1, 1)
    t = np.arange(200) * 5e-3
    sg[..., 0, 0, 0] += 5e-2 * np.sin(3 * t)
    doc["fields"]["sigma"] = sg.ravel().tolist()
    bad = tmp_path / "bad_sigma.json"
    bad.write_text(json.dumps(doc))
    mesh = tmp_path / "forced.csv"
    assert main(["reconstruct", str(bad), "-o", str(mesh)]) == 1
    assert not mesh.exists()
    assert main(["reconstruct", str(bad), "-o", str(mesh), "--force"]) == 1
    assert mesh.exists()   # rebuild proceeded, report carries the failures
    report = load_report(str(mesh) + ".report.json")
    assert not report.passed


def test_roundtrip_f1_and_f2(tmp_path):
    assert main(["roundtrip", "--fixture", "F1", "--distance-tol", "1e-4",
                 "--report", str(tmp_path / "rt1.json")]) == 0
    report = load_report(str(tmp_path / "rt1.json"))
    assert report.alignment["max_distance"] <= 1e-4
    assert main(["roundtrip", "--fixture", "F2", "--distance-tol", "1e-3"]) == 0


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
    assert r1.read_text() == r2.read_text()


def test_tolerance_override_flag(f1_dataset_path):
    assert main(["check", str(f1_dataset_path), "--tol",
                 "psi_tilde_parallel=1e-30"]) == 1


def test_dataset_schema_errors(f2):
    doc = dataset_to_dict(f2.dataset())
    doc["fields"]["sigma"] = doc["fields"]["sigma"][:-1]
    with pytest.raises(Exception):
        dataset_from_dict(doc)
    good = dataset_to_dict(f2.dataset())
    good["schema"] = "nope"
    from prodimm.errors import SchemaError
    with pytest.raises(SchemaError):
        dataset_from_dict(good)


def test_repair_export_renormalizes(f1_dataset_path, tmp_path):
    mesh = tmp_path / "repaired.csv"
    assert main(["reconstruct", str(f1_dataset_path), "-o", str(mesh),
                 "--repair-export"]) == 0
    _, values, k = load_immersion_csv(str(mesh))
    x = values[:, : k + 1]
    assert np.abs((x**2).sum(axis=1) - 1.0).max() <= 1e-14


@pytest.mark.parametrize("breakage", ["check_max", "base_node", "grid_spacing", "grid_dims"])
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
    else:
        doc["grid"]["dims"] = [2]
    bad = tmp_path / "bad.report.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["align", str(mesh), str(mesh), "--report-a", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
