"""End-to-end command-line behavior: exit codes, JSON shape, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nilmetric as nm
from nilmetric.algebra_core import expm, jacobi_accepted
from nilmetric.cli import main
from nilmetric.problemfile import jsonable


def write_problem(tmp_path, name, tensor, structure=None, metric=None,
                  options=None):
    data = nm.export_problem(tensor, structure, metric, options)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, err = run(capsys, ["catalog", "list"])
    assert code == 0
    payload = json.loads(out)
    assert payload["format"] == 1
    assert payload["tool"].startswith("nilmetric ")
    ids = [row["id"] for row in payload["catalog"]]
    assert ids == ["hc-g3", "heisenberg", "iwasawa-curve", "m26"]


def test_catalog_get_stdout_and_params(capsys):
    code, out, _ = run(capsys, ["catalog", "get", "iwasawa-curve", "t=2.0"])
    assert code == 0
    problem = json.loads(out)
    assert problem["format"] == 1
    assert problem["structure"]["class"] == "complex"
    parsed = nm.parse_problem(problem)
    assert np.array_equal(parsed.tensor.coeffs,
                          nm.complex_curve(2.0).tensor.coeffs)


def test_catalog_get_errors(capsys):
    assert run(capsys, ["catalog", "get", "m27"])[0] == 2
    assert run(capsys, ["catalog", "get"])[0] == 2
    assert run(capsys, ["catalog", "get", "m26", "x"])[0] == 2
    assert run(capsys, ["catalog", "get", "m26", "x=a"])[0] == 2
    assert run(capsys, ["catalog", "get", "m26", "z=1"])[0] == 2
    # finite but off the ellipse: a bad request too
    code, out, err = run(capsys, ["catalog", "get", "m26", "x=2"])
    assert (code, out) == (2, "")
    assert err.startswith("error: (x, y) must satisfy")
    for argv in (["m26", "x=nan"], ["m26", "y=-inf"], ["iwasawa-curve", "t=inf"]):
        assert run(capsys, ["catalog", "get"] + argv) == (
            2, "", f"error: catalog parameter {argv[1]!r}: "
                   f"{argv[1][2:]!r} is not a finite number\n")


def test_catalog_to_check_to_certify_chain(capsys, tmp_path):
    path = str(tmp_path / "m26.json")
    code, out, _ = run(capsys, ["catalog", "get", "m26", "--out", path])
    assert code == 0
    summary = json.loads(out)
    assert summary["written"] == path
    assert summary["validation"]["nilpotent"] is True

    code, out, _ = run(capsys, ["check", path])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["lcs_dims"] == [6, 4, 3, 1, 0]
    assert report["nilpotency_index"] == 4

    code, out, _ = run(capsys, ["certify", path])
    assert code == 0
    cert = json.loads(out)
    assert cert["verdict"] == "Minimal"
    assert cert["c"] == pytest.approx(-1.75, abs=1e-12)


def test_check_fails_on_jacobi_violation(capsys, tmp_path):
    bad = nm.symplectic_family(1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
    path = write_problem(tmp_path, "bad.json", bad.tensor)
    code, out, _ = run(capsys, ["check", path])
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert report["checks"]["jacobi"] is False


def test_check_malformed_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["check", str(path)])
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("tag", [[], {}])
def test_check_rejects_unhashable_structure_class(capsys, tmp_path, tag):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": 1, "dim": 3, "bracket": [],
                                "structure": {"class": tag}}))
    code, _, err = run(capsys, ["check", str(path)])
    assert code == 2
    assert "structure 'class' must be a string" in err
    assert "Traceback" not in err


def test_curvature_report_fields(capsys, tmp_path):
    p = nm.m26_point(1.0, 0.0)
    path = write_problem(tmp_path, "m26.json", p.tensor, p.structure)
    code, out, _ = run(capsys, ["curvature", path])
    assert code == 0
    rep = json.loads(out)
    assert rep["scal"] == pytest.approx(-2.5, abs=1e-13)
    assert rep["F_value"] == pytest.approx(7.0 / 160.0, abs=1e-14)
    assert np.abs(np.array(rep["eigen_ric_gamma"])
                  - np.linspace(-1.25, 1.25, 6)).max() < 1e-12
    assert np.abs(np.array(rep["moment"])
                  - 8.0 * np.array(rep["ric"])).max() < 1e-12


def test_certify_nonminimal_exit_code(capsys, tmp_path):
    rng = np.random.default_rng(5)
    g = np.eye(6) + 0.2 * rng.standard_normal((6, 6))
    moved = nm.act(g, nm.m26_point(1.0, 0.0).tensor)
    path = write_problem(tmp_path, "moved.json", moved)
    code, out, _ = run(capsys, ["certify", path])
    assert code == 3
    assert json.loads(out)["verdict"] == "NotCertified"
    # a generous explicit tolerance flips the verdict
    code, out, _ = run(capsys, ["certify", path, "--tol", "1e3"])
    assert code == 0


def test_certify_tolerance_from_env(capsys, tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    g = np.eye(6) + 0.2 * rng.standard_normal((6, 6))
    moved = nm.act(g, nm.m26_point(1.0, 0.0).tensor)
    path = write_problem(tmp_path, "moved.json", moved)
    monkeypatch.setenv("NILMETRIC_TOL", "1e3")
    code, out, _ = run(capsys, ["certify", path])
    assert code == 0
    assert json.loads(out)["tolerance"] == pytest.approx(1e3)


def test_certify_tolerance_precedence(capsys, tmp_path, monkeypatch):
    # --tol beats options.tol, which beats NILMETRIC_TOL
    p = nm.m26_point(1.0, 0.0)
    path = write_problem(tmp_path, "m26.json", p.tensor, p.structure,
                         options={"tol": 1e-3})
    monkeypatch.setenv("NILMETRIC_TOL", "1e-5")
    code, out, _ = run(capsys, ["certify", path])
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-3
    code, out, _ = run(capsys, ["certify", path, "--tol", "1e-9"])
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-9


@pytest.mark.parametrize("raw", ["abc", "0", "-1", "nan", "inf"])
def test_malformed_tolerance_env_is_an_error(capsys, tmp_path, monkeypatch,
                                             raw):
    p = nm.m26_point(1.0, 0.0)
    path = write_problem(tmp_path, "m26.json", p.tensor, p.structure)
    monkeypatch.setenv("NILMETRIC_TOL", raw)
    with pytest.raises(nm.ParseError, match="NILMETRIC_TOL"):
        nm.certification_tolerance()
    code, out, err = run(capsys, ["certify", path])
    assert code == 2
    assert out == ""
    assert "NILMETRIC_TOL" in err


def test_flow_csv_and_summary(capsys, tmp_path):
    p = nm.heisenberg()
    path = write_problem(tmp_path, "heis.json", p.tensor)
    csv_path = tmp_path / "trace.csv"
    code, out, _ = run(capsys, ["flow", path, "--step", "1e-2",
                                "--horizon", "0.2", "--csv", str(csv_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["stop_reason"] == "horizon"
    assert payload["t_final"] == pytest.approx(0.2, abs=1e-12)
    assert abs(payload["scal_final"] - payload["scal_initial"]) < 1e-8
    assert payload["stats"].pop("bracket_gap") <= 1e-10
    assert payload["stats"] == {"field_evals": 80, "accepted": 20,
                                "rejected": {"error": 0, "scal_drift": 0,
                                             "bracket_gap": 0},
                                "min_step": 1e-2, "final_step": 1e-2}
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,scal,F,cert_residual"
    assert len(lines) == 22  # initial sample + 20 accepted steps
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(-0.5)


def test_flow_unnormalized_changes_scal(capsys, tmp_path):
    p = nm.heisenberg()
    path = write_problem(tmp_path, "heis.json", p.tensor)
    code, out, _ = run(capsys, ["flow", path, "--step", "1e-2",
                                "--horizon", "0.2", "--unnormalized"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["scal_final"] - payload["scal_initial"]) > 1e-3


def test_search_finds_minimum_and_is_deterministic(capsys, tmp_path):
    p = nm.m26_point(1.0, 0.0)
    path = write_problem(tmp_path, "m26.json", p.tensor, p.structure)
    argv = ["search", path, "--starts", "3", "--seed", "7"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out1)
    assert len(payload["starts"]) == 3
    for row in payload["starts"]:
        assert row["converged"] is True
        assert row["stop_reason"] == "converged"
        assert "no_descent" not in row
        assert row["F_final"] == pytest.approx(7.0 / 160.0, abs=1e-8)
    assert payload["best"]["certificate"]["verdict"] == "Minimal"
    code, out2, _ = run(capsys, argv)
    assert out2 == out1  # byte-identical rerun


def test_search_honours_the_problem_tolerance(capsys, tmp_path):
    # options.tol reaches every start's certificate, as it reaches certify's
    p = nm.m26_point(1.0, 0.0)
    path = write_problem(tmp_path, "m26.json", p.tensor, p.structure,
                         options={"tol": 1e-30})
    code, out, _ = run(capsys, ["search", path, "--starts", "1"])
    best = json.loads(out)["best"]
    assert best["certificate"]["tolerance"] == 1e-30
    data = json.loads(Path(path).read_text())
    data["bracket"] = best["bracket"]
    returned = tmp_path / "best.json"
    returned.write_text(json.dumps(data))
    certify_code, certify_out, _ = run(capsys, ["certify", str(returned)])
    cert = json.loads(certify_out)
    assert cert["tolerance"] == 1e-30
    assert cert["verdict"] == best["certificate"]["verdict"]
    assert certify_code == code


def test_search_perturbation_is_the_generator_norm(capsys, tmp_path,
                                                   monkeypatch):
    # every perturbed start k >= 1 moves by exp(xi) with |xi| = --perturbation
    p = nm.m26_point(1.0, 0.0)
    path = write_problem(tmp_path, "m26.json", p.tensor, p.structure)
    norms = []

    def recorded(xi):
        norms.append(np.linalg.norm(xi))
        return expm(xi)

    monkeypatch.setattr("nilmetric.cli.expm", recorded)
    code, _, _ = run(capsys, ["search", path, "--starts", "4", "--seed", "0",
                              "--perturbation", "0.2"])
    assert code == 0
    assert len(norms) == 3
    assert np.abs(np.array(norms) - 0.2).max() <= 1e-12


def test_check_scales_integrability_bound_with_norm(capsys, tmp_path):
    # relative integrability defect 3.2e-8: bracket_descent and
    # hermitian_obstruction reject it, so check must too
    p = nm.catalog_get("m26")
    bent = p.tensor.scaled(100.0).plus(
        nm.SkewTensor.from_entries(6, [(1, 2, 4, 1.0)]), 1e-5)
    path = write_problem(tmp_path, "bent.json", bent, p.structure)
    code, out, _ = run(capsys, ["check", path])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert checks == {"jacobi": True, "nilpotent": True,
                      "integrability": False, "compatibility": True}
    with pytest.raises(nm.InvalidBracket):
        nm.bracket_descent(bent, p.structure)
    with pytest.raises(nm.NotClosed):
        nm.hermitian_obstruction(bent, gamma=p.structure)


@pytest.mark.parametrize("side", [0.999, 1.001])
def test_check_and_bracket_share_the_jacobi_bound(capsys, tmp_path, side):
    # m26 at norm 10 plus t times the X5 component of mu(X3, X4): the
    # Jacobi sum is linear in t, so t can sit just inside or just outside
    # the largest residual jacobi_accepted takes at the base, found by
    # bisection; check and Bracket must agree
    m26 = nm.catalog_get("m26").tensor
    base = m26.scaled(10.0 / m26.norm())
    bend = nm.SkewTensor.from_entries(6, [(3, 4, 5, 1.0)])
    slope = nm.jacobi_residual(base.plus(bend))
    edge, over = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (edge + over)
        edge, over = (mid, over) if jacobi_accepted(mid, base) else (edge, mid)
    t = side * edge / slope
    mu = base.plus(bend, t)
    path = write_problem(tmp_path, "edge.json", mu)
    _, out, _ = run(capsys, ["check", path])
    report = json.loads(out)
    assert report["checks"]["jacobi"] is (side < 1.0)
    assert report["nilpotent"] is True
    if side < 1.0:
        assert nm.Bracket(mu).nilpotency_index == report["nilpotency_index"]
    else:
        with pytest.raises(nm.InvalidBracket):
            nm.Bracket(mu)


def test_symplectic_metric_compatible_up_to_a_factor_passes(capsys, tmp_path):
    # sp(s omega) = sp(omega): m26 at G = 2 I, and at the identity with the
    # form scaled by 3, is checked, certified and fingerprinted like at I
    p = nm.m26_point(1.0, 0.0)
    scaled_form = nm.symplectic_structure(3.0 * p.structure.payload)
    for structure, metric in ((p.structure, nm.Metric(2.0 * np.eye(6))),
                              (scaled_form, None)):
        path = write_problem(tmp_path, "scaled.json", p.tensor, structure, metric)
        code, out, _ = run(capsys, ["check", path])
        assert code == 0
        assert json.loads(out)["checks"]["compatibility"] is True
        code, out, _ = run(capsys, ["certify", path])
        assert code == 0
        assert json.loads(out)["verdict"] == "Minimal"
        assert run(capsys, ["fingerprint", path])[0] == 0


def test_fingerprint_and_distinguish(capsys, tmp_path):
    a = nm.complex_curve(1.0)
    b = nm.complex_curve(3.0)
    pa = write_problem(tmp_path, "a.json", a.tensor, a.structure)
    pb = write_problem(tmp_path, "b.json", b.tensor, b.structure)

    code, out, _ = run(capsys, ["fingerprint", pa])
    assert code == 0
    fp = json.loads(out)
    assert fp["dim"] == 6
    assert fp["lcs_dims"] == [6, 2, 0]

    code, out, _ = run(capsys, ["distinguish", pa, pb])
    assert code == 0
    assert json.loads(out)["verdict"] == "Distinct"

    code, out, _ = run(capsys, ["distinguish", pa, pa])
    assert code == 3
    assert json.loads(out)["verdict"] == "Indistinguishable"


@pytest.mark.parametrize("argv, flag", [
    (["distinguish", "F", "F", "--tol", "-1"], "--tol"),
    (["certify", "F", "--tol", "nan"], "--tol"),
    (["certify", "F", "--tol", "-1"], "--tol"),
    (["flow", "F", "--step", "0"], "--step"),
    (["flow", "F", "--horizon", "inf"], "--horizon"),
    (["search", "F", "--starts", "0"], "--starts"),
    (["search", "F", "--starts", "-1"], "--starts"),
    (["search", "F", "--starts", "2.5"], "--starts"),
    (["search", "F", "--tol-converge", "-1"], "--tol-converge"),
    (["search", "F", "--max-iter", "0"], "--max-iter"),
    (["search", "F", "--perturbation", "nan"], "--perturbation"),
    (["search", "F", "--perturbation", "-0.1"], "--perturbation"),
    (["search", "F", "--seed", "-1"], "--seed"),
])
def test_bad_numeric_flags_exit_2(capsys, tmp_path, argv, flag):
    p = nm.m26_point(1.0, 0.0)
    path = write_problem(tmp_path, "m26.json", p.tensor, p.structure)
    with pytest.raises(SystemExit) as exc:
        main([path if arg == "F" else arg for arg in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err.splitlines()[-1]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["flow", "F", "--csv", "OUT"],
    ["catalog", "get", "m26", "--out", "OUT"],
], ids=["flow-csv", "catalog-out"])
def test_unwritable_output_path_exits_2(capsys, tmp_path, monkeypatch, argv):
    # one error line naming the path, before the flow runs
    path = write_problem(tmp_path, "heis.json", nm.heisenberg().tensor)
    target = str(tmp_path / "missing" / "out")
    flows = []
    monkeypatch.setattr("nilmetric.cli.metric_flow",
                        lambda *a, **k: flows.append(a))
    code, out, err = run(capsys, [path if arg == "F" else
                                  target if arg == "OUT" else arg
                                  for arg in argv])
    assert (code, out, flows) == (2, "", [])
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert target in err and "Traceback" not in err


def test_flow_has_no_integrator_flag(capsys, tmp_path):
    # RK4 is the flow's only integrator; the removed flag is a usage error
    path = write_problem(tmp_path, "heis.json", nm.heisenberg().tensor)
    with pytest.raises(SystemExit) as exc:
        main(["flow", path, "--integrator", "euler"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --integrator euler" in captured.err


def test_all_json_outputs_carry_format_header(capsys, tmp_path):
    p = nm.m26_point(1.0, 0.0)
    path = write_problem(tmp_path, "m26.json", p.tensor, p.structure)
    for argv in (["check", path], ["curvature", path], ["certify", path],
                 ["fingerprint", path],
                 ["flow", path, "--step", "1e-2", "--horizon", "0.05"]):
        code, out, _ = run(capsys, argv)
        payload = json.loads(out)
        assert payload["format"] == 1
        assert payload["tool"].startswith("nilmetric ")


def test_cli_import_loads_no_scipy():
    src = str(Path(nm.__file__).resolve().parents[1])
    code = ("import sys, nilmetric.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
