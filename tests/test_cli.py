"""End-to-end tests of the command-line front end.

Every test drives ``cli.main(argv)`` the way a shell would, against spec
files produced by the ``export`` subcommand, and checks exit codes, the
files left behind, and the printed summary lines.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sweepctl.spec
from sweepctl import cli
from sweepctl.dynamics import Path, SimulationError, simulate
from sweepctl.geometry import ConfigurationError
from sweepctl.ocp import InfeasibleWarmStartError, NumericalFailureError
from sweepctl.problems import certificate_on_mesh, instance, solution_on_mesh


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def export_spec(tmp_path, instance_id, k):
    """Write the named instance's spec file and return its path."""
    spec_path = str(tmp_path / f"{instance_id}.json")
    rc = cli.main(["export", instance_id, "--k", str(k), "--out", spec_path])
    assert rc == 0
    return spec_path


def write_pair(tmp_path, state, control, name="pair"):
    """Store a trajectory pair as x.csv and u.csv, certify-style."""
    sol = tmp_path / name
    sol.mkdir()
    nodes = state.mesh.nodes
    n = state.values.shape[1]
    m = control.values.shape[1]
    cli._write_csv(str(sol / "x.csv"),
                   ["t"] + [f"x_{i + 1}" for i in range(n)],
                   np.column_stack([nodes, state.values]))
    cli._write_csv(str(sol / "u.csv"),
                   ["t"] + [f"u_{a + 1}" for a in range(m)],
                   np.column_stack([nodes, control.values]))
    return str(sol)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_writes_loadable_spec(tmp_path, capsys):
    spec_path = export_spec(tmp_path, "remark45", 8)
    out = capsys.readouterr().out
    assert f"wrote {spec_path}" in out
    spec = read_json(spec_path)
    assert spec["schema"] == 1
    assert spec["solver"]["k"] == 8
    assert spec["dims"] == {"n": 1, "m": 1, "s": 1}


def test_export_to_stdout(capsys):
    rc = cli.main(["export", "counterexample53"])
    assert rc == 0
    spec = json.loads(capsys.readouterr().out)
    assert spec["schema"] == 1
    assert spec["solver"]["k"] == 50


@pytest.mark.parametrize("k", ["0", "-3"])
def test_export_rejects_a_mesh_size_that_is_not_positive(tmp_path, capsys, k):
    """export used to write such a spec, which solve then rejected."""
    out = tmp_path / "bad-k"
    assert cli.main(["export", "remark45", "--k", k, "--out", str(out / "spec.json")]) == 2
    assert not (out / "spec.json").exists()
    error = read_json(str(out / "error.json"))
    assert error["error"] == "ConfigurationError"
    assert "k must be a positive integer" in error["message"]
    assert cli.main(["export", "remark45", "--k", k]) == 2
    assert capsys.readouterr().out == ""


def test_export_unknown_instance_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["export", "no_such_instance"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_reproduces_reference(tmp_path, capsys):
    spec_path = export_spec(tmp_path, "remark45", 8)
    xbar, ubar = solution_on_mesh("remark45", 8)
    control_csv = str(tmp_path / "control.csv")
    cli._write_csv(control_csv, ["t", "u_1"],
                   np.column_stack([ubar.mesh.nodes, ubar.values]))
    out = tmp_path / "sim"
    rc = cli.main(["simulate", spec_path, "--control", control_csv,
                   "--out-dir", str(out)])
    assert rc == 0
    assert "simulated 8 steps" in capsys.readouterr().out

    header, data = cli._read_csv(str(out / "state.csv"))
    assert header == ["t", "x_1"]
    assert np.max(np.abs(data[:, 1] - xbar.values[:, 0])) <= 1e-12

    header, steps = cli._read_csv(str(out / "steps.csv"))
    assert header == ["t", "eta_1", "projection_residual", "feasibility"]
    assert steps.shape[0] == 8
    # velocity multipliers: the boundary pushes during the two middle cells
    assert np.allclose(steps[:, 1], [0, 0, 1, 1, 0, 0, 0, 0], atol=1e-9)
    assert np.all(steps[:, 2] <= 1e-9)
    assert np.all(steps[:, 3] <= 1e-8)


def test_simulate_rejects_wrong_header(tmp_path):
    spec_path = export_spec(tmp_path, "remark45", 8)
    bad = str(tmp_path / "bad.csv")
    nodes = np.linspace(0.0, 2.0, 9)
    cli._write_csv(bad, ["t", "v_1"],
                   np.column_stack([nodes, np.full(9, -2.0)]))
    out = tmp_path / "sim"
    rc = cli.main(["simulate", spec_path, "--control", bad,
                   "--out-dir", str(out)])
    assert rc == 2
    assert read_json(str(out / "error.json"))["error"] == "SpecError"


def test_simulate_rejects_jagged_csv(tmp_path):
    spec_path = export_spec(tmp_path, "remark45", 8)
    bad = str(tmp_path / "jagged.csv")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("t,u_1\n0,-2\n0.5,-2,7\n1,-2\n")
    rc = cli.main(["simulate", spec_path, "--control", bad,
                   "--out-dir", str(tmp_path / "sim")])
    assert rc == 2


def test_simulate_infeasible_control_exits_3(tmp_path):
    spec_path = export_spec(tmp_path, "remark45", 8)
    nodes = np.linspace(0.0, 2.0, 9)
    control_csv = str(tmp_path / "high.csv")
    cli._write_csv(control_csv, ["t", "u_1"],
                   np.column_stack([nodes, np.full(9, 5.0)]))
    out = tmp_path / "sim"
    rc = cli.main(["simulate", spec_path, "--control", control_csv,
                   "--out-dir", str(out)])
    assert rc == 3
    assert read_json(str(out / "error.json"))["error"] == "SimulationError"


@pytest.mark.parametrize("cell", ["-1_0", "-1_000.5", "-\u0661", "-\uff12",
                                  "-\U0001d7d0", "-\u0662.\u0665"],
                         ids=["underscore", "underscore-fraction", "arabic-indic",
                              "fullwidth", "math-bold", "arabic-indic-fraction"])
def test_a_csv_cell_is_ascii_decimal_text(tmp_path, cell):
    """float() reads Python literal syntax and any Unicode digits, so these
    cells used to pass as -10, -1000.5, -1, -2, -2 and -2.5."""
    spec_path = export_spec(tmp_path, "remark45", 4)
    control_csv = tmp_path / "control.csv"
    control_csv.write_text(f"t,u_1\n0,-2\n0.5,{cell}\n1,-1\n1.5,-1\n2,-1\n",
                           encoding="utf-8")
    out = tmp_path / "sim"
    rc = cli.main(["simulate", spec_path, "--control", str(control_csv),
                   "--out-dir", str(out)])
    assert rc == 2
    error = read_json(str(out / "error.json"))
    assert error["error"] == "SpecError"
    assert "control.csv:3: non-numeric cell" in error["message"]


def test_csv_cells_may_carry_blanks_and_any_decimal_form(tmp_path):
    spec_path = export_spec(tmp_path, "remark45", 4)
    plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
    plain.write_text("t,u_1\n0,-2\n0.5,-1.5\n1,-1\n1.5,-1\n2,-1\n", encoding="utf-8")
    padded.write_text("t , u_1\n 0 ,\t-2.\n+.5, -15e-1\n1.0E0,-1\n1.5,-1 \n2,-1\n",
                      encoding="utf-8")
    for control in (plain, padded):
        assert cli.main(["simulate", spec_path, "--control", str(control),
                         "--out-dir", str(tmp_path / control.stem)]) == 0
    assert ((tmp_path / "plain" / "state.csv").read_bytes()
            == (tmp_path / "padded" / "state.csv").read_bytes())


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_smoothed_writes_solution_and_report(tmp_path):
    spec_path = export_spec(tmp_path, "elastoplastic61", 20)
    out = tmp_path / "run"
    rc = cli.main(["solve", spec_path, "--out-dir", str(out),
                   "--solver", "smoothed", "--k", "20"])
    assert rc == 0
    report = read_json(str(out / "report.json"))
    assert report["status"] == "converged"
    assert report["solver"] == "smoothed"
    assert report["k"] == 20
    assert report["mode"] == "W12xW12"
    assert abs(report["cost"] - 0.125) <= 1e-6
    assert len(report["sigma_trace"]) >= 1
    assert len(report["cost_trace"]) == len(report["sigma_trace"]) + 1
    assert report["line_search_trials"] >= report["iterations"] > 0

    header, x = cli._read_csv(str(out / "x.csv"))
    assert header == ["t", "x_1"] and x.shape == (21, 2)
    header, u = cli._read_csv(str(out / "u.csv"))
    assert header == ["t", "u_1"] and u.shape == (21, 2)
    header, eta = cli._read_csv(str(out / "eta.csv"))
    assert header == ["t", "eta_1"] and eta.shape == (20, 2)


def test_solve_shooting_converges_monotonically(tmp_path, capsys):
    spec_path = export_spec(tmp_path, "remark45", 8)
    out = tmp_path / "run"
    rc = cli.main(["solve", spec_path, "--out-dir", str(out),
                   "--solver", "shooting"])
    assert rc == 0
    assert "solved (shooting, k=8)" in capsys.readouterr().out
    report = read_json(str(out / "report.json"))
    assert report["solver"] == "shooting"
    assert report["status"] == "converged"
    assert report["stop_reason"] == "tolerance"
    assert report["cost"] <= 1e-6
    trace = report["cost_trace"]
    assert len(trace) >= 2
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_solve_reports_the_shooting_work_counters(tmp_path):
    spec_path = export_spec(tmp_path, "remark45", 8)
    out = tmp_path / "run"
    assert cli.main(["solve", spec_path, "--out-dir", str(out),
                     "--solver", "shooting"]) == 0
    report = read_json(str(out / "report.json"))
    # the exact-gradient route simulates once to start and once per trial
    assert report["line_search_trials"] >= report["iterations"] - 1
    assert report["simulations"] == 1 + report["line_search_trials"]


def test_shooting_report_counts_the_forward_sweep_gradients(tmp_path):
    # No row is active along the held start, so the first tangent sweep
    # meets no weakly active step; the Newton step lands on an iterate with
    # a step resting on x + u = 0 with a zero multiplier (weakly active),
    # whose gradient meets the tolerance.  No direction was -g.
    spec_path = export_spec(tmp_path, "remark45", 8)
    out = tmp_path / "run"
    assert cli.main(["solve", spec_path, "--out-dir", str(out),
                     "--solver", "shooting"]) == 0
    report = read_json(str(out / "report.json"))
    assert report["iterations"] == 2
    assert report["forward_gradients"] == 1
    assert report["descent_steps"] == 0


def test_shooting_stopped_short_exits_nonconverged(tmp_path, capsys):
    """From its resting control nonconvex22 sits at the kink of its optimum,
    where forward-difference gradients stay above the default tolerance and
    no trial step decreases the cost: the run must not claim success."""
    spec_path = export_spec(tmp_path, "nonconvex22", 6)
    out = tmp_path / "run"
    rc = cli.main(["solve", spec_path, "--out-dir", str(out),
                   "--solver", "shooting"])
    assert rc == cli.EXIT_SOLVER
    assert "solved" not in capsys.readouterr().out
    report = read_json(str(out / "report.json"))
    assert report["status"] == "nonconverged"
    assert report["stop_reason"] == "line_search"
    assert report["stat_residual"] ** 2 >= 1e-12
    assert read_json(str(out / "error.json"))["error"] == "NumericalFailureError"
    for name in ("x.csv", "u.csv", "eta.csv"):
        assert (out / name).exists()


def test_stopped_short_search_ends_at_the_rounding_unit(tmp_path):
    """The line search that ends the nonconvex22 run stops once the predicted
    decrease alpha |g.d| is below the cost's rounding unit, instead of
    halving alpha down to 1e-12."""
    spec_path = export_spec(tmp_path, "nonconvex22", 6)
    out = tmp_path / "run"
    rc = cli.main(["solve", spec_path, "--out-dir", str(out),
                   "--solver", "shooting"])
    assert rc == cli.EXIT_SOLVER
    report = read_json(str(out / "report.json"))
    assert report["stop_reason"] == "line_search"
    assert report["simulations"] <= 30


def test_solve_rejects_increasing_sigma_schedule(tmp_path):
    spec_path = export_spec(tmp_path, "remark45", 8)
    out = tmp_path / "run"
    rc = cli.main(["solve", spec_path, "--out-dir", str(out),
                   "--solver", "smoothed", "--sigma-schedule", "0.1,0.5"])
    assert rc == 2
    assert os.path.exists(str(out / "error.json"))


@pytest.mark.parametrize("flags", [
    ["--tol", "nan"],
    ["--tol", "-1"],
    ["--solver", "shooting", "--tol", "nan"],
    ["--sigma-schedule", "nan"],
    ["--sigma-schedule", "inf,1e-8"],
], ids=["tol-nan", "tol-negative", "shooting-tol-nan", "sigma-nan", "sigma-inf-first"])
def test_solve_rejects_a_tolerance_or_stage_that_is_not_finite_and_positive(
        tmp_path, flags):
    spec_path = export_spec(tmp_path, "remark45", 8)
    out = tmp_path / "run"
    assert cli.main(["solve", spec_path, "--out-dir", str(out), *flags]) == 2
    error = read_json(str(out / "error.json"))
    assert error["error"] == "ConfigurationError"
    assert "must be finite and positive" in error["message"]
    assert not os.path.exists(str(out / "report.json"))


def test_solve_rejects_unknown_method_in_spec(tmp_path):
    spec_path = export_spec(tmp_path, "remark45", 8)
    spec = read_json(spec_path)
    spec["solver"]["method"] = "magic"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    rc = cli.main(["solve", spec_path, "--out-dir", str(tmp_path / "run")])
    assert rc == 2


def test_solve_nonconvergence_exits_4_with_partial(tmp_path, monkeypatch):
    spec_path = export_spec(tmp_path, "remark45", 8)

    def stall(transcription, sigma_schedule=None, tol_stat=0.0):
        err = NumericalFailureError("stalled before the tolerance")
        err.partial = transcription.initial_decision()
        raise err

    monkeypatch.setattr(cli, "solve_smoothed", stall)
    out = tmp_path / "run"
    rc = cli.main(["solve", spec_path, "--out-dir", str(out),
                   "--solver", "smoothed", "--k", "8"])
    assert rc == 4
    report = read_json(str(out / "report.json"))
    assert report["status"] == "nonconverged"
    assert report["partial_written"] is True
    assert os.path.exists(str(out / "x.csv"))
    assert read_json(str(out / "error.json"))["error"] == "NumericalFailureError"


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    """Two calls parse with one parser object, and a solver patched after
    the parser was built still takes effect."""
    import argparse

    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    spec_path = export_spec(tmp_path, "remark45", 8)
    calls = []

    def stall(transcription, sigma_schedule=None, tol_stat=0.0):
        calls.append(transcription.mesh.k)
        raise NumericalFailureError("stalled before the tolerance")

    monkeypatch.setattr(cli, "solve_smoothed", stall)
    rc = cli.main(["solve", spec_path, "--out-dir", str(tmp_path / "run"),
                   "--solver", "smoothed", "--k", "6"])
    assert rc == 4 and calls == [6]
    assert len(parsers) == 2 and parsers[0] is parsers[1]


def test_solve_rejects_bad_schema(tmp_path):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump({"schema": 2}, fh)
    assert cli.main(["solve", bad, "--out-dir", str(tmp_path / "a")]) == 2

    broken = str(tmp_path / "broken.json")
    with open(broken, "w", encoding="utf-8") as fh:
        fh.write("{nope")
    assert cli.main(["solve", broken, "--out-dir", str(tmp_path / "b")]) == 2

    thin = str(tmp_path / "thin.json")
    with open(thin, "w", encoding="utf-8") as fh:
        json.dump({"schema": 1, "horizon": 1.0}, fh)
    assert cli.main(["solve", thin, "--out-dir", str(tmp_path / "c")]) == 2


@pytest.mark.parametrize("command, bad_file", [
    ("solve", "spec"), ("certify", "spec"), ("certify", "certificate")])
@pytest.mark.parametrize("content", [None, "{nope"], ids=["missing", "not-json"])
def test_an_unreadable_or_malformed_file_exits_2_naming_its_path(
        tmp_path, command, bad_file, content):
    spec_path = export_spec(tmp_path, "elastoplastic61", 8)
    sol = write_pair(tmp_path, *solution_on_mesh("elastoplastic61", 8))
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content, encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, str(bad) if bad_file == "spec" else spec_path,
            "--out-dir", str(out)]
    if command == "certify":
        argv += ["--solution", sol]
    if bad_file == "certificate":
        argv += ["--certificate", str(bad)]
    assert cli.main(argv) == 2
    error = read_json(str(out / "error.json"))
    assert error["error"] == "SpecError"
    assert str(bad) in error["message"]
    assert ("cannot read" if content is None else "is not valid JSON") in error["message"]


@pytest.mark.parametrize("section, key, value", [
    ("solver", "k", "abc"),
    ("solver", "k", None),
    ("solver", "k", [1]),
    ("solver", "k", 3.7),
    ("solver", "k", True),
    ("solver", "k", 0),
    ("dims", "n", True),
    ("dims", "m", 1.0),
], ids=["k-string", "k-null", "k-list", "k-float", "k-true", "k-zero", "n-true",
        "m-float"])
def test_solve_rejects_a_count_that_is_not_a_positive_int(tmp_path, section, key,
                                                          value):
    spec_path = export_spec(tmp_path, "remark45", 8)
    spec = read_json(spec_path)
    spec[section][key] = value
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    out = tmp_path / "run"
    assert cli.main(["solve", spec_path, "--out-dir", str(out)]) == 2
    error = read_json(str(out / "error.json"))
    assert error["error"] == "SpecError"
    assert "must be a positive integer" in error["message"]


@pytest.mark.parametrize("where, value, message", [
    (("horizon",), True, "spec.horizon must be a finite number"),
    (("cost", "ell", "weight"), True, "ell.weight must be a finite number"),
    (("solver", "sigma_schedule"), [True, 1e-8], "sigma schedule entries must be numbers"),
], ids=["horizon", "ell-weight", "sigma-schedule"])
def test_solve_rejects_json_true_as_a_number(tmp_path, where, value, message):
    """float(True) is 1.0, but a JSON true is no number."""
    spec_path = export_spec(tmp_path, "remark45", 8)
    spec = read_json(spec_path)
    parent = spec
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    out = tmp_path / "run"
    assert cli.main(["solve", spec_path, "--out-dir", str(out)]) == 2
    error = read_json(str(out / "error.json"))
    assert error["error"] == "SpecError"
    assert message in error["message"]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def write_certificate(path, cert):
    """Store p, eta and gamma (density and atoms) of a certificate as JSON."""
    data = {"lam": cert.lam, "p": cert.p.values.tolist(),
            "eta": cert.eta.values.tolist(),
            "gamma": {"density": cert.gamma.density.tolist(),
                      "atoms": [[t, w.tolist()] for t, w in cert.gamma.atoms]}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)  # writes the non-standard NaN / Infinity tokens


def test_certify_assembled_passes(tmp_path, capsys):
    spec_path = export_spec(tmp_path, "counterexample53", 8)
    xbar, ubar = solution_on_mesh("counterexample53", 8)
    sol = write_pair(tmp_path, xbar, ubar)
    out = tmp_path / "cert"
    rc = cli.main(["certify", spec_path, "--solution", sol,
                   "--out-dir", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "certification PASSED" in stdout
    assert "maximum condition: pass" in stdout
    assert "conventional Hamiltonian inf" in stdout

    report = read_json(str(out / "report.json"))
    assert report["passed"] is True
    assert report["stationarity"]["passed"] is True
    assert report["max_condition"]["passed"] is True
    assert report["sufficiency"]["details"]["conventional_hamiltonian"] == "inf"
    cert = report["certificate"]
    assert cert["assembled"] is True
    assert cert["fit_residual"] <= 1e-8


def test_certify_explicit_certificate_file(tmp_path):
    spec_path = export_spec(tmp_path, "counterexample53", 8)
    xbar, ubar = solution_on_mesh("counterexample53", 8)
    sol = write_pair(tmp_path, xbar, ubar)
    cert_path = str(tmp_path / "cert.json")
    with open(cert_path, "w", encoding="utf-8") as fh:
        json.dump({"lam": 1.0, "p": [[-1.0, -1.0, 0.0, 0.0]] * 9}, fh)
    out = tmp_path / "cert_out"
    rc = cli.main(["certify", spec_path, "--solution", sol,
                   "--certificate", cert_path, "--out-dir", str(out)])
    assert rc == 0
    report = read_json(str(out / "report.json"))
    assert report["passed"] is True
    assert report["certificate"]["assembled"] is False
    assert report["certificate"]["fit_residual"] is None


@pytest.mark.parametrize("atom_weight", [1.0, float("nan"), float("inf")])
def test_certificate_atom_weights_must_be_finite(tmp_path, atom_weight):
    spec_path = export_spec(tmp_path, "elastoplastic61", 8)
    sol = write_pair(tmp_path, *solution_on_mesh("elastoplastic61", 8))
    cert = certificate_on_mesh("elastoplastic61", 8)
    [(t, w)] = cert.gamma.atoms
    cert = dataclasses.replace(cert, gamma=dataclasses.replace(
        cert.gamma, atoms=((t, w * atom_weight),)))
    cert_path = str(tmp_path / "cert.json")
    write_certificate(cert_path, cert)
    out = tmp_path / "cert_out"
    rc = cli.main(["certify", spec_path, "--solution", sol,
                   "--certificate", cert_path, "--out-dir", str(out)])
    if atom_weight == 1.0:
        assert rc == 0
        assert read_json(str(out / "report.json"))["passed"] is True
        return
    assert rc == 2
    assert not os.path.exists(str(out / "report.json"))
    error = read_json(str(out / "error.json"))
    assert error["error"] == "SpecError"
    assert "gamma atom weights must be finite" in error["message"]


def test_default_q_is_built_from_the_state_mapped_field():
    # With a state map G every report reads the composed field; the q that
    # parse_certificate fills in must come from the same field, or a
    # consistent certificate fails q_gamma.
    from sweepctl.certify import residual_continuous_EL

    problem = instance("counterexample53").problem
    field = problem.system.field.with_state_map(np.array([[2.0, 0.0], [1.0, 1.0]]))
    system = dataclasses.replace(problem.system, field=field)
    problem = dataclasses.replace(problem, system=system)
    state, control = solution_on_mesh("counterexample53", 8)
    k, s = 8, field.s
    data = {"lam": 1.0, "p": np.zeros((k + 1, field.n + field.m)).tolist(),
            "eta": np.zeros((k + 1, s)).tolist(),
            "gamma": {"density": np.ones((k, s)).tolist()}}
    cert = cli.parse_certificate(data, problem, state, control)
    report = residual_continuous_EL(problem, state, control, cert)
    q_gamma = {item.name: item for item in report.items}["q_gamma"]
    assert q_gamma.residual <= 1e-12


def test_certify_flags_suboptimal_pair(tmp_path, capsys):
    # a feasible but suboptimal pair: stationarity alone is fooled because
    # the assembled measure soaks the error on a contact cell, but the
    # refined maximum condition catches the misplaced mass
    spec_path = export_spec(tmp_path, "remark45", 8)
    xbar, ubar = solution_on_mesh("remark45", 8)
    bumped = ubar.values.copy()
    bumped[1, 0] += 0.05
    control = Path(mesh=ubar.mesh, values=bumped)
    state, _ = simulate(instance("remark45").problem.system, control)
    sol = write_pair(tmp_path, state, control)
    out = tmp_path / "cert"
    rc = cli.main(["certify", spec_path, "--solution", sol,
                   "--out-dir", str(out)])
    assert rc == 5
    assert "certification FAILED" in capsys.readouterr().out
    report = read_json(str(out / "report.json"))
    assert report["passed"] is False
    assert report["stationarity"]["passed"] is True
    assert report["max_condition"]["passed"] is False


def test_certify_constraint_gradients_scale_linearly_in_k(tmp_path,
                                                         monkeypatch):
    # Every measure tail of a certify run comes from one pass over the
    # cells, so constraint gradients are evaluated O(k) times in total; a
    # per-point tail loop would make this O(k^2).
    k = 200
    calls = [0]
    build_field = sweepctl.spec._build_field

    def counting_field(*args):
        field = build_field(*args)

        def dpsi_dx(x, u):
            calls[0] += 1
            return field.dpsi_dx(x, u)
        return dataclasses.replace(field, dpsi_dx=dpsi_dx)

    spec_path = export_spec(tmp_path, "elastoplastic61", k)
    sol = write_pair(tmp_path, *solution_on_mesh("elastoplastic61", k))
    monkeypatch.setattr("sweepctl.spec._build_field", counting_field)
    rc = cli.main(["certify", spec_path, "--solution", sol,
                   "--out-dir", str(tmp_path / "cert")])
    assert rc == 0
    assert 0 < calls[0] <= 20 * k


@pytest.mark.parametrize("instance_id", ["remark45", "counterexample53",
                                         "elastoplastic61"])
def test_certify_evaluates_the_field_once_per_node_and_report(
        tmp_path, monkeypatch, instance_id):
    # Each public certify function builds one table of the field along the
    # pair and reads every node value from it: the assembler (recovering
    # eta first), the stationarity report, and for the orthant targets the
    # maximum-condition and sufficiency reports.  Only an atom off the table
    # costs one more evaluation per tail.
    k = 200
    calls = dict.fromkeys(["psi", "dpsi_dx", "dpsi_du", "hess_xx", "hess_ux"], 0)
    build_field = sweepctl.spec._build_field

    def counting_field(*args):
        field = build_field(*args)

        def counted(name):
            fn = getattr(field, name)

            def wrapper(*a):
                calls[name] += 1
                return fn(*a)
            return wrapper
        return dataclasses.replace(field, **{name: counted(name) for name in calls})

    spec_path = export_spec(tmp_path, instance_id, k)
    sol = write_pair(tmp_path, *solution_on_mesh(instance_id, k))
    monkeypatch.setattr("sweepctl.spec._build_field", counting_field)
    rc = cli.main(["certify", spec_path, "--solution", sol,
                   "--out-dir", str(tmp_path / "cert")])
    assert rc == 0
    reports = 3 if instance_id == "elastoplastic61" else 5
    for name in ("psi", "dpsi_dx", "dpsi_du"):
        assert 0 < calls[name] <= reports * (k + 1) + 10, (name, calls)
    for name in ("hess_xx", "hess_ux"):
        assert 0 < calls[name] <= 2 * k + 10, (name, calls)


def test_certify_inconsistent_pair_names_the_cell(tmp_path):
    spec_path = export_spec(tmp_path, "remark45", 8)
    xbar, ubar = solution_on_mesh("remark45", 8)
    sol = write_pair(tmp_path, xbar, Path(mesh=ubar.mesh, values=ubar.values - 1.0))
    out = tmp_path / "cert"
    assert cli.main(["certify", spec_path, "--solution", sol,
                     "--out-dir", str(out)]) == 5
    message = read_json(str(out / "error.json"))["message"]
    assert message.startswith("cell ") and "(t = " in message


def _with_nan_cell(path, line, column):
    """Rewrite one cell of a CSV file (1-based line, 0-based column) as nan."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[line - 1].split(",")
    cells[column] = "nan"
    lines[line - 1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_certify_rejects_a_nan_csv_cell(tmp_path):
    spec_path = export_spec(tmp_path, "elastoplastic61", 8)
    sol = write_pair(tmp_path, *solution_on_mesh("elastoplastic61", 8))
    _with_nan_cell(os.path.join(sol, "x.csv"), 5, 1)
    out = tmp_path / "cert"
    rc = cli.main(["certify", spec_path, "--solution", sol,
                   "--out-dir", str(out)])
    assert rc == 2
    error = read_json(str(out / "error.json"))
    assert error["error"] == "SpecError"
    assert "x.csv:5: column x_1 is nan, not finite" in error["message"]


def test_simulate_rejects_a_nan_csv_cell(tmp_path):
    spec_path = export_spec(tmp_path, "remark45", 8)
    control_csv = str(tmp_path / "control.csv")
    cli._write_csv(control_csv, ["t", "u_1"],
                   np.column_stack([np.linspace(0.0, 2.0, 9), np.full(9, -2.0)]))
    _with_nan_cell(control_csv, 3, 1)
    out = tmp_path / "sim"
    rc = cli.main(["simulate", spec_path, "--control", control_csv,
                   "--out-dir", str(out)])
    assert rc == 2
    error = read_json(str(out / "error.json"))
    assert error["error"] == "SpecError"
    assert "control.csv:3: column u_1 is nan, not finite" in error["message"]


@pytest.mark.parametrize("where, value, entry", [
    (("moving_set", "psi", "Ax", 0, 0), float("nan"), "psi.Ax"),
    (("cost", "phi", "weight"), float("nan"), "phi.weight"),
    (("cost", "ell", "weight"), float("inf"), "ell.weight"),
    (("horizon",), float("inf"), "spec.horizon"),
])
def test_spec_with_a_non_finite_entry_is_rejected(tmp_path, where, value, entry):
    spec_path = export_spec(tmp_path, "remark45", 8)
    spec = read_json(spec_path)
    parent = spec
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)  # writes the non-standard NaN / Infinity tokens
    sol = write_pair(tmp_path, *solution_on_mesh("remark45", 8))
    out = tmp_path / "cert"
    rc = cli.main(["certify", spec_path, "--solution", sol,
                   "--out-dir", str(out)])
    assert rc == 2
    error = read_json(str(out / "error.json"))
    assert error["error"] == "SpecError"
    assert entry in error["message"]


@pytest.mark.parametrize("side, value", [("lower", "inf"), ("upper", "-inf")])
def test_a_box_side_at_the_wrong_infinity_exits_2(tmp_path, side, value):
    """Such a side has no halfspace row but contains no point, so simulate
    and solve used to exit 3 on an infeasible initial state."""
    spec_path = export_spec(tmp_path, "nonconvex22", 4)
    spec = read_json(spec_path)
    spec["moving_set"]["theta"][side] = [value]
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    control_csv = str(tmp_path / "control.csv")
    cli._write_csv(control_csv, ["t", "u_1"],
                   np.column_stack([np.linspace(0.0, 1.0, 5), np.zeros(5)]))
    for argv in (["simulate", spec_path, "--control", control_csv],
                 ["solve", spec_path]):
        out = tmp_path / argv[0]
        assert cli.main(argv + ["--out-dir", str(out)]) == 2
        error = read_json(str(out / "error.json"))
        assert error["error"] == "ConfigurationError"
        assert "is empty or has a NaN end" in error["message"]


@pytest.mark.parametrize("cost, message", [
    ({"epsilon": -1}, "cost.epsilon"),
    ({"epsilon": 0}, "cost.epsilon"),
    ({"rho": -1}, "rho must be finite and nonnegative"),
    ({"epsilon": None}, "cost.epsilon"),
])
def test_a_nonpositive_radius_or_negative_rho_exits_2(tmp_path, cost, message):
    """A negative epsilon used to build a problem that every solve ignored.
    No solver imposes a localization tube, so a spec may set no radius, not
    even the null that stood for no tube."""
    spec_path = export_spec(tmp_path, "remark45", 8)
    spec = read_json(spec_path)
    spec["cost"].update(cost)
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    out = tmp_path / "run"
    assert cli.main(["solve", spec_path, "--out-dir", str(out)]) == 2
    error = read_json(str(out / "error.json"))
    assert error["error"] == ("SpecError" if "epsilon" in cost else "ConfigurationError")
    assert message in error["message"]


def _number_leaves(node, path=()):
    """The paths to the JSON numbers in node (booleans are no numbers)."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _number_leaves(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _number_leaves(child, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def _replaced(data, path, value):
    data = json.loads(json.dumps(data))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return data


def _entry_name(path):
    """The name an error message gives the entry at path: its last two
    keys, as in psi.Ax or reference.x.times; gamma atoms are 'gamma atom
    times' and 'gamma atom weights'."""
    keys = [key for key in path if isinstance(key, str)]
    if keys[-1] == "atoms":
        return "gamma atom " + ("times" if len(path) == 5 else "weights")
    return ".".join(keys[-2:])


def _documented(path, value):
    """Whether value is a documented stand-in for the number at path: null
    on a box side (unbounded)."""
    return value is None and path[1:3] in (("theta", "lower"), ("theta", "upper"))


def _expect_rejected(argv, error_path, path, value):
    assert cli.main(argv) == 2, (path, value)
    error = read_json(error_path)
    assert error["error"] == "SpecError", (path, value, error)
    assert _entry_name(path) in error["message"], (path, value, error)


@pytest.mark.parametrize("instance_id", ["remark45", "counterexample53",
                                         "elastoplastic61", "nonconvex22"])
def test_every_number_in_a_spec_rejects_a_non_number(tmp_path, instance_id):
    """Each number of the exported spec, replaced in turn by true, "1" or
    null, is a SpecError that names the entry."""
    spec = read_json(export_spec(tmp_path, instance_id, 8))
    spec_path = str(tmp_path / "bad.json")
    out = tmp_path / "out"
    leaves = list(_number_leaves(spec))
    assert len(leaves) >= 15
    for path in leaves:
        for value in (True, "1", None):
            if _documented(path, value):
                continue
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(_replaced(spec, path, value), fh)
            if path[0] == "reference":  # only converge reads the reference
                argv = ["converge", spec_path, "--out", str(out / "t.csv")]
            else:
                argv = ["solve", spec_path, "--out-dir", str(out)]
            _expect_rejected(argv, str(out / "error.json"), path, value)


def test_every_number_in_a_certificate_rejects_a_non_number(tmp_path):
    spec_path = export_spec(tmp_path, "elastoplastic61", 8)
    sol = write_pair(tmp_path, *solution_on_mesh("elastoplastic61", 8))
    cert_path = str(tmp_path / "cert.json")
    write_certificate(cert_path, certificate_on_mesh("elastoplastic61", 8))
    cert = read_json(cert_path)
    out = tmp_path / "out"
    leaves = list(_number_leaves(cert, ("certificate",)))
    assert {path[1] for path in leaves} == {"lam", "p", "eta", "gamma"}
    for path in leaves:
        for value in (True, "1", None):
            with open(cert_path, "w", encoding="utf-8") as fh:
                json.dump(_replaced(cert, path[1:], value), fh)
            _expect_rejected(["certify", spec_path, "--solution", sol,
                              "--certificate", cert_path, "--out-dir", str(out)],
                             str(out / "error.json"), path, value)


def test_certify_inconsistent_pair_exits_5_without_report(tmp_path):
    # control detached from the boundary while the state keeps its kink, so
    # no multiplier can explain the step and assembly itself gives up
    spec_path = export_spec(tmp_path, "remark45", 8)
    xbar, ubar = solution_on_mesh("remark45", 8)
    control = Path(mesh=ubar.mesh, values=ubar.values - 1.0)
    sol = write_pair(tmp_path, xbar, control)
    out = tmp_path / "cert"
    rc = cli.main(["certify", spec_path, "--solution", sol,
                   "--out-dir", str(out)])
    assert rc == 5
    assert not os.path.exists(str(out / "report.json"))
    assert read_json(str(out / "error.json"))["error"] == "NotInConeError"


def test_certify_rejects_mesh_mismatch(tmp_path):
    spec_path = export_spec(tmp_path, "remark45", 8)
    xbar, ubar = solution_on_mesh("remark45", 8)
    x4, u4 = solution_on_mesh("remark45", 4)
    sol = tmp_path / "mixed"
    sol.mkdir()
    cli._write_csv(str(sol / "x.csv"), ["t", "x_1"],
                   np.column_stack([xbar.mesh.nodes, xbar.values]))
    cli._write_csv(str(sol / "u.csv"), ["t", "u_1"],
                   np.column_stack([u4.mesh.nodes, u4.values]))
    rc = cli.main(["certify", spec_path, "--solution", str(sol),
                   "--out-dir", str(tmp_path / "cert")])
    assert rc == 2


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def test_converge_writes_decreasing_error_table(tmp_path, capsys):
    spec_path = export_spec(tmp_path, "remark45", 8)
    out_csv = str(tmp_path / "table.csv")
    # meshes that do not resolve the contact kink exactly, so the state
    # error column carries a real discretization error that shrinks
    rc = cli.main(["converge", spec_path, "--ks", "25,50,100",
                   "--out", out_csv])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "state error decreasing: yes" in stdout
    assert f"wrote {out_csv}" in stdout
    header, rows = cli._read_csv(out_csv)
    assert header == ["k", "w12_x", "sup_u", "cost_gap"]
    assert list(rows[:, 0]) == [25.0, 50.0, 100.0]
    assert rows[0, 1] > rows[1, 1] > rows[2, 1]


def test_converge_needs_a_reference(tmp_path):
    spec_path = export_spec(tmp_path, "nonconvex22", 8)
    rc = cli.main(["converge", spec_path, "--ks", "8,16",
                   "--out", str(tmp_path / "t.csv")])
    assert rc == 2


def test_converge_validates_ks(tmp_path):
    spec_path = export_spec(tmp_path, "remark45", 8)
    out_csv = str(tmp_path / "t.csv")
    for ks in ("32,16", "0", "a,b"):
        rc = cli.main(["converge", spec_path, "--ks", ks, "--out", out_csv])
        assert rc == 2


@pytest.mark.parametrize("ks", ["1_0,2_0", "\u0664,\u0668", "+4,8", "4.0,8"],
                         ids=["underscore", "arabic-indic", "plus", "decimal-point"])
def test_converge_ks_are_ascii_digits(tmp_path, ks):
    """int() read the first three as 10,20 / 4,8 / 4,8."""
    spec_path = export_spec(tmp_path, "remark45", 8)
    out_csv = tmp_path / "t.csv"
    assert cli.main(["converge", spec_path, "--ks", ks, "--out", str(out_csv)]) == 2
    assert not out_csv.exists()
    error = read_json(str(tmp_path / "error.json"))
    assert error == {"error": "SpecError",
                     "message": "--ks must be a comma list of positive integers"}
    assert cli.main(["converge", spec_path, "--ks", " 4, 8 ", "--out", str(out_csv)]) == 0


@pytest.mark.parametrize("flag,text", [
    ("export --k", "1_0"), ("export --k", "\u0661\u0660"), ("solve --k", "1_0"),
    ("solve --tol", "1_0e-8"), ("solve --tol", "\uff11e-8"), ("certify --lam", "1_0"),
    ("solve --sigma-schedule", "1e-2,1_0e-9")],
    ids=["export-k-underscore", "export-k-arabic-indic", "solve-k-underscore",
         "tol-underscore", "tol-fullwidth", "lam-underscore", "sigma-underscore"])
def test_number_flags_are_ascii_decimal_text(tmp_path, capsys, flag, text):
    """int() and float() read Python literal syntax and Unicode digits:
    ``export --k 1_0`` wrote k = 10 and ``solve --tol 1_0e-8`` solved to
    1e-7.  A --k value is now ASCII digits with an optional sign, and the
    other flags follow the rule of a CSV cell; plain text of the same value
    passes."""
    spec_path = export_spec(tmp_path, "remark45", 8)
    command, name = flag.split()
    args = {"export": ["remark45"],
            "solve": [spec_path, "--out-dir", str(tmp_path / "out")],
            "certify": [spec_path, "--solution", str(tmp_path / "out"),
                        "--out-dir", str(tmp_path / "cert")]}[command]
    try:
        rc = cli.main([command, *args, name, text])
    except SystemExit as exit_:  # argparse rejects the text
        rc = exit_.code
    assert rc == 2
    if command == "export":
        capsys.readouterr()
        assert cli.main([command, *args, name, " 10 "]) == 0
        assert json.loads(capsys.readouterr().out)["solver"]["k"] == 10
    if name in ("--tol", "--lam"):
        assert cli._number_flag(" 1.0e-8 ") == 1e-8


# ---------------------------------------------------------------------------
# failure policy
# ---------------------------------------------------------------------------

ERRORS = {
    "SpecError": lambda: sweepctl.spec.SpecError("patched"),
    "ConfigurationError": lambda: ConfigurationError("patched"),
    "InfeasibleWarmStartError": lambda: InfeasibleWarmStartError("patched"),
    "SimulationError": lambda: SimulationError(0, "patched"),
    "NumericalFailureError": lambda: NumericalFailureError("patched"),
}

#: command -> (the library call it makes, its exit code for a GeometryError
#: other than ConfigurationError)
COMMANDS = {
    "simulate": ("simulate", 3),
    "solve": ("solve_smoothed", 4),
    "certify": ("assemble_certificate", 5),
    "converge": ("convergence_study", 3),
    "export-file": ("instance_spec", 2),
    "export-stdout": ("instance_spec", 2),
}


@pytest.mark.parametrize("error", list(ERRORS))
@pytest.mark.parametrize("command", list(COMMANDS))
def test_main_maps_every_failure_to_its_exit_code_and_error_json(
        tmp_path, monkeypatch, capsys, command, error):
    """The failure table: the exit code, and error.json in --out-dir, else
    next to --out, else nowhere; only a solver GeometryError other than a
    ConfigurationError leaves a nonconverged report.json."""
    spec_path = export_spec(tmp_path, "remark45", 8)
    sol = write_pair(tmp_path, *solution_on_mesh("remark45", 8))
    out = tmp_path / "out"
    argv = {
        "simulate": ["simulate", spec_path, "--control", os.path.join(sol, "u.csv"),
                     "--out-dir", str(out)],
        "solve": ["solve", spec_path, "--solver", "smoothed", "--out-dir", str(out)],
        "certify": ["certify", spec_path, "--solution", sol, "--out-dir", str(out)],
        "converge": ["converge", spec_path, "--ks", "4,8", "--out", str(out / "t.csv")],
        "export-file": ["export", "remark45", "--out", str(out / "spec.json")],
        "export-stdout": ["export", "remark45"],
    }[command]
    call, own_code = COMMANDS[command]

    def fail(*args, **kwargs):
        raise ERRORS[error]()

    monkeypatch.setattr(cli, call, fail)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    code = {"SimulationError": 3, "NumericalFailureError": own_code}.get(error, 2)
    assert cli.main(argv) == code
    assert f"error: {error}: " in capsys.readouterr().err
    written = sorted(tmp_path.rglob("error.json"))
    if command == "export-stdout":
        assert written == []
    else:
        assert written == [out / "error.json"]
        assert read_json(str(out / "error.json")) == {
            "error": error, "message": str(ERRORS[error]())}
    partial = command == "solve" and error == "NumericalFailureError"
    assert (out / "report.json").exists() == partial
    if partial:
        report = read_json(str(out / "report.json"))
        assert report["status"] == "nonconverged" and report["message"] == "patched"


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(20240823)
    scale = 10.0 ** rng.integers(-12, 13, size=(12, 3))
    values = rng.standard_normal((12, 3)) * scale
    first = str(tmp_path / "first.csv")
    cli._write_csv(first, ["a", "b", "c"], values)
    header, back = cli._read_csv(first)
    assert header == ["a", "b", "c"]
    assert np.array_equal(back, values)
    second = str(tmp_path / "second.csv")
    cli._write_csv(second, header, back)
    with open(first, "rb") as fh:
        first_bytes = fh.read()
    with open(second, "rb") as fh:
        second_bytes = fh.read()
    assert first_bytes == second_bytes


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------


def test_import_loads_no_scipy():
    # scipy is imported inside the functions that need it: a top-level
    # import would add about half a second to every command's start-up.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sweepctl.cli, sweepctl.ocp, sweepctl.certify, sweepctl.problems; "
            "import sys; assert 'scipy' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
