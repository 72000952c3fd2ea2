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

from sweepctl import cli
from sweepctl.dynamics import Path, simulate
from sweepctl.ocp import NumericalFailureError
from sweepctl.problems import instance, solution_on_mesh


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


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


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


def test_default_q_is_built_from_the_state_mapped_field():
    # With a state map g every report reads the effective field; the q that
    # parse_certificate fills in must come from the same field, or a
    # consistent certificate fails q_gamma.
    from sweepctl.certify import residual_continuous_EL

    problem = instance("counterexample53").problem
    system = dataclasses.replace(problem.system,
                                 g=np.array([[2.0, 0.0], [1.0, 1.0]]))
    problem = dataclasses.replace(problem, system=system)
    state, control = solution_on_mesh("counterexample53", 8)
    field = system.effective_field()
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
    build_field = cli._build_field

    def counting_field(*args):
        field = build_field(*args)

        def dpsi_dx(x, u):
            calls[0] += 1
            return field.dpsi_dx(x, u)
        return dataclasses.replace(field, dpsi_dx=dpsi_dx)

    spec_path = export_spec(tmp_path, "elastoplastic61", k)
    sol = write_pair(tmp_path, *solution_on_mesh("elastoplastic61", k))
    monkeypatch.setattr(cli, "_build_field", counting_field)
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
    build_field = cli._build_field

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
    monkeypatch.setattr(cli, "_build_field", counting_field)
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
