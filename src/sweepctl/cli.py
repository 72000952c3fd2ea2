"""Command-line front end.

Five subcommands over JSON problem specs and CSV trajectory files:

``simulate``
    Catching-up integration of a control file against a spec.
``solve``
    Discrete optimal control by the smoothed KKT solver or by shooting.
``certify``
    Stationarity residuals for a stored pair, with multipliers either
    assembled by least squares or read from a certificate file.
``converge``
    Mesh-refinement error table against the reference pair in the spec.
``export``
    Write one of the named instances as a problem-spec file.

The spec format and its reader live in :mod:`sweepctl.spec`.  Certificate
files follow the same rule for numbers: every entry is a finite JSON number,
or nested lists of them in the declared shape, and an optional entry may be
absent or null.  A CSV cell is ASCII decimal text between blanks, checked
to be finite; a ``--tol`` or ``--lam`` value and a ``--sigma-schedule``
entry follow the same rule, a ``--k`` value is an ASCII decimal integer
(digits with an optional sign), and a ``--ks`` entry ASCII digits.

CSV files carry one header line and ``%.17g`` floats, so values survive a
write/read round trip bit for bit.  State and control files are node-indexed
(columns ``t, x_1..`` / ``t, u_1..``); step and eta files are cell-indexed by
the left node time, and eta columns hold the velocity multiplier of the
normal-cone inclusion (the projection increment divided by the step size).

Exit codes: 0 success, 5 a failed certification.  :func:`main` maps an error
raised by a command: ``SpecError``, ``ConfigurationError`` and
``InfeasibleWarmStartError`` exit 2, ``SimulationError`` 3, and any other
``GeometryError`` the command's own code (simulate 3, solve 4 with the
partial iterate written when available, certify 5, converge 3, export 2).
A failure leaves ``error.json`` (error class and message) in ``--out-dir``,
else next to ``--out`` (converge, export to a file), else nowhere.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .geometry import (
    Box,
    ConfigurationError,
    GeometryError,
    NonpositiveOrthant,
)
from .dynamics import (
    Mesh,
    Path,
    SimulationError,
    convergence_study,
    simulate,
)
from .ocp import (
    DiscreteDecision,
    InfeasibleWarmStartError,
    NumericalFailureError,
    OcpProblem,
    cost_eval,
    solve_shooting,
    solve_smoothed,
    transcribe,
)
from .certify import (
    Certificate,
    SubgradientSelection,
    VectorMeasure,
    _json_value,
    _running_subgradients,
    assemble_certificate,
    conventional_sufficiency_check,
    max_condition_check,
    residual_continuous_EL,
)
from .problems import INSTANCE_IDS, instance_spec
from .spec import (
    SpecError,
    _array,
    _is_number,
    _load_json,
    _load_spec,
    _number,
    _numbers,
    _positive_int,
    _reference_pair,
    _uniform_path,
    build_problem,
    build_system,
)

Array = np.ndarray

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_SIMULATION = 3
EXIT_SOLVER = 4
EXIT_CERTIFY = 5


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_json_value(payload), fh, indent=2)
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != len(header):
        raise ValueError("row width does not match the header")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


#: A data line: comma-separated cells, each ASCII decimal text between
#: blanks, or a word nan/inf that the finiteness check then names.
_CELL = (r"[ \t]*[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?"
         r"|nan|inf(?:inity)?)[ \t]*")
_ROW = re.compile(f"{_CELL}(?:,{_CELL})*", re.IGNORECASE | re.ASCII)
_NUMBER = re.compile(_CELL, re.IGNORECASE | re.ASCII)
_INTEGER = re.compile(r"[ \t]*[+-]?[0-9]+[ \t]*", re.ASCII)


def _integer_flag(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


def _number_flag(text: str) -> float:
    if not _NUMBER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an ASCII decimal number: {text!r}")
    return float(text)


def _read_csv(path: str) -> tuple[list[str], Array]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as e:
        raise SpecError(f"cannot read {path}: {e}") from None
    if len(lines) < 2:
        raise SpecError(f"{path} needs a header line and at least one row")
    header = [cell.strip() for cell in lines[0].split(",")]
    data = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise SpecError(f"{path}:{lineno}: expected {len(header)} "
                            f"columns, got {len(cells)}")
        if not _ROW.fullmatch(line):
            raise SpecError(f"{path}:{lineno}: non-numeric cell")
        row = [float(cell) for cell in cells]
        for name, value in zip(header, row):
            if not math.isfinite(value):
                raise SpecError(f"{path}:{lineno}: column {name} is {value}, not finite")
        data.append(row)
    return header, np.asarray(data, dtype=float)


def _fail(args, exc: Exception, code: int) -> int:
    """Print the failure, drop error.json in --out-dir, else beside --out,
    else nowhere, and return code."""
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    out_dir = (args.out_dir if "out_dir" in args else
               args.out and os.path.dirname(os.path.abspath(args.out)))
    if out_dir:
        with contextlib.suppress(OSError):
            os.makedirs(out_dir, exist_ok=True)
            _write_json(os.path.join(out_dir, "error.json"),
                        {"error": type(exc).__name__, "message": str(exc)})
    return code


# ---------------------------------------------------------------------------
# CSV trajectory I/O
# ---------------------------------------------------------------------------


def _node_header(prefix: str, dim: int) -> list[str]:
    return ["t"] + [f"{prefix}_{i + 1}" for i in range(dim)]


def _read_path(path: str, prefix: str, dim: int, T: float) -> Path:
    header, data = _read_csv(path)
    expected = _node_header(prefix, dim)
    if header != expected:
        raise SpecError(f"{path}: header must be {','.join(expected)}")
    return _uniform_path(data[:, 0], data[:, 1:], T, path)


def _write_solution(out_dir: str, decision: DiscreteDecision) -> None:
    nodes = decision.mesh.nodes
    _write_csv(os.path.join(out_dir, "x.csv"),
               _node_header("x", decision.x.shape[1]),
               np.column_stack([nodes, decision.x]))
    _write_csv(os.path.join(out_dir, "u.csv"),
               _node_header("u", decision.u.shape[1]),
               np.column_stack([nodes, decision.u]))
    _write_csv(os.path.join(out_dir, "eta.csv"),
               _node_header("eta", decision.eta.shape[1]),
               np.column_stack([nodes[:-1], decision.eta]))


# ---------------------------------------------------------------------------
# Certificate files
# ---------------------------------------------------------------------------


def parse_certificate(data: dict, problem: OcpProblem, state: Path,
                      control: Path) -> Certificate:
    """Certificate from its JSON form.

    Optional entries get neutral defaults: a zero ``nu`` selection, a zero
    measure, and subgradients recomputed from the pair.  ``eta`` defaults to
    the multipliers recovered from the trajectory.
    """
    if not isinstance(data, dict):
        raise SpecError("certificate file must be a JSON object")
    mesh = state.mesh
    k = mesh.k
    field = problem.system.field
    n, m, s = field.n, field.m, field.s
    lam = _number(data, "lam", "certificate", 1.0)

    p = _array(data, "p", (k + 1, n + m), "certificate")
    q = _array(data, "q", (k + 1, n + m), "certificate", optional=True)
    eta_vals = _array(data, "eta", (k + 1, s), "certificate", optional=True)
    if eta_vals is None:
        from .certify import recover_eta
        eta = recover_eta(problem.system, state, control)
    else:
        eta = Path(mesh=mesh, values=eta_vals)

    gamma_obj = {} if data.get("gamma") is None else data["gamma"]
    if not isinstance(gamma_obj, dict):
        raise SpecError("certificate entry 'gamma' must be an object")
    density = _array(gamma_obj, "density", (k, s), "gamma", optional=True)
    if density is None:
        density = np.zeros((k, s))
    atoms = gamma_obj.get("atoms", [])
    if not isinstance(atoms, list) or not all(
            isinstance(atom, list) and len(atom) == 2 for atom in atoms):
        raise SpecError("gamma atoms must be [time, weights] pairs")
    times = _numbers([t for t, _ in atoms], (len(atoms),), "gamma atom times")
    weights = _numbers([w for _, w in atoms], (len(atoms), s), "gamma atom weights")
    gamma = VectorMeasure(mesh=mesh, density=density,
                          atoms=tuple(zip(times.tolist(), weights)))

    nu_vals = _array(data, "nu", (k + 1, s), "certificate", optional=True)
    nu = Path(mesh=mesh, values=nu_vals if nu_vals is not None
              else np.zeros((k + 1, s)))

    sg_obj = data.get("subgrad")
    if sg_obj is None:
        subgrad = _running_subgradients(problem, state, control)
    else:
        if not isinstance(sg_obj, dict):
            raise SpecError("certificate entry 'subgrad' must be an object")
        subgrad = SubgradientSelection(
            w_x=_array(sg_obj, "w_x", (k, n), "subgrad"),
            w_u=_array(sg_obj, "w_u", (k, m), "subgrad"),
            v_x=_array(sg_obj, "v_x", (k, n), "subgrad"),
            v_u=_array(sg_obj, "v_u", (k, m), "subgrad", optional=True))

    if q is None:
        q = p - gamma.tail(field, state, control, mesh.nodes)
    try:
        return Certificate(lam=lam, p=Path(mesh=mesh, values=p), q=q, eta=eta,
                           gamma=gamma, subgrad=subgrad, nu=nu)
    except ConfigurationError as e:
        raise SpecError(str(e)) from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    out = args.out_dir
    system = build_system(_load_spec(args.spec))
    control = _read_path(args.control, "u", system.field.m, system.T)
    state, records = simulate(system, control)

    os.makedirs(out, exist_ok=True)
    mesh = control.mesh
    _write_csv(os.path.join(out, "state.csv"),
               _node_header("x", system.field.n),
               np.column_stack([mesh.nodes, state.values]))
    eta = np.array([r.eta for r in records]) / mesh.h
    _write_csv(os.path.join(out, "steps.csv"),
               _node_header("eta", system.field.s) + ["projection_residual",
                                                      "feasibility"],
               np.column_stack([mesh.nodes[:-1], eta,
                                [r.projection_residual for r in records],
                                [r.feasibility for r in records]]))
    print(f"simulated {mesh.k} steps; wrote state.csv and steps.csv to {out}")
    return EXIT_OK


def _parse_schedule(raw) -> list[float] | None:
    """The sigma schedule of --sigma-schedule (comma-separated text) or of
    the spec (a JSON array of numbers); the solver checks its values."""
    if raw is None:
        return None
    if isinstance(raw, str):
        pieces = [piece for piece in raw.split(",") if piece.strip()]
        if not all(map(_NUMBER.fullmatch, pieces)):
            raise SpecError("sigma schedule entries must be numbers")
        sched = [float(piece) for piece in pieces]
    elif isinstance(raw, list):
        if not all(map(_is_number, raw)):
            raise SpecError("sigma schedule entries must be numbers")
        sched = [float(v) for v in raw]
    else:
        raise SpecError("sigma schedule must be a comma list or a JSON array")
    if not sched:
        raise SpecError("sigma schedule must not be empty")
    return sched


def _cmd_solve(args) -> int:
    out = args.out_dir
    spec = _load_spec(args.spec)
    problem = build_problem(spec, mode_override=args.mode)
    solver_cfg = spec.get("solver", {})
    if not isinstance(solver_cfg, dict):
        raise SpecError("spec section 'solver' must be an object")
    k = (_positive_int(solver_cfg.get("k", 50), "solver.k") if args.k is None
         else _positive_int(args.k, "--k"))
    method = args.solver or solver_cfg.get("method", "smoothed")
    if method not in ("smoothed", "shooting"):
        raise SpecError("solver must be 'smoothed' or 'shooting'")
    schedule = _parse_schedule(
        args.sigma_schedule if args.sigma_schedule is not None
        else solver_cfg.get("sigma_schedule"))

    try:
        if method == "smoothed":
            transcription = transcribe(problem, k)
            decision, report = solve_smoothed(
                transcription, sigma_schedule=schedule,
                tol_stat=args.tol if args.tol is not None else 1e-9)
        else:
            tol = args.tol if args.tol is not None else 1e-12
            mesh = Mesh(k=k, T=problem.system.T)
            u0 = np.atleast_1d(np.asarray(problem.u0, dtype=float))
            warm = Path(mesh=mesh, values=np.tile(u0, (k + 1, 1)))
            decision, report = solve_shooting(problem, k, warm, tol=tol)
    except GeometryError as e:
        # A solver failure keeps its partial iterate; main maps the error.
        if not isinstance(e, ConfigurationError):
            partial = getattr(e, "partial", None)
            with contextlib.suppress(OSError):
                os.makedirs(out, exist_ok=True)
                if partial is not None:
                    _write_solution(out, partial)
                _write_json(os.path.join(out, "report.json"),
                            {"status": "nonconverged", "solver": method, "k": k,
                             "mode": problem.mode, "message": str(e),
                             "partial_written": partial is not None})
        raise

    os.makedirs(out, exist_ok=True)
    _write_solution(out, decision)
    counters = ({"simulations": report.simulations,
                 "line_search_trials": report.line_search_trials,
                 "forward_gradients": report.forward_gradients,
                 "stop_reason": report.stop_reason}
                if method == "shooting" else
                {"line_search_trials": report.line_search_trials})
    converged = method != "shooting" or report.stop_reason == "tolerance"
    _write_json(os.path.join(out, "report.json"),
                {"status": "converged" if converged else "nonconverged",
                 "solver": method, "k": k,
                 "mode": problem.mode, "cost": report.cost,
                 "comp_residual": report.comp_residual,
                 "stat_residual": report.stat_residual,
                 "iterations": report.iterations,
                 "sigma_trace": list(report.sigma_trace),
                 "cost_trace": list(report.cost_trace), **counters})
    if not converged:
        raise NumericalFailureError(
            f"shooting stopped by {report.stop_reason} after "
            f"{report.iterations} iterations with squared gradient norm "
            f"{report.stat_residual ** 2:.3g} above tol {tol:.3g}")
    print(f"solved ({method}, k={k}): cost {report.cost:.8g}, "
          f"stationarity {report.stat_residual:.3g}, "
          f"complementarity {report.comp_residual:.3g}, "
          f"{report.iterations} iterations")
    return EXIT_OK


def _cmd_certify(args) -> int:
    out = args.out_dir
    problem = build_problem(_load_spec(args.spec))
    field, T = problem.system.field, problem.system.T
    state = _read_path(os.path.join(args.solution, "x.csv"), "x", field.n, T)
    control = _read_path(os.path.join(args.solution, "u.csv"), "u", field.m, T)
    if state.mesh != control.mesh:
        raise SpecError("x.csv and u.csv live on different meshes")
    assembled = args.certificate is None
    if assembled:
        cert = assemble_certificate(problem, state, control, lam=args.lam)
    else:
        cert = parse_certificate(_load_json(args.certificate), problem, state,
                                 control)

    theta = problem.system.theta
    stationarity = residual_continuous_EL(problem, state, control, cert)
    max_condition = None
    if isinstance(theta, NonpositiveOrthant):
        max_condition = max_condition_check(problem, state, control, cert)
    sufficiency = None
    if isinstance(theta, (NonpositiveOrthant, Box)):
        sufficiency = conventional_sufficiency_check(problem, state, control, cert)

    passed = stationarity.passed and (max_condition is None
                                      or max_condition.passed)
    report = {
        "passed": passed,
        "stationarity": stationarity.as_dict(),
        "max_condition": None if max_condition is None
        else max_condition.as_dict(),
        "sufficiency": None if sufficiency is None else sufficiency.as_dict(),
        "certificate": {
            "lam": cert.lam,
            "assembled": assembled,
            "fit_residual": cert.fit_residual,
            "non_unique": cert.non_unique,
            "total_variation": cert.gamma.total_variation(),
        },
    }
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "report.json"), report)

    worst = max(item.residual for item in stationarity.items)
    print(f"stationarity: {'pass' if stationarity.passed else 'FAIL'} "
          f"(worst residual {worst:.3g})")
    if max_condition is not None:
        print(f"maximum condition: "
              f"{'pass' if max_condition.passed else 'FAIL'} "
              f"(modified Hamiltonian "
              f"{max_condition.details['modified_hamiltonian']:g})")
    if sufficiency is not None:
        checked = sufficiency.details["cells_checked"]
        skipped = sufficiency.details["cells_skipped"]
        print(f"sufficiency (advisory): "
              f"{'pass' if sufficiency.passed else 'FAIL'} "
              f"({checked} cells checked, {skipped} vacuous, "
              f"conventional Hamiltonian "
              f"{sufficiency.details['conventional_hamiltonian']:g})")
    print(f"certification {'PASSED' if passed else 'FAILED'}")
    return EXIT_OK if passed else EXIT_CERTIFY


def _cmd_converge(args) -> int:
    spec = _load_spec(args.spec)
    problem = build_problem(spec)
    ref_x, ref_u = _reference_pair(spec, problem)
    pieces = [v.strip() for v in args.ks.split(",") if v.strip()]
    if not pieces or not all(v.isascii() and v.isdigit() and int(v) > 0
                             for v in pieces):
        raise SpecError("--ks must be a comma list of positive integers")
    ks = [int(v) for v in pieces]
    if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
        raise SpecError("--ks must be strictly increasing")

    system = problem.system

    def control_family(k: int) -> Path:
        mesh = Mesh(k=k, T=system.T)
        return Path(mesh=mesh, values=ref_u.at(mesh.nodes))

    table = convergence_study(system, control_family, (ref_x, ref_u), ks)

    rows = []
    for row in table.rows:
        mesh, u = row.control.mesh, row.control.values
        eta = np.zeros((mesh.k, system.field.s))
        simulated = DiscreteDecision(mesh=mesh, x=row.state.values, u=u, eta=eta)
        reference = DiscreteDecision(mesh=mesh, x=ref_x.at(mesh.nodes), u=u, eta=eta)
        gap = cost_eval(problem, simulated) - cost_eval(problem, reference)
        rows.append([float(row.k), row.state_error_w12, row.control_error_sup, gap])

    _write_csv(args.out, ["k", "w12_x", "sup_u", "cost_gap"], rows)
    for row in rows:
        print(f"k={int(row[0]):>6d}  w12_x={row[1]:.6e}  "
              f"sup_u={row[2]:.6e}  cost_gap={row[3]:+.6e}")
    print(f"state error decreasing: {'yes' if table.monotone else 'no'}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_export(args) -> int:
    text = json.dumps(instance_spec(args.instance, k=args.k), indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it as it is)."""
    parser = argparse.ArgumentParser(
        prog="sweepctl",
        description="Simulate, solve, and certify controlled sweeping processes.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    p = sub.add_parser("simulate",
                       help="catching-up integration of a control file")
    p.add_argument("spec", help="problem spec (JSON)")
    p.add_argument("--control", required=True,
                   help="CSV with columns t,u_1..u_m on a uniform grid")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_simulate, geometry_exit=EXIT_SIMULATION)

    p = sub.add_parser("solve", help="solve the discrete control problem")
    p.add_argument("spec", help="problem spec (JSON)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k", type=_integer_flag, default=None,
                   help="mesh intervals (default: solver.k from the spec, else 50)")
    p.add_argument("--mode", choices=("w12w12", "w12c"), default=None,
                   help="override the spec's cost mode")
    p.add_argument("--solver", choices=("smoothed", "shooting"), default=None)
    p.add_argument("--sigma-schedule", default=None,
                   help="comma-separated decreasing smoothing parameters")
    p.add_argument("--tol", type=_number_flag, default=None,
                   help="stationarity tolerance")
    p.set_defaults(func=_cmd_solve, geometry_exit=EXIT_SOLVER)

    p = sub.add_parser("certify",
                       help="stationarity residuals for a stored pair")
    p.add_argument("spec", help="problem spec (JSON)")
    p.add_argument("--solution", required=True,
                   help="directory holding x.csv and u.csv")
    p.add_argument("--certificate", default=None,
                   help="multiplier JSON (default: assemble by least squares)")
    p.add_argument("--lam", type=_number_flag, default=1.0,
                   help="cost multiplier for the assembled certificate")
    p.add_argument("--out-dir", required=True)
    # A pair that no multiplier explains has nothing to certify: a failed
    # certification, not a bad spec.
    p.set_defaults(func=_cmd_certify, geometry_exit=EXIT_CERTIFY)

    p = sub.add_parser("converge",
                       help="mesh-refinement errors against the spec reference")
    p.add_argument("spec", help="problem spec (JSON)")
    p.add_argument("--ks", default="25,50,100,200",
                   help="comma list of increasing mesh sizes")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_converge, geometry_exit=EXIT_SIMULATION)

    p = sub.add_parser("export", help="write a named instance as a spec file")
    p.add_argument("instance", choices=INSTANCE_IDS)
    p.add_argument("--k", type=_integer_flag, default=50,
                   help="solver mesh size stored in the spec")
    p.add_argument("--out", default=None, help="path (default: stdout)")
    p.set_defaults(func=_cmd_export, geometry_exit=EXIT_SPEC)

    return parser


def main(argv=None) -> int:
    """Run one command and map its failure to an exit code and error.json
    (the table in the module docstring)."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, ConfigurationError, InfeasibleWarmStartError) as e:
        return _fail(args, e, EXIT_SPEC)
    except SimulationError as e:
        return _fail(args, e, EXIT_SIMULATION)
    except GeometryError as e:
        return _fail(args, e, args.geometry_exit)


if __name__ == "__main__":
    sys.exit(main())
