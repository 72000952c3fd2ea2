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

The spec is a JSON object with ``schema: 1`` and sections ``dims`` (n, m, s),
``horizon``, ``dynamics`` (kind ``zero`` or ``affine`` with A, b),
``moving_set`` (``psi``: ``affine`` with Ax, Au, c or ``quadratic_scalar``
with a, b, c meaning a x^2 + b u + c; ``theta``: ``orthant``, ``box`` with
null/"inf" entries for unbounded sides, or ``image`` with A, G, g),
``cost`` (``phi``: ``quadratic_distance``; ``ell``: ``control_tracking`` or
``control_energy``; optional ``rho``, ``epsilon``, ``anchor``), ``initial``
(x0, u0), ``mode`` ("w12w12" or "w12c"), optional ``solver`` defaults and an
optional ``reference`` pair used by ``converge``.

CSV files carry one header line and ``%.17g`` floats, so values survive a
write/read round trip bit for bit.  State and control files are node-indexed
(columns ``t, x_1..`` / ``t, u_1..``); step and eta files are cell-indexed by
the left node time, and eta columns hold the velocity multiplier of the
normal-cone inclusion (the projection increment divided by the step size).

Exit codes: 0 success, 2 spec or configuration problem, 3 simulation
failure, 4 solver nonconvergence (partial iterates are still written when
available), 5 certification failure.  Failures also leave an ``error.json``
next to the outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .geometry import (
    Box,
    ConfigurationError,
    FieldMap,
    GeometryError,
    LinearImagePolyhedron,
    NonpositiveOrthant,
)
from .dynamics import (
    AffineDrift,
    Mesh,
    Path,
    SimulationError,
    SweepingSystem,
    convergence_study,
    simulate,
)
from .ocp import (
    DiscreteDecision,
    InfeasibleWarmStartError,
    NumericalFailureError,
    OcpProblem,
    QuadraticStageCost,
    QuadraticTerminalCost,
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

Array = np.ndarray

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_SIMULATION = 3
EXIT_SOLVER = 4
EXIT_CERTIFY = 5


class SpecError(Exception):
    """The problem spec or an input file violates the documented schema."""


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
        try:
            row = [float(cell) for cell in cells]
        except ValueError:
            raise SpecError(f"{path}:{lineno}: non-numeric cell") from None
        for name, value in zip(header, row):
            if not math.isfinite(value):
                raise SpecError(f"{path}:{lineno}: column {name} is {value}, not finite")
        data.append(row)
    return header, np.asarray(data, dtype=float)


def _fail(out_dir: str | None, exc: Exception, code: int) -> int:
    """Print the failure, drop error.json next to the outputs, return code."""
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    if out_dir:
        try:
            os.makedirs(out_dir, exist_ok=True)
            _write_json(os.path.join(out_dir, "error.json"),
                        {"error": type(exc).__name__, "message": str(exc)})
        except OSError:
            pass
    return code


# ---------------------------------------------------------------------------
# Spec parsing
# ---------------------------------------------------------------------------


def _load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as e:
        raise SpecError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise SpecError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(spec, dict):
        raise SpecError("problem spec must be a JSON object")
    if spec.get("schema") != 1:
        raise SpecError("spec must declare schema: 1")
    return spec


def _section(spec: dict, key: str) -> dict:
    value = spec.get(key)
    if not isinstance(value, dict):
        raise SpecError(f"spec needs an object section {key!r}")
    return value


def _vector(obj: dict, key: str, length: int, where: str) -> Array:
    try:
        v = np.asarray(obj[key], dtype=float)
    except KeyError:
        raise SpecError(f"{where} is missing {key!r}") from None
    except (TypeError, ValueError):
        raise SpecError(f"{where}.{key} must be a numeric array") from None
    if v.shape != (length,):
        raise SpecError(f"{where}.{key} must have length {length}")
    return _finite(v, f"{where}.{key}")


def _matrix(obj: dict, key: str, rows: int, cols: int, where: str) -> Array:
    try:
        mat = np.asarray(obj[key], dtype=float)
    except KeyError:
        raise SpecError(f"{where} is missing {key!r}") from None
    except (TypeError, ValueError):
        raise SpecError(f"{where}.{key} must be a numeric matrix") from None
    if mat.shape != (rows, cols):
        raise SpecError(f"{where}.{key} must be {rows} x {cols}")
    return _finite(mat, f"{where}.{key}")


def _number(obj: dict, key: str, where: str, default=None) -> float:
    """A finite number entry; SpecError when it is missing, not a number,
    NaN or infinite."""
    try:
        value = float(obj.get(key, default))
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise SpecError(f"{where}.{key} must be a finite number")
    return value


def _finite(arr: Array, what: str) -> Array:
    """arr, unless an entry is NaN or infinite (JSON and numpy parse both)."""
    if not np.all(np.isfinite(arr)):
        raise SpecError(f"{what} must be finite, got {arr[~np.isfinite(arr)][0]}")
    return arr


def _dims(spec: dict) -> tuple[int, int, int]:
    d = _section(spec, "dims")
    out = []
    for key in ("n", "m", "s"):
        value = d.get(key)
        if not isinstance(value, int) or value < 1:
            raise SpecError(f"dims.{key} must be a positive integer")
        out.append(value)
    return tuple(out)


def _horizon(spec: dict) -> float:
    T = _number(spec, "horizon", "spec")
    if not T > 0:
        raise SpecError("'horizon' must be positive")
    return T


def _bound_entry(value, side: str) -> float:
    """Box bound entry: finite numbers pass through, null/'inf' mean unbounded."""
    if value is None:
        return -math.inf if side == "lower" else math.inf
    if isinstance(value, str):
        if value in ("inf", "+inf"):
            return math.inf
        if value == "-inf":
            return -math.inf
        raise SpecError(f"bad box bound {value!r}")
    try:
        bound = float(value)
    except (TypeError, ValueError):
        bound = math.nan
    if not math.isfinite(bound):
        raise SpecError(f"bad box bound {value!r}")
    return bound


def _build_field(spec: dict, n: int, m: int, s: int) -> FieldMap:
    psi = _section(_section(spec, "moving_set"), "psi")
    kind = psi.get("kind")
    if kind == "affine":
        Ax = _matrix(psi, "Ax", s, n, "psi")
        Au = _matrix(psi, "Au", s, m, "psi")
        c = _vector(psi, "c", s, "psi")
        return FieldMap.affine_fixed(Ax, Au, c)
    if kind == "quadratic_scalar":
        if (n, m, s) != (1, 1, 1):
            raise SpecError("quadratic_scalar psi needs n = m = s = 1")
        a, b, c = (_number(psi, key, "psi") for key in "abc")
        return FieldMap.nonlinear(
            n=1, m=1, s=1,
            psi=lambda x, u: np.array([a * x[0] ** 2 + b * u[0] + c]),
            dpsi_dx=lambda x, u: np.array([[2.0 * a * x[0]]]),
            dpsi_du=lambda x, u: np.array([[b]]),
            hess_xx=lambda x, u, p: np.array([[2.0 * a * p[0]]]),
            hess_ux=lambda x, u, p: np.array([[0.0]]),
        )
    raise SpecError(f"unknown psi kind {kind!r}")


def _build_theta(spec: dict, s: int):
    theta = _section(_section(spec, "moving_set"), "theta")
    kind = theta.get("kind")
    if kind == "orthant":
        if theta.get("s", s) != s:
            raise SpecError("theta.s disagrees with dims.s")
        return NonpositiveOrthant(s)
    if kind == "box":
        lower = theta.get("lower")
        upper = theta.get("upper")
        if not isinstance(lower, list) or not isinstance(upper, list) \
                or len(lower) != s or len(upper) != s:
            raise SpecError(f"box theta needs 'lower' and 'upper' lists of length {s}")
        return Box(lower=tuple(_bound_entry(v, "lower") for v in lower),
                   upper=tuple(_bound_entry(v, "upper") for v in upper))
    if kind == "image":
        A = _matrix(theta, "A", s, s, "theta")
        G_raw = theta.get("G")
        if not isinstance(G_raw, list) or not G_raw:
            raise SpecError("image theta needs a nonempty matrix 'G'")
        r = len(G_raw)
        G = _matrix(theta, "G", r, s, "theta")
        g = _vector(theta, "g", r, "theta")
        return LinearImagePolyhedron(A=A, G=G, g=g)
    raise SpecError(f"unknown theta kind {kind!r}")


def _build_drift(spec: dict, n: int) -> AffineDrift:
    dyn = _section(spec, "dynamics")
    kind = dyn.get("kind")
    if kind == "zero":
        return AffineDrift.zero(n)
    if kind == "affine":
        return AffineDrift(_matrix(dyn, "A", n, n, "dynamics"),
                           _vector(dyn, "b", n, "dynamics"))
    raise SpecError(f"unknown dynamics kind {kind!r}")


def _build_phi(spec: dict, n: int) -> QuadraticTerminalCost:
    phi = _section(_section(spec, "cost"), "phi")
    if phi.get("kind") != "quadratic_distance":
        raise SpecError(f"unknown phi kind {phi.get('kind')!r}")
    return QuadraticTerminalCost(center=_vector(phi, "center", n, "phi"),
                                 weight=_number(phi, "weight", "phi", 1.0))


def _build_ell(spec: dict, m: int, uses_udot: bool) -> QuadraticStageCost:
    ell = _section(_section(spec, "cost"), "ell")
    kind = ell.get("kind")
    weight = _number(ell, "weight", "ell", 1.0)

    if kind == "control_energy":
        if not uses_udot:
            raise SpecError("control_energy needs mode w12w12 (it penalizes udot)")
        return QuadraticStageCost(energy=weight)

    if kind == "control_tracking":
        times = ell.get("times")
        if not isinstance(times, list):
            raise SpecError("control_tracking needs a list of breakpoint times")
        ref = (_vector(ell, "times", len(times), "ell"),
               _matrix(ell, "values", len(times), m, "ell"))
        return QuadraticStageCost(tracking=weight, ref=ref)

    raise SpecError(f"unknown ell kind {kind!r}")


def _path_from_obj(obj: dict, key: str, T: float, dim: int, what: str) -> Path:
    entry = obj.get(key)
    if not isinstance(entry, dict):
        raise SpecError(f"{what} needs an object {key!r} with times and values")
    times = entry.get("times")
    if not isinstance(times, list) or len(times) < 2:
        raise SpecError(f"{what}.{key}.times must list at least two node times")
    tarr = _vector(entry, "times", len(times), f"{what}.{key}")
    values = _matrix(entry, "values", len(times), dim, f"{what}.{key}")
    return _uniform_path(tarr, values, T, f"{what}.{key}")


def _uniform_path(times: Array, values: Array, T: float, what: str) -> Path:
    """Validate a uniform node grid on [0, T] and wrap the values."""
    k = len(times) - 1
    expected = np.linspace(0.0, T, k + 1)
    if np.max(np.abs(times - expected)) > 1e-9 * max(1.0, T):
        raise SpecError(f"{what} must be sampled on the uniform grid over [0, {T:g}]")
    return Path(mesh=Mesh(k=k, T=T), values=values)


def _mode_name(label: str) -> str:
    table = {"w12w12": "W12xW12", "w12c": "W12xC"}
    if label not in table:
        raise SpecError("mode must be 'w12w12' or 'w12c'")
    return table[label]


def build_system(spec: dict) -> SweepingSystem:
    """Sweeping system from a problem spec (cost sections are ignored)."""
    n, m, s = _dims(spec)
    T = _horizon(spec)
    field = _build_field(spec, n, m, s)
    theta = _build_theta(spec, s)
    initial = _section(spec, "initial")
    x0 = _vector(initial, "x0", n, "initial")
    return SweepingSystem(f=_build_drift(spec, n), field=field, theta=theta,
                          x0=x0, T=T)


def build_problem(spec: dict, mode_override: str | None = None) -> OcpProblem:
    """Optimal control problem from a problem spec."""
    n, m, s = _dims(spec)
    system = build_system(spec)
    mode = _mode_name(mode_override or spec.get("mode", ""))
    uses_udot = mode == "W12xW12"
    phi = _build_phi(spec, n)
    ell = _build_ell(spec, m, uses_udot)
    initial = _section(spec, "initial")
    u0 = _vector(initial, "u0", m, "initial")

    cost = _section(spec, "cost")
    rho = _number(cost, "rho", "cost", 0.0)
    epsilon = (math.inf if cost.get("epsilon", "inf") in ("inf", None)
               else _number(cost, "epsilon", "cost"))
    anchor = None
    if "anchor" in cost:
        anchor_obj = cost["anchor"]
        if not isinstance(anchor_obj, dict):
            raise SpecError("cost.anchor must be an object with x and u entries")
        anchor = (_path_from_obj(anchor_obj, "x", system.T, n, "anchor"),
                  _path_from_obj(anchor_obj, "u", system.T, m, "anchor"))

    return OcpProblem(system=system, phi=phi, ell=ell, mode=mode, u0=u0,
                      anchor=anchor, rho=rho, epsilon=epsilon)


def _reference_pair(spec: dict, problem: OcpProblem) -> tuple[Path, Path]:
    ref = spec.get("reference")
    if not isinstance(ref, dict):
        raise SpecError("spec has no reference section (converge needs one)")
    n = problem.system.field.n
    m = problem.system.field.m
    return (_path_from_obj(ref, "x", problem.system.T, n, "reference"),
            _path_from_obj(ref, "u", problem.system.T, m, "reference"))


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


def _cert_array(data: dict, key: str, rows: int, cols: int, optional=False):
    if key not in data or data[key] is None:
        if optional:
            return None
        raise SpecError(f"certificate is missing {key!r}")
    try:
        arr = np.asarray(data[key], dtype=float)
    except (TypeError, ValueError):
        raise SpecError(f"certificate entry {key!r} must be numeric") from None
    if arr.shape != (rows, cols):
        raise SpecError(f"certificate entry {key!r} must be {rows} x {cols}")
    return _finite(arr, f"certificate entry {key!r}")


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
    field = problem.system.effective_field()
    n, m, s = field.n, field.m, field.s
    lam = _number(data, "lam", "certificate", 1.0)

    p = _cert_array(data, "p", k + 1, n + m)
    q = _cert_array(data, "q", k + 1, n + m, optional=True)
    eta_vals = _cert_array(data, "eta", k + 1, s, optional=True)
    if eta_vals is None:
        from .certify import recover_eta
        eta = recover_eta(problem.system, state, control)
    else:
        eta = Path(mesh=mesh, values=eta_vals)

    gamma_obj = data.get("gamma") or {}
    if not isinstance(gamma_obj, dict):
        raise SpecError("certificate entry 'gamma' must be an object")
    density = _cert_array(gamma_obj, "density", k, s, optional=True)
    if density is None:
        density = np.zeros((k, s))
    atoms = []
    for atom in gamma_obj.get("atoms", []):
        try:
            t_atom, w_atom = atom
            atoms.append((float(t_atom), np.asarray(w_atom, dtype=float)))
        except (TypeError, ValueError):
            raise SpecError("gamma atoms must be [time, weights] pairs") from None
    gamma = VectorMeasure(mesh=mesh, density=density, atoms=tuple(atoms))

    nu_vals = _cert_array(data, "nu", k + 1, s, optional=True)
    nu = Path(mesh=mesh, values=nu_vals if nu_vals is not None
              else np.zeros((k + 1, s)))

    sg_obj = data.get("subgrad")
    if sg_obj is None:
        subgrad = _running_subgradients(problem, state, control)
    else:
        if not isinstance(sg_obj, dict):
            raise SpecError("certificate entry 'subgrad' must be an object")
        v_u = _cert_array(sg_obj, "v_u", k, m, optional=True)
        subgrad = SubgradientSelection(
            w_x=_cert_array(sg_obj, "w_x", k, n),
            w_u=_cert_array(sg_obj, "w_u", k, m),
            v_x=_cert_array(sg_obj, "v_x", k, n),
            v_u=v_u)

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
    try:
        spec = _load_spec(args.spec)
        system = build_system(spec)
        control = _read_path(args.control, "u", system.field.m, system.T)
    except (SpecError, ConfigurationError) as e:
        return _fail(out, e, EXIT_SPEC)
    try:
        state, records = simulate(system, control)
    except (SimulationError, GeometryError) as e:
        return _fail(out, e, EXIT_SIMULATION)

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
    if raw is None:
        return None
    if isinstance(raw, str):
        parts = [piece for piece in raw.split(",") if piece.strip()]
    elif isinstance(raw, list):
        parts = raw
    else:
        raise SpecError("sigma schedule must be a comma list or a JSON array")
    try:
        sched = [float(v) for v in parts]
    except (TypeError, ValueError):
        raise SpecError("sigma schedule entries must be numbers") from None
    if not sched:
        raise SpecError("sigma schedule must not be empty")
    return sched


def _cmd_solve(args) -> int:
    out = args.out_dir
    try:
        spec = _load_spec(args.spec)
        problem = build_problem(spec, mode_override=args.mode)
        solver_cfg = spec.get("solver", {})
        if not isinstance(solver_cfg, dict):
            raise SpecError("spec section 'solver' must be an object")
        k = args.k if args.k is not None else int(solver_cfg.get("k", 50))
        if k < 1:
            raise SpecError("k must be a positive integer")
        method = args.solver or solver_cfg.get("method", "smoothed")
        if method not in ("smoothed", "shooting"):
            raise SpecError("solver must be 'smoothed' or 'shooting'")
        schedule = _parse_schedule(
            args.sigma_schedule if args.sigma_schedule is not None
            else solver_cfg.get("sigma_schedule"))
    except (SpecError, ConfigurationError) as e:
        return _fail(out, e, EXIT_SPEC)

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
    except (InfeasibleWarmStartError, ConfigurationError) as e:
        return _fail(out, e, EXIT_SPEC)
    except SimulationError as e:
        return _fail(out, e, EXIT_SIMULATION)
    except GeometryError as e:
        partial = getattr(e, "partial", None)
        try:
            os.makedirs(out, exist_ok=True)
            if partial is not None:
                _write_solution(out, partial)
            _write_json(os.path.join(out, "report.json"),
                        {"status": "nonconverged", "solver": method, "k": k,
                         "mode": problem.mode, "message": str(e),
                         "partial_written": partial is not None})
        except OSError:
            pass
        return _fail(out, e, EXIT_SOLVER)

    os.makedirs(out, exist_ok=True)
    _write_solution(out, decision)
    counters = ({"simulations": report.simulations,
                 "line_search_trials": report.line_search_trials,
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
        return _fail(out, NumericalFailureError(
            f"shooting stopped by {report.stop_reason} after "
            f"{report.iterations} iterations with squared gradient norm "
            f"{report.stat_residual ** 2:.3g} above tol {tol:.3g}"), EXIT_SOLVER)
    print(f"solved ({method}, k={k}): cost {report.cost:.8g}, "
          f"stationarity {report.stat_residual:.3g}, "
          f"complementarity {report.comp_residual:.3g}, "
          f"{report.iterations} iterations")
    return EXIT_OK


def _cmd_certify(args) -> int:
    out = args.out_dir
    try:
        spec = _load_spec(args.spec)
        problem = build_problem(spec)
        field = problem.system.field
        T = problem.system.T
        state = _read_path(os.path.join(args.solution, "x.csv"), "x",
                           field.n, T)
        control = _read_path(os.path.join(args.solution, "u.csv"), "u",
                             field.m, T)
        if state.mesh != control.mesh:
            raise SpecError("x.csv and u.csv live on different meshes")
        cert_data = None
        if args.certificate is not None:
            try:
                with open(args.certificate, "r", encoding="utf-8") as fh:
                    cert_data = json.load(fh)
            except OSError as e:
                raise SpecError(f"cannot read {args.certificate}: {e}") from None
            except json.JSONDecodeError as e:
                raise SpecError(f"{args.certificate} is not valid JSON: {e}") from None
    except (SpecError, ConfigurationError) as e:
        return _fail(out, e, EXIT_SPEC)

    theta = problem.system.theta
    try:
        if cert_data is None:
            cert = assemble_certificate(problem, state, control, lam=args.lam)
            assembled = True
        else:
            cert = parse_certificate(cert_data, problem, state, control)
            assembled = False
        stationarity = residual_continuous_EL(problem, state, control, cert)
        max_condition = None
        if isinstance(theta, NonpositiveOrthant):
            max_condition = max_condition_check(problem, state, control, cert)
        sufficiency = None
        if isinstance(theta, (NonpositiveOrthant, Box)):
            sufficiency = conventional_sufficiency_check(problem, state,
                                                         control, cert)
    except SpecError as e:
        return _fail(out, e, EXIT_SPEC)
    except ConfigurationError as e:
        return _fail(out, e, EXIT_SPEC)
    except GeometryError as e:
        # The pair itself is inconsistent with the sweeping dynamics (for
        # example no multiplier explains a step), so there is nothing to
        # certify: that is a failed certification, not a bad spec.
        return _fail(out, e, EXIT_CERTIFY)

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
    out_dir = os.path.dirname(os.path.abspath(args.out))
    try:
        spec = _load_spec(args.spec)
        problem = build_problem(spec)
        ref_x, ref_u = _reference_pair(spec, problem)
        try:
            ks = [int(v) for v in args.ks.split(",") if v.strip()]
        except ValueError:
            raise SpecError("--ks must be a comma list of integers") from None
        if not ks or any(k < 1 for k in ks):
            raise SpecError("--ks must list positive integers")
        if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
            raise SpecError("--ks must be strictly increasing")
    except (SpecError, ConfigurationError) as e:
        return _fail(out_dir, e, EXIT_SPEC)

    system = problem.system

    def control_family(k: int) -> Path:
        mesh = Mesh(k=k, T=system.T)
        return Path(mesh=mesh, values=ref_u.at(mesh.nodes))

    try:
        table = convergence_study(system, control_family, (ref_x, ref_u), ks)
    except (SimulationError, GeometryError) as e:
        return _fail(out_dir, e, EXIT_SIMULATION)

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
    try:
        spec = instance_spec(args.instance, k=args.k)
    except ConfigurationError as e:
        return _fail(None, e, EXIT_SPEC)
    text = json.dumps(spec, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        out_dir = os.path.dirname(os.path.abspath(args.out))
        os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("solve", help="solve the discrete control problem")
    p.add_argument("spec", help="problem spec (JSON)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--k", type=int, default=None,
                   help="mesh intervals (default: solver.k from the spec, else 50)")
    p.add_argument("--mode", choices=("w12w12", "w12c"), default=None,
                   help="override the spec's cost mode")
    p.add_argument("--solver", choices=("smoothed", "shooting"), default=None)
    p.add_argument("--sigma-schedule", default=None,
                   help="comma-separated decreasing smoothing parameters")
    p.add_argument("--tol", type=float, default=None,
                   help="stationarity tolerance")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("certify",
                       help="stationarity residuals for a stored pair")
    p.add_argument("spec", help="problem spec (JSON)")
    p.add_argument("--solution", required=True,
                   help="directory holding x.csv and u.csv")
    p.add_argument("--certificate", default=None,
                   help="multiplier JSON (default: assemble by least squares)")
    p.add_argument("--lam", type=float, default=1.0,
                   help="cost multiplier for the assembled certificate")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("converge",
                       help="mesh-refinement errors against the spec reference")
    p.add_argument("spec", help="problem spec (JSON)")
    p.add_argument("--ks", default="25,50,100,200",
                   help="comma list of increasing mesh sizes")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("export", help="write a named instance as a spec file")
    p.add_argument("instance", choices=INSTANCE_IDS)
    p.add_argument("--k", type=int, default=50,
                   help="solver mesh size stored in the spec")
    p.add_argument("--out", default=None, help="path (default: stdout)")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
