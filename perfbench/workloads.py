"""The four benchmark workloads as fixed, seeded op lists.

:func:`build` is the benchmark's set-up: it builds the instances, controls,
spec files and CSV files of one workload and returns its ops.  Every op
carries its expected outcome; :meth:`Op.check` compares the op's result with
it and returns per-op figures (steps, cost gap, residual, iterations) for
the report.  Ops call into sweepctl through module attributes at run time,
so a tracer that replaces those attributes sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from sweepctl import cli, dynamics, ocp, problems
from sweepctl.dynamics import Mesh, Path, SweepingSystem
from sweepctl.geometry import FieldMap, NonpositiveOrthant

#: Acceptance bound on |cost - reference| for every solve.
COST_TOL = 1e-3
#: Reference optimal costs from the instance docs in sweepctl.problems.
COST_REF = {"remark45": 0.0, "elastoplastic61": 0.125}
#: Bounds on the catching-up step certificates of a simulated control.
PROJECTION_TOL = 1e-8
FEASIBILITY_TOL = 1e-8
INCLUSION_TOL = 1e-6


class CheckFailed(Exception):
    """An op finished but its output does not match the expected outcome."""


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _named_control(instance_id: str, mesh: Mesh, rng) -> Path:
    """A seeded control that drives the named instance's set into its state."""
    t = mesh.nodes
    T = mesh.T
    if instance_id == "remark45":
        # x <= -u with x0 = 1.5: raising u from -2 sweeps the state down.
        a, b = rng.uniform(0.7, 0.8), rng.uniform(0.08, 0.12)
        u = -2.0 + a * t + b * np.sin(6 * np.pi * t / T)
        return Path(mesh=mesh, values=u[:, None])
    if instance_id == "counterexample53":
        # x <= u componentwise from (1, 1): lowering u drags both coordinates.
        a, b = rng.uniform(0.9, 1.1, 2), rng.uniform(0.02, 0.04, 2)
        u = 1.0 - a * t[:, None] + b * np.sin(6 * np.pi * t[:, None] / T)
        return Path(mesh=mesh, values=u)
    if instance_id == "elastoplastic61":
        # x in [-1 - u, 1 - u]: an oscillation wider than the gap hits both faces.
        A = rng.uniform(1.2, 1.4)
        return Path(mesh=mesh, values=(A * np.sin(6 * np.pi * t / T))[:, None])
    if instance_id == "nonconvex22":
        # x^2 >= 1 - u: lowering u pushes the state outward along the curve.
        a, b = rng.uniform(0.9, 1.1), rng.uniform(0.05, 0.1)
        u = -a * t - b * np.sin(2 * np.pi * t / T) ** 2
        return Path(mesh=mesh, values=u[:, None])
    raise ValueError(instance_id)


def _polyhedral_case(n: int, s: int, mesh: Mesh, rng,
                     ) -> tuple[SweepingSystem, Path]:
    """Random moving polytope {x : U x <= b(t)} and a drift pushing out of it.

    Rows are unit vectors, offsets stay positive (the origin, where the state
    starts, is interior), and the drift -x/2 + 3d has its rest point 6d
    outside the first face, so the state rides the boundary and every step
    projects.
    """
    while True:
        U = rng.standard_normal((s, n))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        d = U[0] + U[1]
        if np.linalg.norm(d) > 1e-3:
            d /= np.linalg.norm(d)
            if U[0] @ d >= 0.5:
                break
    b0 = rng.uniform(0.5, 1.5, s)
    phase = rng.uniform(0.0, 2 * np.pi, s)
    t = mesh.nodes[:, None]
    b = b0 * (1.0 + 0.3 * np.sin(2 * np.pi * t / mesh.T + phase))
    control = np.hstack([np.tile(U.reshape(-1), (mesh.k + 1, 1)), b])
    push = 3.0 * d
    system = SweepingSystem(f=lambda _t, x: -0.5 * x + push,
                            field=FieldMap.polyhedral(n, s),
                            theta=NonpositiveOrthant(s), x0=np.zeros(n),
                            T=mesh.T)
    return system, Path(mesh=mesh, values=control)


def _simulate_op(name: str, system: SweepingSystem, control: Path) -> Op:
    def run():
        return dynamics.simulate(system, control)

    def check(result) -> dict:
        state, records = result
        if len(records) != control.mesh.k or not np.all(np.isfinite(state.values)):
            raise CheckFailed("incomplete or non-finite trajectory")
        proj = max(r.projection_residual for r in records)
        feas = max(r.feasibility for r in records)
        incl = float(np.max(dynamics.inclusion_residual(system, state, control)))
        if not proj <= PROJECTION_TOL:
            raise CheckFailed(f"projection residual {proj:.3g}")
        if not feas <= FEASIBILITY_TOL:
            raise CheckFailed(f"feasibility violation {feas:.3g}")
        if not incl <= INCLUSION_TOL:
            raise CheckFailed(f"inclusion residual {incl:.3g}")
        return {"steps": control.mesh.k, "residual": proj}

    return Op(name, run, check)


def _build_simulate(rng, tiny: bool, workdir: str) -> list[Op]:
    k_named = 40 if tiny else 1000
    k_poly = 12 if tiny else 150
    ops = []
    # Two seeded inputs per kind, so that one unlucky draw moves the total less.
    for rep in range(2):
        for iid in problems.INSTANCE_IDS:
            system = problems.instance(iid).problem.system
            mesh = Mesh(k=k_named, T=system.T)
            ops.append(_simulate_op(f"{iid}/k{k_named}/{rep}", system,
                                    _named_control(iid, mesh, rng)))
        for n in (2, 3):
            for s in (4, 8, 12):
                mesh = Mesh(k=k_poly, T=2.0)
                system, control = _polyhedral_case(n, s, mesh, rng)
                ops.append(_simulate_op(f"polyhedral-n{n}-s{s}/k{k_poly}/{rep}",
                                        system, control))
    return ops


# ---------------------------------------------------------------------------
# shoot and smoothed
# ---------------------------------------------------------------------------


def _check_solve(instance_id: str, report, monotone: bool) -> dict:
    gap = abs(report.cost - COST_REF[instance_id])
    if not gap <= COST_TOL:
        raise CheckFailed(f"cost {report.cost:.6g} misses the reference "
                          f"{COST_REF[instance_id]} by {gap:.3g}")
    trace = report.cost_trace
    if monotone and any(b > a for a, b in zip(trace, trace[1:])):
        raise CheckFailed("accepted shooting costs increased")
    return {"cost_gap": gap, "iterations": report.iterations}


def _shoot_op(instance_id: str, k: int, initial: Path, tol: float,
              max_iter: int, to_tolerance: bool) -> Op:
    problem = problems.instance(instance_id).problem

    def run():
        return ocp.solve_shooting(problem, k, initial, tol=tol,
                                  max_iter=max_iter)

    def check(result) -> dict:
        if to_tolerance and result[1].iterations >= max_iter:
            raise CheckFailed(f"no convergence in {max_iter} iterations")
        return _check_solve(instance_id, result[1], monotone=True)

    return Op(f"{instance_id}/k{k}", run, check)


def _build_shoot(rng, tiny: bool, workdir: str) -> list[Op]:
    ops = []
    # remark45 runs to tolerance from a noisy reference ramp.  The tolerance
    # on the squared gradient sits above the finite-difference noise floor:
    # at the default 1e-12 some starts creep on to the 500-iteration cap.
    for k in ((8,) if tiny else (16, 20)):
        mesh = Mesh(k=k, T=2.0)
        u = problems.solution_on_mesh("remark45", k)[1].values.copy()
        u[1:] += 0.2 * rng.standard_normal((k, 1))
        ops.append(_shoot_op("remark45", k, Path(mesh=mesh, values=u),
                             tol=1e-10, max_iter=500, to_tolerance=True))
    # elastoplastic61 from a noisy resting control: gradient descent on the
    # W12 control energy converges slowly, so the op is a fixed iteration
    # budget that must bring the cost within COST_TOL of 1/8.
    k = 8 if tiny else 20
    u = np.zeros((k + 1, 1))
    u[1:] = 0.03 * rng.standard_normal((k, 1))
    ops.append(_shoot_op("elastoplastic61", k,
                         Path(mesh=Mesh(k=k, T=1.0), values=u),
                         tol=1e-12, max_iter=40, to_tolerance=False))
    return ops


def _smoothed_op(instance_id: str, problem, k: int) -> Op:
    def run():
        return ocp.solve_smoothed(ocp.transcribe(problem, k))

    def check(result) -> dict:
        report = result[1]
        if not report.stat_residual <= 1e-9:
            raise CheckFailed(f"stationarity {report.stat_residual:.3g}")
        return _check_solve(instance_id, report, monotone=False)

    return Op(f"{instance_id}/k{k}", run, check)


def _build_smoothed(rng, tiny: bool, workdir: str) -> list[Op]:
    remark = problems.instance("remark45").problem
    elasto = problems.elastoplastic_instance(0.0).problem
    ops = [_smoothed_op("remark45", remark, k)
           for k in ((8,) if tiny else (25, 50))]
    ops += [_smoothed_op("elastoplastic61", elasto, k)
            for k in ((8,) if tiny else (40, 100))]
    # The inputs are the instances themselves; the seed only orders the ops.
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _write_csv(path: str, prefix: str, p: Path) -> None:
    header = ["t"] + [f"{prefix}_{i + 1}" for i in range(p.dim)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for t, row in zip(p.mesh.nodes, p.values):
            fh.write(",".join("%.17g" % v for v in (t, *row)) + "\n")


def _write_case(root: str, name: str, spec: dict, state: Path,
                control: Path) -> str:
    case = os.path.join(root, name)
    os.makedirs(case, exist_ok=True)
    with open(os.path.join(case, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    _write_csv(os.path.join(case, "x.csv"), "x", state)
    _write_csv(os.path.join(case, "u.csv"), "u", control)
    return case


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def _certify_op(name: str, case: str, expect: int) -> Op:
    spec = os.path.join(case, "spec.json")
    out = os.path.join(case, "out")
    argv = ["certify", spec, "--solution", case, "--out-dir", out]
    read = sum(os.path.getsize(os.path.join(case, f))
               for f in ("spec.json", "x.csv", "u.csv"))

    def run():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def check(code) -> dict:
        try:
            return _check_certify(code, expect, out, read)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return Op(name, run, check)


def _check_certify(code: int, expect: int, out: str, read: int) -> dict:
    if code != expect:
        raise CheckFailed(f"exit code {code}, expected {expect}")
    info = {"bytes_read": read, "bytes_written": _dir_bytes(out)}
    report_path = os.path.join(out, "report.json")
    if expect == 0:
        with open(report_path, encoding="utf-8") as fh:
            items = json.load(fh)["stationarity"]["items"].values()
        if not all(item["passed"] for item in items):
            raise CheckFailed("a stationarity item failed")
        info["residual"] = max(float(item["residual"]) for item in items)
    elif os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            if json.load(fh)["passed"]:
                raise CheckFailed("exit code 5 with a passing report")
    elif not os.path.exists(os.path.join(out, "error.json")):
        raise CheckFailed("exit code 5 without report.json or error.json")
    return info


def _build_certify(rng, tiny: bool, workdir: str) -> list[Op]:
    root = os.path.join(workdir, "certify")
    ops = []
    # remark45 references need k divisible by 4, so 52 stands in for 50.
    meshes = {"remark45": (8,) if tiny else (52, 100),
              "counterexample53": (8,) if tiny else (50, 100),
              "elastoplastic61": (8,) if tiny else (50, 100)}
    for iid, ks in meshes.items():
        for k in ks:
            spec = problems.instance_spec(iid, k=k)
            state, control = problems.solution_on_mesh(iid, k)
            case = _write_case(root, f"{iid}-k{k}", spec, state, control)
            ops.append(_certify_op(f"{iid}/k{k}/reference", case, 0))
    for iid, ks in meshes.items():
        # A simulated perturbed reference control is not stationary, and the
        # certifier reads the inclusion at the left node where the simulator
        # projects at the right one, so it must reject the pair (exit 5).
        k = ks[0]
        system = problems.instance(iid).problem.system
        _, control = problems.solution_on_mesh(iid, k)
        u = control.values.copy()
        u[1:] += 0.1 * rng.standard_normal(u[1:].shape)
        control = Path(mesh=control.mesh, values=u)
        state, _ = dynamics.simulate(system, control)
        case = _write_case(root, f"{iid}-k{k}-perturbed",
                           problems.instance_spec(iid, k=k), state, control)
        ops.append(_certify_op(f"{iid}/k{k}/perturbed", case, 5))
    return ops


_WORKLOADS = {"simulate": _build_simulate, "shoot": _build_shoot,
             "smoothed": _build_smoothed, "certify": _build_certify}


def build(workload: str, seed: int, tiny: bool, workdir: str) -> list[Op]:
    """Set up one workload: the same seed gives the same ops and inputs."""
    rng = np.random.default_rng([seed, list(_WORKLOADS).index(workload)])
    return _WORKLOADS[workload](rng, tiny, workdir)
