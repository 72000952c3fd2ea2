"""Where the traced run wraps sweepctl, and the per-layer metrics its spans give.

Each wrapper sits at the name the caller looks up: the benchmark's own ops
call ``sweepctl.dynamics.simulate``, ``sweepctl.ocp.*`` and
``sweepctl.cli.main``; inside the package the catching-up step looks up
``project_onto_moving_set`` in ``sweepctl.dynamics``, the solvers look up
``simulate``, ``transcribe`` and ``cost_eval`` in ``sweepctl.ocp``, the
certify command looks up the certify functions in ``sweepctl.cli``, and the
assembler looks up ``recover_eta`` in ``sweepctl.certify``.
"""

from __future__ import annotations

from sweepctl import certify, cli, dynamics, ocp, problems

import tracing

PROJECT = "sweepctl.dynamics.project_onto_moving_set"
SIMULATE = ("sweepctl.dynamics.simulate", "sweepctl.ocp.simulate")
SHOOTING = "sweepctl.ocp.solve_shooting"
SMOOTHED = "sweepctl.ocp.solve_smoothed"
TRANSCRIBE = "sweepctl.ocp.transcribe"
COST_EVAL = "sweepctl.ocp.cost_eval"
RECOVER_ETA = "sweepctl.certify.recover_eta"
TAIL = "VectorMeasure.tail"
CERTIFY_IN_CLI = {"assemble_certificate": "certify.assemble.s",
                  "residual_continuous_EL": "certify.continuous_el.s",
                  "max_condition_check": "certify.max_condition.s",
                  "conventional_sufficiency_check": "certify.sufficiency.s"}
MAIN = "sweepctl.cli.main"
PROBLEMS = ("instance", "elastoplastic_instance", "instance_spec",
            "solution_on_mesh", "certificate_on_mesh")

#: Per-layer metric name -> unit, in report order.
UNITS = {
    "geometry.project.calls": "count",
    "geometry.project.s": "s",
    "geometry.project.us_per_call": "us",
    "geometry.active_rows_mean": "rows",
    "dynamics.simulate.calls": "count",
    "dynamics.simulate.s": "s",
    "dynamics.steps": "count",
    "dynamics.us_per_step": "us",
    "dynamics.self_s": "s",
    "ocp.transcribe.s": "s",
    "ocp.solve_smoothed.s": "s",
    "ocp.smoothed.iterations": "count",
    "ocp.smoothed.s_per_iter": "s",
    "ocp.solve_shooting.s": "s",
    "ocp.shooting.iterations": "count",
    "ocp.shooting.simulate_calls": "count",
    "ocp.shooting.self_s": "s",
    "ocp.shooting.accept_ratio": "ratio",
    "ocp.cost_eval.calls": "count",
    "ocp.cost_eval.s": "s",
    "certify.assemble.s": "s",
    "certify.recover_eta.s": "s",
    "certify.continuous_el.s": "s",
    "certify.max_condition.s": "s",
    "certify.sufficiency.s": "s",
    "certify.tail.calls": "count",
    "certify.tail.s": "s",
    "certify.non_unique.count": "count",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.bytes_read": "bytes",
    "cli.bytes_written": "bytes",
    "problems.build.s": "s",
    "trace.overhead_ratio": "ratio",
}
#: Metrics that count work; they must repeat exactly from round to round.
COUNTS = tuple(name for name, unit in UNITS.items()
               if unit in ("count", "bytes"))


def _steps(args, kwargs, result):
    return {"steps": len(result[1])}


def _active(args, kwargs, result):
    return {"active": len(result[1].active_indices)}


def _smoothed(args, kwargs, result):
    return {"iterations": result[1].iterations}


def _shooting(args, kwargs, result):
    problem, k = args[0], args[1]
    report = result[1]
    return {"iterations": report.iterations,
            "accepted": len(report.cost_trace) - 1,
            "free": k * problem.system.field.m}


def _assembled(args, kwargs, result):
    return {"non_unique": bool(result.non_unique)}


def instrument(tracer: tracing.Tracer) -> None:
    tracer.install(dynamics, "project_onto_moving_set", PROJECT, _active)
    tracer.install(dynamics, "simulate", SIMULATE[0], _steps)
    tracer.install(ocp, "simulate", SIMULATE[1], _steps)
    tracer.install(ocp, "transcribe", TRANSCRIBE)
    tracer.install(ocp, "solve_smoothed", SMOOTHED, _smoothed)
    tracer.install(ocp, "solve_shooting", SHOOTING, _shooting)
    tracer.install(ocp, "cost_eval", COST_EVAL)
    tracer.install(certify, "recover_eta", RECOVER_ETA)
    tracer.install(certify.VectorMeasure, "tail", TAIL)
    for fn in CERTIFY_IN_CLI:
        tracer.install(cli, fn, "sweepctl.cli." + fn,
                       _assembled if fn == "assemble_certificate" else None)
    tracer.install(cli, "main", MAIN)
    for fn in PROBLEMS:
        tracer.install(problems, fn, "sweepctl.problems." + fn)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _shooting_calls(index: tracing.SpanIndex) -> tuple[int, int, int]:
    """(simulations, accepted steps, line-search trials) summed over the
    shooting solves.

    Every solve simulates once for its start, ``free`` times per gradient
    (one per iteration) and once for its result; the other simulations are
    line-search trials.
    """
    calls: dict[int, int] = {}
    for pos, span in enumerate(index.spans):
        if span[tracing.NAME] != SIMULATE[1]:
            continue
        p = span[tracing.PARENT] - index.first
        while p >= 0 and index.spans[p][tracing.NAME] != SHOOTING:
            p = index.spans[p][tracing.PARENT] - index.first
        if p >= 0:
            calls[p] = calls.get(p, 0) + 1
    accepted = trials = 0
    for pos, span in enumerate(index.spans):
        attrs = span[tracing.ATTRS]
        if span[tracing.NAME] != SHOOTING or attrs is None:
            continue
        accepted += attrs["accepted"]
        trials += calls.get(pos, 0) - 2 - attrs["iterations"] * attrs["free"]
    return sum(calls.values()), accepted, trials


def metrics(index: tracing.SpanIndex, infos: list[dict | None]) -> dict:
    """Per-layer metrics of one traced round (``problems.build.s`` and
    ``trace.overhead_ratio`` come from elsewhere)."""
    count, total, own = index.count, index.total, index.self_total
    proj_calls = count[PROJECT]
    sim_s = sum(total[n] for n in SIMULATE)
    steps = sum(a["steps"] for n in SIMULATE for a in index.attrs(n))
    smoothed_iters = sum(a["iterations"] for a in index.attrs(SMOOTHED))
    shooting_sims, accepted, trials = _shooting_calls(index)
    active = [a["active"] for a in index.attrs(PROJECT)]
    out = {
        "geometry.project.calls": proj_calls,
        "geometry.project.s": total[PROJECT],
        "geometry.project.us_per_call": 1e6 * _ratio(total[PROJECT], proj_calls),
        "geometry.active_rows_mean": _ratio(sum(active), len(active)),
        "dynamics.simulate.calls": sum(count[n] for n in SIMULATE),
        "dynamics.simulate.s": sim_s,
        "dynamics.steps": steps,
        "dynamics.us_per_step": 1e6 * _ratio(sim_s, steps),
        "dynamics.self_s": sum(own[n] for n in SIMULATE),
        "ocp.transcribe.s": total[TRANSCRIBE],
        "ocp.solve_smoothed.s": total[SMOOTHED],
        "ocp.smoothed.iterations": smoothed_iters,
        "ocp.smoothed.s_per_iter": _ratio(total[SMOOTHED], smoothed_iters),
        "ocp.solve_shooting.s": total[SHOOTING],
        "ocp.shooting.iterations": sum(a["iterations"]
                                       for a in index.attrs(SHOOTING)),
        "ocp.shooting.simulate_calls": shooting_sims,
        "ocp.shooting.self_s": own[SHOOTING],
        "ocp.shooting.accept_ratio": _ratio(accepted, trials),
        "ocp.cost_eval.calls": count[COST_EVAL],
        "ocp.cost_eval.s": total[COST_EVAL],
    }
    for fn, name in CERTIFY_IN_CLI.items():
        out[name] = total["sweepctl.cli." + fn]
    out["certify.recover_eta.s"] = total[RECOVER_ETA]
    out["certify.tail.calls"] = count[TAIL]
    out["certify.tail.s"] = total[TAIL]
    out["certify.non_unique.count"] = sum(
        a["non_unique"] for a in index.attrs("sweepctl.cli.assemble_certificate"))
    out["cli.main.s"] = total[MAIN]
    out["cli.self_s"] = own[MAIN]
    done = [info for info in infos if info is not None]
    out["cli.bytes_read"] = sum(info.get("bytes_read", 0) for info in done)
    out["cli.bytes_written"] = sum(info.get("bytes_written", 0) for info in done)
    return {name: out[name] for name in UNITS if name in out}


def problems_time(index: tracing.SpanIndex) -> float:
    names = {"sweepctl.problems." + fn for fn in PROBLEMS}
    return sum(s[tracing.END] - s[tracing.START] for s in index.outermost(names))
