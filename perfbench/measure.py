"""Timed rounds over a workload's ops, the metrics derived from them, and
the report.

A round runs every op once, in order, in this process.  An op's latency is
the wall time of its ``run`` call alone; its output check runs afterwards,
untimed and untraced.  An op fails when ``run`` raises, when its check
fails, or when its iteration count differs from the first round's.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import time

import numpy as np
import scipy

import layers
import tracing
from workloads import CheckFailed, Op

# Name -> unit of every end-to-end metric on the final line (trace 0).
END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _median(values):
    return float(statistics.median(values)) if values else 0.0


class _Rounds:
    """Latencies, per-op figures and failures of every round run so far."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.latencies: list[list[float]] = []
        self.infos: list[list[dict | None]] = []
        self.failures: list[str] = []

    def run(self, tracer: tracing.Tracer | None = None, op_base: int = 0) -> None:
        lats, infos = [], []
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.enabled = True
                span = tracer.open("op:" + op.name, op=op_base + i)
            start = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as e:  # a raising op is a failed op, not a crash
                error = f"{type(e).__name__}: {e}"
            end = time.perf_counter()
            if tracer is not None:
                tracer.close(span, start, end)
                tracer.enabled = False
            lats.append(end - start)
            info = None
            if error is None:
                try:
                    info = op.check(result)
                    first = self.infos[0][i] if self.infos else None
                    if first and first.get("iterations") != info.get("iterations"):
                        raise CheckFailed(
                            f"iterations {info.get('iterations')} differ from "
                            f"{first.get('iterations')} in round 1")
                except CheckFailed as e:
                    error = f"check: {e}"
            if error is not None:
                self.failures.append(f"round {len(self.latencies) + 1} "
                                     f"{op.name}: {error}")
            infos.append(info)
        self.latencies.append(lats)
        self.infos.append(infos)

    @property
    def attempted(self) -> int:
        return sum(len(lats) for lats in self.latencies)

    def walls(self) -> list[float]:
        return [sum(lats) for lats in self.latencies]

    def wall(self) -> float:
        """Time to solution of the op list: the sum of per-op medians."""
        return sum(_median(list(col)) for col in zip(*self.latencies))

    def figures(self, key: str) -> list[float]:
        return [info[key] for infos in self.infos for info in infos
                if info is not None and key in info]


def _until(seconds: float, one_round) -> None:
    """Repeat ``one_round`` until the next one would overrun ``seconds``."""
    start = time.perf_counter()
    n = 0
    while True:
        one_round()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n > seconds:
            return


def _percentile_line(lats: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(lats)
    line = f"op latency: n={n} p50={_median(lats):.6g} s"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = float(np.percentile(lats, p))
            return line + f" p{p}={q:.6g} s"
    return line + " (too few samples for a tail percentile)"


def untraced(workload: str, ops: list[Op], seconds: float,
             first_setup_s: float, setup_again) -> dict:
    """Rounds of ``ops`` with one more set-up timing, ``setup_again()``,
    after each; set-up time is the median of all set-up timings."""
    rounds = _Rounds(ops)
    setups = [first_setup_s]

    def one_round():
        rounds.run()
        setups.append(setup_again())

    _until(seconds, one_round)
    walls = rounds.walls()
    lats = [x for r in rounds.latencies for x in r]
    metrics = {
        "wall_s": rounds.wall(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": _median(setups),
    }
    extra = {"op_p50_s": (_median(lats), "s"), "op_count": (len(ops), "ops"),
             "rounds": (len(walls), "rounds"),
             "fail_ratio": (len(rounds.failures) / rounds.attempted, "ratio"),
             "setup_samples": (len(setups), "samples")}
    if workload == "simulate":
        steps = sum(info["steps"] for info in rounds.infos[0] if info)
        extra["steps_per_s"] = (steps / metrics["wall_s"], "1/s")
    if workload in ("shoot", "smoothed"):
        extra["max_cost_gap"] = (max(rounds.figures("cost_gap"), default=0.0), "cost")
    if workload in ("simulate", "certify"):
        extra["max_residual"] = (max(rounds.figures("residual"), default=0.0), "residual")
    lines = [_percentile_line(lats),
             "round walls: " + " ".join(f"{w:.6g}" for w in walls),
             "set-up timings: " + " ".join(f"{s:.6g}" for s in setups)]
    return {"metrics": metrics, "units": END_TO_END, "extra": extra,
            "lines": lines, "failures": rounds.failures,
            "attempted": rounds.attempted, "steady": True}


def traced(build, seconds: float) -> dict:
    tracer = tracing.Tracer()
    layers.instrument(tracer)
    try:
        tracer.enabled = True
        setup_span = tracer.open("setup")
        ops = build()
        tracer.close(setup_span)
        tracer.enabled = False
        setup = tracing.SpanIndex(tracer, 0, len(tracer.spans))
        plain, instrumented = _Rounds(ops), _Rounds(ops)
        slices, clocks = [], []

        def pair():
            plain.run()
            first = len(tracer.spans)
            start = time.perf_counter()
            instrumented.run(tracer, op_base=len(slices) * len(ops))
            clocks.append(time.perf_counter() - start)
            slices.append((first, len(tracer.spans)))

        _until(seconds, pair)
    finally:
        tracer.uninstall()
    indexes = [tracing.SpanIndex(tracer, first, last) for first, last in slices]
    per_round = [layers.metrics(index, infos)
                 for index, infos in zip(indexes, instrumented.infos)]
    metrics = {name: _median([m[name] for m in per_round])
               for name in per_round[0]}
    metrics["problems.build.s"] = layers.problems_time(setup)
    metrics["trace.overhead_ratio"] = instrumented.wall() / plain.wall()
    unsteady = sorted(name for name in layers.COUNTS
                      if len({m[name] for m in per_round}) > 1)
    extra = {"trace.rounds": (len(slices), "rounds"),
             "trace.self_sum_s": (indexes[0].self_sum, "s"),
             "trace.round_clock_s": (clocks[0], "s"),
             "trace.negative_self_spans": (indexes[0].negative_self, "count"),
             "trace.wall_s": (instrumented.wall(), "s"),
             "untraced.wall_s": (plain.wall(), "s")}
    return {"metrics": metrics, "units": layers.UNITS, "extra": extra,
            "lines": [f"UNSTEADY count {name} differs between traced rounds"
                      for name in unsteady],
            "failures": plain.failures + instrumented.failures,
            "attempted": plain.attempted + instrumented.attempted,
            "steady": not unsteady, "spans": indexes[0].spans}


def _blas_threads() -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def print_report(args, result: dict) -> None:
    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace, "size": args.size,
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__,
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
           "blas_threads": _blas_threads()}
    print("env " + json.dumps(env))
    for line in result["lines"]:
        print(line)
    failures = result["failures"]
    for failure in failures:
        print("FAILED " + failure)
    units = result["units"]
    for name, value in result["metrics"].items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in result["extra"].items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and result["steady"],
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()}}))
