"""Smoke run of every benchmark workload at a tiny size.

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json this runs ``run.py --size tiny`` once
untraced and once traced, one process at a time, and checks that the run
exits 0 with every op correct, that every metric BENCHMARK.json names is
on the final line with its unit, and that the traced round's self times
sum to no more than a clock read around the whole round, with no span
outliving its parent.
Exits 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _metric_lines(stdout: str) -> dict[str, float]:
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            name, value = line[len("metric "):].split(" = ")
            out[name] = float(value.split()[0])
    return out


def _check(workload: str, trace: int, spec: list[dict]) -> list[str]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
            "--size", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"{where}: {result['failed']} of "
                        f"{result['attempted']} ops failed")
    for entry in spec:
        got = result["metrics"].get(entry["name"])
        if got is None:
            problems.append(f"{where}: metric {entry['name']} missing")
        elif got["unit"] != entry["unit"]:
            problems.append(f"{where}: {entry['name']} in {got['unit']}, "
                            f"expected {entry['unit']}")
    if trace:
        lines = _metric_lines(proc.stdout)
        if lines["trace.self_sum_s"] > lines["trace.round_clock_s"]:
            problems.append(f"{where}: self times sum to "
                            f"{lines['trace.self_sum_s']:.6g} s, more than the "
                            f"round's {lines['trace.round_clock_s']:.6g} s")
        if lines["trace.negative_self_spans"]:
            problems.append(f"{where}: spans with negative self time")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            found = _check(workload, trace, bench[key])
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
