"""sweepctl benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy, and the run
exits with code 2 when there is none.  The workload's op list is built from
``--seed``, then run round after round, one op at a time in this one
process, until the next round would overrun ``--seconds`` (at least one
round).  Every op's output is checked against its expected outcome.
Set-up (imports plus a build of the op list) is timed once before the
first round and again after every round, with the imports in a fresh
interpreter; set-up time is the median of these timings, so that it is
sampled across the run like the rounds are.

With ``--trace 0`` the end-to-end metrics are measured with no
instrumentation.  With ``--trace 1`` untraced and traced rounds alternate;
the traced rounds record spans around sweepctl's public functions and give
the per-layer metrics, and traced over untraced round time is the tracing
overhead.  Spans of the first traced round are written to
``.perfbench_out/`` at the end.

Report lines go to standard output; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--size tiny``
shrinks every op for a quick smoke run (see ``smoke.py``).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("simulate", "shoot", "smoothed", "certify")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def _fail(message: str) -> None:
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def _import_package() -> float:
    """Pin BLAS threads, import sweepctl from ./src, return the import time."""
    if not os.path.isfile(os.path.join(SRC, "sweepctl", "__init__.py")):
        _fail(f"no sweepctl sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401  (imported lazily by the certifier)
    import sweepctl.cli  # noqa: F401  (pulls in every layer)
    elapsed = time.perf_counter() - start
    if not os.path.abspath(sweepctl.cli.__file__).startswith(SRC + os.sep):
        _fail(f"sweepctl imported from {sweepctl.cli.__file__}")
    return elapsed


def _fresh_import_seconds() -> float:
    """The same imports timed in a fresh interpreter, which is waited for."""
    code = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
            "import numpy, scipy.optimize, sweepctl.cli; "
            "print(time.perf_counter() - t)" % SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def main(argv=None) -> int:
    args = _parse(argv)
    import_s = _import_package()

    import measure
    import tracing
    import workloads

    tiny = args.size == "tiny"
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")

    def build():
        return workloads.build(args.workload, args.seed, tiny, workdir)

    try:
        if args.trace:
            result = measure.traced(build, args.seconds)
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracing.write(os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"),
                result["spans"])
        else:
            start = time.perf_counter()
            ops = build()
            first_setup_s = import_s + time.perf_counter() - start

            def setup_again() -> float:
                """Imports in a fresh interpreter plus one more build."""
                start = time.perf_counter()
                build()
                build_s = time.perf_counter() - start
                return _fresh_import_seconds() + build_s

            result = measure.untraced(args.workload, ops, args.seconds,
                                      first_setup_s, setup_again)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    measure.print_report(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
