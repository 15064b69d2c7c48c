"""Worker process of a library workload (steer, crosscheck, lattice).

Started by run.py with PYTHONPATH pointing at the source tree and a fixed
BLAS thread count.  It imports capa, builds the seed's inputs, runs the
untimed warm-up and prints ``ready``; run.py times set-up up to that line.
Then it runs timed passes for the given seconds and prints one JSON report
as its last line.  ``--setup-only`` stops after ``ready``; ``--ka-gains``
prints the closed-form gains of the crosscheck pairs instead, ``--probe``
the ka-versus-CG gap of the fixed probe pair, and ``--provenance`` the
Python, numpy and BLAS thread facts of this process.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import statistics
import sys
import time

import numpy as np

import spec
import tracing
from workloads import Workload, crosscheck_ka_gains, failure, probe_rel_diff

MAX_FAILURES = 5


def blas_threads() -> int:
    """Thread count the loaded OpenBLAS resolved, or -1 when it cannot be read."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return -1


class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, records: list[dict]) -> None:
        for record in records:
            self.attempted += 1
            reason = failure(record)
            if reason is not None:
                self.failed += 1
                if len(self.reasons) < MAX_FAILURES:
                    self.reasons.append(f"{record['op']}: {reason}")


def run_passes(workload: Workload, budget: float, tally: Tally, tracer=None):
    """Timed passes within the budget; returns the pass times and the records
    of the last pass.  With a tracer, each pass is a root span."""

    def one_pass():
        span = tracer.open("pass") if tracer else None
        t0 = time.perf_counter()
        try:
            records = workload.run_pass()
        except Exception as exc:  # a pass-level failure fails every operation of the pass
            records = [{"op": "pass", "error": f"{type(exc).__name__}: {exc}"}] \
                * workload.op_count()
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.close(span)
        tally.add(records)
        return seconds, records

    results = spec.passes_within(budget, one_pass)
    return [r[1] for r in results], results[-1][2]


def rel_diffs(records: list[dict]) -> tuple[float, float]:
    """Largest ka-versus-CG gap over the fixed and over the seed-drawn pairs."""
    fixed = len(spec.FIXED_CROSSCHECK_DIRECTIONS)
    gaps = {True: [0.0], False: [0.0]}
    for record in records:
        if "pair" in record:
            _, index, gain_ka, gain_cg = record["pair"]
            gaps[index < fixed].append(abs(gain_ka - gain_cg) / gain_cg)
    return max(gaps[True]), max(gaps[False])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=spec.LIBRARY_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--ka-gains", action="store_true")
    parser.add_argument("--provenance", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    if args.provenance:
        import capa.cli  # noqa: F401  (loads, and caches the bytecode of, every module)
        print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                          "blas_threads": blas_threads()}))
        return 0

    workload = Workload(args.workload, args.seed, args.size)
    if args.probe:
        print(repr(probe_rel_diff(workload.cfg, spec.PROBE[args.size])))
        return 0
    if args.ka_gains:
        print(json.dumps(crosscheck_ka_gains(workload.cfg, workload.size, workload.inputs)))
        return 0
    workload.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tally = Tally()
    report = {}
    if args.trace:
        plain, _ = run_passes(workload, args.seconds / 2, tally)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, records = run_passes(workload, args.seconds / 2, tally, tracer)
        finally:
            tracer.uninstall()
        report["layers"] = tracing.median_metrics(
            [tracing.pass_metrics(span) for span in tracer.roots])
        report["layers"]["trace_overhead"] = \
            statistics.median(traced) / statistics.median(plain) - 1
        report["spans"] = [tracing.to_json(span) for span in tracer.roots]
        if args.workload == "crosscheck":
            report["ka_gains"] = [list(r["pair"][:3]) for r in records if "pair" in r]
    else:
        report["passes"], records = run_passes(workload, args.seconds, tally)
        if args.workload == "crosscheck":
            report["solver_rel_diff"], report["seeded_rel_diff"] = rel_diffs(records)
    report.update(attempted=tally.attempted, failed=tally.failed, failures=tally.reasons,
                  rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
