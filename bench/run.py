"""capa benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload steer --seed 1 --seconds 28 --trace 0

Workloads: steer, crosscheck, lattice (library passes in a worker process,
bench/worker.py) and cli (every subcommand in a fresh process), or ``all``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; bench/README.md defines both.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Child processes get the source tree on PYTHONPATH and one BLAS thread.
Exit code 2: the source tree is missing; 1: the benchmark itself broke.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spec
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_SAMPLES = 9
CLI_SETUPS_PER_PASS = 2
MAX_FAILURES = 5
DEADLINE_S = 170.0
BLAS_THREADS = 1
# A library worker's glibc malloc serves every block from the heap and keeps
# what is freed, so each pass after the first reuses pages it already holds.
# By default each large array is a fresh mapping: a steer pass then spends
# about a tenth of its time faulting in fresh pages, and on a virtual machine
# the cost of such a fault swings with the host's memory load.
KEEP_HEAP = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}


class BenchError(RuntimeError):
    """The benchmark could not run or a child process broke; no result."""


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        remaining = self.end - time.monotonic()
        if remaining <= 0:
            raise BenchError("run exceeded its time limit")
        return remaining


def child_env(blas_threads: int = BLAS_THREADS, keep_heap: bool = False) -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    if keep_heap:
        env.update(KEEP_HEAP)
    return env


def worker_cmd(*args) -> list[str]:
    return [sys.executable, str(BENCH / "worker.py"), *map(str, args)]


def run_child(cmd, deadline: Deadline, env=None) -> str:
    """Run a child to completion; its standard output, or BenchError."""
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=env or child_env(), timeout=deadline.left())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"{cmd[1:]} exited {done.returncode}: {done.stderr[-2000:]}")
    return done.stdout


def start_until_ready(cmd, deadline: Deadline) -> tuple[subprocess.Popen, float]:
    """Start a worker and time it until it prints ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=child_env(keep_heap=True), bufsize=0)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        ready = sel.select(timeout=deadline.left()) and proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if ready != b"ready\n":
        proc.kill()
        _, err = proc.communicate()
        raise BenchError(f"worker did not get ready: {err.decode()[-2000:]}")
    return proc, elapsed


def finish(proc: subprocess.Popen, deadline: Deadline) -> str:
    try:
        out, err = proc.communicate(timeout=deadline.left())
    except (subprocess.TimeoutExpired, BenchError):
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.decode()[-2000:]}")
    return out.decode()


def last_json(text: str):
    return json.loads(text.strip().splitlines()[-1])


def metric(value, samples: int) -> dict:
    return {"value": value, "samples": samples}


def run_library(args, deadline: Deadline) -> dict:
    """Untraced: SETUP_SAMPLES set-up-only workers, then one worker that runs
    the passes in what is left of the run.  Traced: one worker, half its
    passes untraced and half traced."""
    base = ["--workload", args.workload, "--seed", args.seed, "--size", args.size]
    if args.trace:
        proc, _ = start_until_ready(worker_cmd(*base, "--seconds", args.seconds, "--trace", 1),
                                    deadline)
        report = last_json(finish(proc, deadline))
        layers = report["layers"]
        info = {}
        layers["kernel_approx.thread_drift"] = 0.0
        if args.workload == "crosscheck":
            layers["kernel_approx.thread_drift"], info["drift_threads"] = \
                thread_drift(base, report["ka_gains"], deadline)
        return {"attempted": report["attempted"], "failed": report["failed"],
                "failures": report["failures"], "info": info, "layers": layers,
                "spans": report["spans"]}

    setups = []
    start = time.perf_counter()
    for _ in range(SETUP_SAMPLES):
        proc, seconds = start_until_ready(worker_cmd(*base, "--setup-only"), deadline)
        finish(proc, deadline)
        setups.append(seconds)
    budget = args.seconds - (time.perf_counter() - start)
    proc, seconds = start_until_ready(worker_cmd(*base, "--seconds", budget), deadline)
    setups.append(seconds)
    report = last_json(finish(proc, deadline))
    attempted, failed = report["attempted"], report["failed"]
    if args.workload == "crosscheck":
        rel_diff = report["solver_rel_diff"]
        info = {"seeded_rel_diff": report["seeded_rel_diff"]}
    else:
        rel_diff = float(run_child(worker_cmd(*base, "--probe"), deadline))
        info = {}
    return {"attempted": attempted, "failed": failed, "info": info,
            "failures": report["failures"],
            "metrics": {
                "setup_s": metric(statistics.median(setups), len(setups)),
                "pass_s": metric(statistics.median(report["passes"]), len(report["passes"])),
                "peak_rss_mb": metric(report["rss_mb"], 1),
                "ok_ratio": metric(1.0 - failed / attempted, attempted),
                "solver_rel_diff": metric(rel_diff, 1),
            }}


def thread_drift(base, gains_1, deadline: Deadline) -> tuple[float, int]:
    """Largest relative change of the closed-form gains between one BLAS
    thread and as many threads as there are CPUs (at least two)."""
    threads = max(2, os.cpu_count() or 1)
    gains_n = json.loads(run_child(worker_cmd(*base, "--ka-gains"), deadline,
                                   env=child_env(threads)))
    drift = max(abs(a[2] - b[2]) / abs(a[2]) for a, b in zip(gains_1, gains_n))
    return drift, threads


class CliPass:
    """Runs every subcommand once in a fresh process and checks its output."""

    def __init__(self, args, workdir: Path, deadline: Deadline):
        self.args = args
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak_kb = 0
        self.rel_diff = None

    def invoke(self, argv, traced: bool):
        """Run one subcommand; returns (seconds, exit code, stderr, rusage)."""
        name = argv[0]
        out = self.workdir / f"{name}.out"
        err = self.workdir / f"{name}.err"
        full = [*argv, "--out", str(out), "--seed", str(self.args.seed)]
        cmd = [sys.executable, str(BENCH / "clitrace.py"), str(self.workdir / f"{name}.spans"),
               *full] if traced else [sys.executable, "-m", "capa.cli", *full]
        out.unlink(missing_ok=True)
        with open(err, "w", encoding="utf-8") as err_fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err_fh,
                                    cwd=ROOT, env=child_env())
            watchdog = threading.Timer(self.deadline.left(), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            raise BenchError(f"{name} was killed (signal {-proc.returncode})")
        return seconds, proc.returncode, err.read_text(encoding="utf-8"), usage

    def run(self, traced: bool = False) -> tuple[float, list]:
        """One pass; returns its time and, when traced, each subcommand's trace."""
        total = 0.0
        traces = []
        for argv in spec.CLI_COMMANDS[self.args.size]:
            seconds, code, stderr, usage = self.invoke(argv, traced)
            total += seconds
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            self.attempted += 1
            reason = self.check(argv[0], code, stderr)
            if reason:
                self.failed += 1
                if len(self.failures) < MAX_FAILURES:
                    self.failures.append(f"{argv[0]}: {reason}")
            if traced:
                doc = json.loads((self.workdir / f"{argv[0]}.spans").read_text())
                out = self.workdir / f"{argv[0]}.out"
                doc["output_bytes"] = out.stat().st_size if out.exists() else 0
                traces.append(doc)
        return total, traces

    def check(self, name: str, code: int, stderr: str) -> str | None:
        if code != 0:
            record = spec.error_record(stderr)
            return f"exit {code}: " + (json.dumps(record) if record else stderr[-500:])
        text = (self.workdir / f"{name}.out").read_text(encoding="utf-8")
        if name == "gain":
            self.rel_diff = json.loads(text).get("rel_diff")
        return spec.check_cli_output(name, text)


def cli_pass_metrics(start: float, seconds: float, traces: list) -> dict:
    span = tracing.Span(name="pass", start=start, end=start + seconds)
    span.children = [tracing.from_json(t["span"], span) for t in traces]
    for child, trace in zip(span.children, traces):
        # the same CG problem in two processes is two user requests, not waste
        for s in tracing.walk([child]):
            if "problem" in s.attrs:
                s.attrs["problem"] = f"{trace['span']['start']}:{s.attrs['problem']}"
    return tracing.cli_metrics(span, sum(t["import_s"] for t in traces),
                               sum(t["output_bytes"] for t in traces))


def run_cli(args, deadline: Deadline, workdir: Path) -> dict:
    """Untraced: rounds of CLI_SETUPS_PER_PASS fresh ``import capa.cli``
    timings and one pass.  Traced: half the time untraced passes, half traced."""
    runner = CliPass(args, workdir, deadline)
    result = {"info": {}}
    if args.trace:
        plain = spec.passes_within(args.seconds / 2, runner.run)
        traced = spec.passes_within(args.seconds / 2, lambda: runner.run(traced=True))
        per_pass = [cli_pass_metrics(t0, seconds, traces) for t0, seconds, traces in traced]
        layers = tracing.median_metrics(per_pass)
        layers["kernel_approx.thread_drift"] = 0.0
        layers["trace_overhead"] = (statistics.median(r[1] for r in traced)
                                    / statistics.median(r[1] for r in plain) - 1)
        result["layers"] = layers
        result["spans"] = [t for _, _, traces in traced for t in traces]
        if args.size == "full":
            result["info"]["defaults_probe"] = defaults_probe(runner)
    else:
        setups = []

        def time_imports():
            for _ in range(CLI_SETUPS_PER_PASS):
                t0 = time.perf_counter()
                run_child([sys.executable, "-c", "import capa.cli"], deadline)
                setups.append(time.perf_counter() - t0)

        times = [r[1] for r in spec.passes_within(args.seconds, runner.run, time_imports)]
        result["metrics"] = {
            "setup_s": metric(statistics.median(setups), len(setups)),
            "pass_s": metric(statistics.median(times), len(times)),
            "peak_rss_mb": metric(runner.peak_kb / 1024.0, runner.attempted),
            "ok_ratio": metric(1.0 - runner.failed / runner.attempted, runner.attempted),
            "solver_rel_diff": metric(runner.rel_diff, 1),
        }
    result.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures)
    return result


def defaults_probe(runner: CliPass) -> dict:
    """Exit code and error record of the subcommand the cli workload cannot run
    at its plain defaults; not an operation of the workload."""
    _, code, stderr, _ = runner.invoke(spec.DEFAULTS_PROBE, traced=False)
    return {"command": " ".join(spec.DEFAULTS_PROBE), "exit": code,
            "error": spec.error_record(stderr)}


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(args, deadline: Deadline) -> dict:
    files = sorted((SRC / "capa").rglob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        loc += sum(1 for line in data.decode("utf-8").splitlines() if line.strip())
    facts = last_json(run_child(worker_cmd("--provenance"), deadline))
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "git_commit": git_commit(),
            "src_sha256": digest.hexdigest()[:16], "src_loc": loc,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), **facts}


def run_workload(args, deadline: Deadline) -> dict:
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "cli":
            return run_cli(args, deadline, workdir)
        return run_library(args, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if RUN_DIR.exists() and not any(RUN_DIR.iterdir()):
            RUN_DIR.rmdir()


def units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[section]}


def report(args, result: dict) -> dict:
    """Print the human-readable lines; return the metrics of the JSON line."""
    name = args.workload
    ratio = result["failed"] / result["attempted"]
    print(f"# {name}: attempted {result['attempted']} failed {result['failed']} "
          f"fail_ratio {ratio:.4g}")
    for reason in result["failures"]:
        print(f"# {name} failure: {reason}")
    for key, value in result["info"].items():
        print(f"# {name} {key}: {json.dumps(value)}")
    measured = result["layers"] if args.trace else result["metrics"]
    declared = units("per_layer" if args.trace else "end_to_end")
    if set(measured) != set(declared):
        raise BenchError(f"measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(measured) ^ set(declared))}")
    metrics = {}
    for key, unit in declared.items():
        if args.trace:
            value = measured[key]
        else:
            value = measured[key]["value"]
            print(f"# {name} {key} = {value:.6g} {unit} (n={measured[key]['samples']})")
        metrics[key] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*spec.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    parser.add_argument("--spans", metavar="PATH",
                        help="with --trace 1, write the recorded spans to PATH as JSON")
    args = parser.parse_args(argv)
    if not (SRC / "capa" / "__init__.py").is_file():
        print(f"capa sources not found under {SRC}", file=sys.stderr)
        return 2

    names = spec.WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    spans = {}
    try:
        for name in names:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            deadline = Deadline(DEADLINE_S)
            print(f"# provenance {json.dumps(provenance(one, deadline))}")
            result = run_workload(one, deadline)
            metrics = report(one, result)
            prefix = f"{name}." if args.workload == "all" else ""
            total["metrics"].update({prefix + k: v for k, v in metrics.items()})
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            spans[name] = result.get("spans")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    total["correct"] = total["failed"] == 0
    if args.spans and args.trace:
        Path(args.spans).write_text(json.dumps(spans), encoding="utf-8")
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
