"""Tests of the benchmark itself: python3 -m pytest bench/selftest.py

They check that a seed always draws the same inputs, that tampered outputs
fail the checks, that every workload runs at a smoke size and prints the
metrics BENCHMARK.json declares, and that a tree without sources is refused.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402
import tracing  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", spec.LIBRARY_WORKLOADS)
def test_seed_draws_the_same_directions(workload):
    first = spec.seeded_inputs(workload, 7)
    assert first == spec.seeded_inputs(workload, 7)
    assert first != spec.seeded_inputs(workload, 8)
    code = f"import spec; print(repr(spec.seeded_inputs({workload!r}, 7)))"
    fresh = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                           text=True, check=True).stdout.strip()
    assert fresh == repr(first)


def test_seeded_directions_stay_in_range():
    directions = spec.seeded_inputs("crosscheck", 3)["directions"]
    assert directions[:3] == list(spec.FIXED_CROSSCHECK_DIRECTIONS)
    for theta, phi in directions[3:]:
        assert 0.0 <= theta < 360.0 and 0.0 <= phi <= spec.SEEDED_PHI_MAX


@pytest.fixture(scope="module")
def steer_record():
    from workloads import Workload, failure
    workload = Workload("steer", 5, "smoke")
    records = workload.run_pass()
    assert all(failure(r) is None for r in records)
    return records[-1]


def test_gain_above_the_uncoupled_bound_fails(steer_record):
    from workloads import failure
    (_, bound_args), = steer_record["gains"]
    tampered = dict(steer_record, gains=[(1.01 * spec.uncoupled_bound(*bound_args), bound_args)])
    assert "above its uncoupled bound" in failure(tampered)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_non_finite_or_non_positive_gain_fails(steer_record, bad):
    from workloads import failure
    (_, bound_args), = steer_record["gains"]
    assert failure(dict(steer_record, gains=[(bad, bound_args)])) is not None


def test_nan_in_a_beampattern_fails(steer_record):
    from workloads import failure
    values, peak = steer_record["patterns"][0]
    broken = values.copy()
    broken.flat[1] = math.nan
    assert failure(dict(steer_record, patterns=[(broken, peak)])) == "non-finite pattern value"


def test_unconverged_cg_fails():
    from workloads import failure
    record = {"op": "M=6", "gains": [], "converged": False}
    assert failure(record) == "conjugate gradients did not converge"


def test_cli_checks_reject_tampered_outputs():
    bound = spec.uncoupled_bound(0.25, 0.0, 0.0)
    config = {"aperture.L_x": 0.5, "aperture.L_y": 0.5,
              "receiver.theta_deg": 0.0, "receiver.phi_deg": 0.0}
    good = {"config": config, "gain_ka": 0.5 * bound, "gain_cg": 0.5 * bound}
    assert spec.check_cli_output("gain", json.dumps(good)) is None
    above = dict(good, gain_cg=1.5 * bound)
    assert "above its uncoupled bound" in spec.check_cli_output("gain", json.dumps(above))
    assert spec.check_cli_output("gain", json.dumps(dict(good, rel_diff=math.nan))) is not None
    csv = "# capa 0.1.0\nseries,index,value\ngain_ka,10,{}\n"
    assert spec.check_cli_output("convergence", csv.format(1.5)) is None
    assert "non-finite" in spec.check_cli_output("convergence", csv.format("NaN"))
    assert "non-positive" in spec.check_cli_output("convergence", csv.format(-1.0))


def test_error_record_is_parsed_from_stderr():
    stderr = 'warning\n{"code": 2, "module": "spda", "message": "element does not fit"}\n'
    assert spec.error_record(stderr)["module"] == "spda"
    assert spec.error_record("Traceback (most recent call last):\n") is None


def test_self_time_subtracts_child_spans():
    root = tracing.Span("pass", start=0.0, end=10.0)
    child = tracing.Span("cg_solver.beamform_cg", start=1.0, end=9.0, parent=root)
    grandchild = tracing.Span("physics.radiation_kernel", start=2.0, end=5.0, parent=child)
    root.children, child.children = [child], [grandchild]
    assert child.self_time == pytest.approx(5.0)
    assert tracing.pass_metrics(root)["trace_coverage"] == pytest.approx(0.8)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_smoke_size_runs_every_workload(workload, trace, tmp_path):
    spans = tmp_path / "spans.json"
    done = run_bench("--workload", workload, "--seed", 3, "--seconds", 1,
                     "--trace", trace, "--size", "smoke", "--spans", spans)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        recorded = json.loads(spans.read_text(encoding="utf-8"))[workload]
        assert recorded and all(s["children"] for s in
                                (r["span"] if workload == "cli" else r for r in recorded))
    else:
        assert not spans.exists()
    if trace and workload != "cli":
        assert result["metrics"]["trace_coverage"]["value"] >= 0.9


def test_tree_without_sources_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "steer", "--seed", 1, "--seconds", 1, "--trace", 0,
                     cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_readme_table_names_every_layer_metric():
    readme = (BENCH / "README.md").read_text(encoding="utf-8")
    for m in DECLARED["per_layer"] + DECLARED["end_to_end"]:
        assert f"`{m['name']}`" in readme, m["name"]
