"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import jacobian_kib, run_ops, span_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    MAX_PENETRATION_M,
    STATE_ATOL,
    build,
    check_final_state,
    load_package,
    load_reference,
)

load_package(ROOT)

EXACT_COUNTS = ("geometry.pose_aopc.jacobian_kib", "verify.cs_gradient.evals")


def exact_counts(workload):
    wl = build(workload, 0, ROOT, load_reference())
    tracer = Tracer()
    ops = run_ops(wl, 0, tracer)
    assert not any(op.errors for op in ops)
    metrics = span_metrics(tracer.spans(), sum(len(op.unit_seconds) for op in ops))
    metrics["geometry.pose_aopc.jacobian_kib"] = (jacobian_kib(wl), "KiB")
    return {k: v for k, (v, _) in metrics.items() if k.endswith(".calls_per_step") or k in EXACT_COUNTS}


@pytest.mark.parametrize("workload", ["stack_rollout", "box_pile_rollout", "gradcheck"])
def test_exact_counts_repeat_across_traced_runs(workload):
    first, second = exact_counts(workload), exact_counts(workload)
    assert first == second
    assert len(first) == 8
    if workload == "gradcheck":
        assert first["verify.cs_gradient.evals"] > 0
    else:
        assert first["dynamics.forward_dynamics.calls_per_step"] == 4


def _reference_state():
    ref = load_reference()["stack_rollout"]
    return np.array(ref["q"]), np.array(ref["v"]), ref


def test_correctness_check_accepts_the_reference():
    q, v, ref = _reference_state()
    assert check_final_state(q, v, ref["max_penetration"], ref) == []


@pytest.mark.parametrize("field", ["q", "v"])
def test_correctness_check_rejects_a_perturbed_reference(field):
    q, v, ref = _reference_state()
    perturbed = dict(ref)
    arr = np.array(ref[field])
    arr.flat[2] += 10 * STATE_ATOL
    perturbed[field] = arr.tolist()
    errors = check_final_state(q, v, ref["max_penetration"], perturbed)
    assert len(errors) == 1 and errors[0].startswith(f"final {field}")


def test_correctness_check_rejects_nan_and_deep_penetration():
    q, v, ref = _reference_state()
    q_bad = q.copy()
    q_bad[0, 0] = np.nan
    assert check_final_state(q_bad, v, ref["max_penetration"], ref)
    assert check_final_state(q, v, 2 * MAX_PENETRATION_M, ref)


def test_stack_rollout_matches_the_reference():
    wl = build("stack_rollout", 0, ROOT, load_reference())
    op = wl.operation()
    assert op.errors == []
    assert len(op.unit_seconds) == wl.n_steps


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_the_metrics_benchmark_json_names(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)[section]]
    proc = _run("--workload", "stack_rollout", "--seed", "0", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(names)
    if trace == "1":
        assert 0.8 <= result["metrics"]["contact.invariance_ratio"]["value"] <= 1.2


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run("--workload", "stack_rollout", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
