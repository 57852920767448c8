"""Tests of the benchmark itself: oracle gate, layer counts, robustness.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from rnsbarrett import ResidueVector, bmm, encode, load_params  # noqa: E402
import rnsbarrett.rns_barrett  # noqa: E402

from perfbench import harness  # noqa: E402
from perfbench.spans import HOOKS, Tracer, installed  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ExpWorkload,
    MulWorkload,
    OneShotWorkload,
    channel_mulmods,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small_workloads():
    return [
        MulWorkload("mul-test", 96, 4, seed=7),
        ExpWorkload("exp-test", 64, 64, 3, seed=7),
        OneShotWorkload("oneshot-test", 64, 3, seed=7),
    ]


def _corrupt(out):
    if isinstance(out, ResidueVector):
        values = list(out.values)
        values[-1] = (values[-1] + 1) % out.mset.moduli[-1]
        return ResidueVector(tuple(values), out.mset)
    code, text = out
    return code, text.replace(text[0], str((int(text[0]) + 1) % 10), 1)


@pytest.mark.parametrize("wl", _small_workloads(), ids=lambda wl: wl.name)
def test_one_corrupted_result_is_one_failure(wl):
    state = wl.setup()
    results = [wl.run(state, i, wl.entry) for i in range(6)]
    assert harness.failures(wl, state, results) == set()
    results[4] = _corrupt(results[4])
    assert harness.failures(wl, state, results) == {4}
    results[1] = ValueError("raised by the operation")
    assert harness.failures(wl, state, results) == {1, 4}


def test_timings_take_each_inputs_fastest_repeat_or_the_fastest_window():
    two_inputs = MulWorkload("mul-test", 96, 2, seed=7)
    # Input 0 ran 5, 1, 3 µs and input 1 ran 2, 4, 9 µs.
    latencies = [5000, 2000, 1000, 4000, 3000, 9000]
    assert harness.timings(two_inputs, latencies) == pytest.approx(
        (2 / 3e-6, 1.5, 1.9))
    no_repeats = OneShotWorkload("oneshot-test", 64, 3, seed=7)
    assert no_repeats.inputs is None
    latencies = [9000, 1000, 1000, 2000, 1000, 1000, 9000]
    assert harness.timings(no_repeats, latencies) == pytest.approx(
        (5 / 6e-6, 1.0, 1.6))


def test_example4_counts_match_closed_form():
    ctx = load_params(ROOT / "src" / "rnsbarrett" / "data" / "example4.json")
    assert ctx.mset.moduli == (4, 5, 7, 11)
    assert (ctx.g_indices, ctx.h_indices) == ((0, 1), (0, 2))
    ms = ctx.mset
    tracer = Tracer()
    with installed(tracer) as absent:
        assert absent == []
        for a in range(21):
            tracer.call("pass", bmm, encode(a, ms), encode(20 - a, ms), ctx)
    metrics = harness.layer_metrics(tracer, ctx)
    n, g, h = 4, 2, 2
    assert metrics["quotient.calls_per_pass"] == 2
    assert metrics["quotient.peel_steps"] == g + h
    assert metrics["base_extension.calls_per_pass"] == 2
    assert metrics["base_extension.peel_steps"] == (n - g) + (n - h)
    # 3 products of 4 channels; per divisor stage 3 + 2 peel updates, 3 + 2
    # extension peel updates and 2 seed corrections.
    assert metrics["pass.channel_mulmods"] == 3 * 4 + 2 * (5 + 5 + 2) == 36
    assert channel_mulmods(n, 0, h) == 3 * 4 + 12


def test_missing_hook_target_is_absent_and_originals_come_back():
    original = rnsbarrett.rns_barrett.base_extend
    original_mul = vars(ResidueVector)["__mul__"]
    gone = ("rnsbarrett.rns_barrett", "divide_and_extend", "kernel", None,
            ("quotient.us_per_pass",))
    tracer = Tracer()
    with installed(tracer, HOOKS + (gone,)) as absent:
        assert absent == [("rnsbarrett.rns_barrett.divide_and_extend",
                           ("quotient.us_per_pass",))]
        assert rnsbarrett.rns_barrett.base_extend is not original
    assert rnsbarrett.rns_barrett.base_extend is original
    assert vars(ResidueVector)["__mul__"] is original_mul


@pytest.mark.parametrize("wl", _small_workloads(), ids=lambda wl: wl.name)
def test_runs_report_exactly_the_declared_metrics(wl):
    _, attempted, failed, metrics, _ = harness.end_to_end(wl, 0.2)
    assert attempted > 0 and failed == 0
    assert set(metrics) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value in metrics.values())

    _, attempted, failed, metrics, extra = harness.traced(wl, 0.2)
    assert attempted > 0 and failed == 0
    assert extra["absent"] == [] and extra["mismatched"] == 0
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_command_prints_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mul-256",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for spec in BENCHMARK["end_to_end"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]


def test_command_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCHMARK["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "mul-256",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
