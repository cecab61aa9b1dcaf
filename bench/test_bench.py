"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``.

They live beside the benchmark, outside ``tests/``, so the repository's own
test run does not collect them.  Every run here is tiny.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostclock  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"verify-all": 2, "reversible-sweep": 30, "lct-refute": 30, "dsl-circuits": 4}
COUNTS = (".calls", ".checks", "classical.cells", "classical.nnz")


def bench(cwd: Path, workload: str, trace: int, seed: int = 5) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", str(TINY[workload])]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_timed_smoke_run_reports_every_end_to_end_metric(workload):
    out = result(bench(ROOT, workload, 0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    for spec in SPEC["end_to_end"]:
        metric = out["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_runs_repeat_their_counts(workload):
    first = result(bench(ROOT, workload, 1))
    second = result(bench(ROOT, workload, 1))
    assert first["correct"] and second["correct"]  # verify-all: traced sha == untraced sha
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}

    def counts(out):
        return {k: v["value"] for k, v in out["metrics"].items() if k.endswith(COUNTS)}

    assert counts(first) == counts(second)
    assert any(counts(first).values())


def test_self_time_is_span_minus_children():
    ticks = iter(range(0, 1000, 1))
    t = tracing.Tracer(targets=(("toy.outer", "toy", "outer"), ("toy.inner", "toy", "inner")),
                       clock=lambda: float(next(ticks)))

    inner = t._wrap("toy.inner", lambda: None)

    def outer_body():
        inner()
        inner()

    outer = t._wrap("toy.outer", outer_body)
    outer()
    calls, outer_total, outer_self = t.stats["toy.outer"]
    inner_calls, inner_total, inner_self = t.stats["toy.inner"]
    assert (calls, inner_calls) == (1, 2)
    assert inner_total == inner_self == 2.0
    assert outer_self == outer_total - inner_total == 3.0


def test_tracer_patches_every_alias_and_restores_them():
    from bctk import bct, ontic, systems, verify

    originals = (bct.compose_seq, systems.pair_label, ontic.ontic_map,
                 verify.SUITES["diagram"], bct.Transformation.__init__)
    with tracing.Tracer() as t:
        assert verify.compose_seq is bct.compose_seq is not originals[0]
        assert bct.pair_label is systems.pair_label is not originals[1]
        assert verify.ontic_map is ontic.ontic_map is not originals[2]
        assert verify.SUITES["diagram"] is verify.suite_diagram is not originals[3]
        verify.run_suites(["codec"], verify.RunConfig(seed=1, trials=1, max_dim=2))
    assert t.stats["verify.codec"][0] == 1 and t.stats["systems.pair_label"][0] > 0
    assert (bct.compose_seq, systems.pair_label, ontic.ontic_map, verify.SUITES["diagram"],
            bct.Transformation.__init__) == originals
    assert verify.compose_seq is originals[0] and bct.pair_label is originals[1]


def test_host_clock_leaves_out_the_reference_kernel():
    with hostclock.HostClock() as clock:
        raw, measured, kernel = time.perf_counter(), clock.measured_s(), clock.kernel_s
        nominal = clock.now()
        while clock.measured_s() < measured + 0.3:
            pass
        raw = time.perf_counter() - raw
        measured = clock.measured_s() - measured
        kernel = clock.kernel_s - kernel
        nominal = clock.now() - nominal
    assert clock.ticks > 5 and kernel > 0
    assert raw == pytest.approx(measured + kernel, abs=0.01)
    assert nominal > 0


def test_host_clock_limits_one_slow_kernel_run_and_keeps_gc_out(monkeypatch):
    seen = []

    def kernel(offset):
        seen.append(gc.isenabled())
        time.sleep(0.02 if len(seen) == 4 else 0.002)  # one preempted sample

    monkeypatch.setattr(hostclock, "reference_kernel", kernel)
    clock, factors = hostclock.HostClock(), []
    for _ in range(8):
        clock._tick()
        factors.append(clock.factor)
    assert not any(seen) and gc.isenabled()
    assert min(factors[3:]) > 0.7 * factors[2]


def test_checks_catch_a_wrong_output():
    run = workloads.Pass(tracing.Tracer(targets=()), clock=lambda: 0.0)
    run.check(workloads._dsl_ok, (0, '{"diff": [1, 2]}\n'), (0, '{"gate": "g0"}'))
    run.check(workloads._dsl_ok, (0, '{"diff": [0, 1]}\n'), (1, '{"gate": "g0"}'))
    run.check(workloads._dsl_ok, (0, '{"diff": [0, 1]}\n'), (0, '{"gate": "g0"}'))
    assert (run.items, run.failed) == (3, 2)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "lct-refute", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
