"""The benchmark's own tests: tiny-size smoke runs and negative checks.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: The end-to-end metrics the benchmark reports under the workloads' own
#: names in its ``report`` line.
REPORTED = {"setup_s", "assess_s", "view_p50_ms", "view_p90_ms", "ops_per_s",
            "converge_s", "rounds", "msgs_per_delivery", "accuracy", "recall",
            "false_flag_rate", "converged_frac", "peak_rss_mb", "failed_frac"}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _lines(process: subprocess.CompletedProcess):
    assert process.returncode == 0, process.stderr
    return [json.loads(line) for line in process.stdout.strip().splitlines()]


def test_smoke_prints_every_metric_with_its_unit():
    reported = set()
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines = _lines(_run("--workload", workload, "--seed", "3", "--seconds", "0",
                                "--trace", str(trace), "--scale", "tiny"))
            result = lines[-1]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
            diagnostics = {name: value for line in lines[:-1]
                           for name, value in line.items()}
            assert {"start", "end", "speed"} <= set(diagnostics["machine"])
            assert diagnostics["machine"]["speed"]["readings"] >= 1
            if trace:
                assert diagnostics["layers"]["overhead"]["untraced_ms_p50"] > 0
                continue
            report = {name: entry for name, entry in diagnostics["report"].items()
                      if name not in ("samples", "checks", "unscaled")}
            assert all(set(entry) == {"value", "unit", "better"}
                       for entry in report.values())
            reported |= set(report)
    assert reported == REPORTED


def test_same_seed_gives_identical_scores():
    def scores():
        lines = _lines(_run("--workload", "churn_ttl6", "--seed", "5", "--seconds", "0",
                            "--trace", "0", "--scale", "tiny"))
        metrics = lines[-1]["metrics"]
        return {name: metrics[name]["value"] for name in ("accuracy", "recall", "rounds")}

    assert scores() == scores()


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert process.returncode != 0
    assert process.stdout == ""


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    return workloads


def _corrupting_recorder(workloads, call_name):
    """A recorder whose ``call_name`` results come back corrupted, as a
    faulty layer would return them."""

    class Corrupting(workloads.Recorder):
        def call(self, name, function, *args, **kwargs):
            result = super().call(name, function, *args, **kwargs)
            if name != call_name:
                return result
            if call_name == "quality.decide":
                key = next(iter(result))
                return {**result, key: float("nan")}
            if call_name == "batched.local":
                (peer, view), = result.items()
                return {peer: {m: min(p + 1e-6, 1.0) - 1e-9 for m, p in view.items()}}
            return {m: min(p + 1e-6, 1.0) - 1e-9 for m, p in result.items()}

    return Corrupting(trace=False)


@pytest.mark.parametrize("workload, call_name", [
    ("global_ttl6", "quality.decide"),
    ("churn_ttl6", "batched.local"),
    ("gossip_chord", "quality.view"),
])
def test_corrupted_decision_or_view_makes_failed_frac_positive(
        bench_modules, workload, call_name):
    rec = _corrupting_recorder(bench_modules, call_name)
    bench_modules.WORKLOADS[workload](rec, 2, 0.0, bench_modules.SCALES["tiny"])
    assert rec.attempted >= 1
    assert rec.failed / rec.attempted > 0


def test_speed_meter_scales_by_the_readings_around_a_sample(bench_modules):
    import speed

    meter = speed.SpeedMeter()
    # Readings every 0.5 s: fast (3 ms) for the first 5 s, then twice as slow.
    meter.times = [0.5 * i for i in range(20)]
    meter.readings = [speed.REFERENCE_MS if t < 5 else 2 * speed.REFERENCE_MS
                      for t in meter.times]
    assert meter.scaled([[(1.1, 1.4)], [(7.1, 7.4)]]) == pytest.approx([0.3, 0.15])
    # A block is the sum of its pieces, each scaled by the readings around it.
    assert meter.scaled([[(4.1, 4.4), (5.1, 5.4)]]) == pytest.approx([0.3 + 0.15])
    # The readings just before and after a piece scale it; past the last
    # reading, the last one does.
    assert meter.factor(4.6, 4.9) == pytest.approx(2 / 3)
    assert meter.factor(30.0, 31.0) == 0.5
