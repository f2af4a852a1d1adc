"""Smoke test of short benchmark runs.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs once untraced at the default seed (exact expected
outcomes) and once traced at another seed (invariants, and the exact
outcomes of the fixed MAB campaigns).  The last stdout line must carry
every metric that BENCHMARK.json names, with its unit; a tampered expected
count must make the command fail, and so must a traced layer that is
missing or never called.  Scaling to the reference host speed leaves a
workload's fixed delay floor unscaled.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_metric_with_its_unit(workload, trace):
    seed = "0" if trace == 0 else "1"
    proc = run_bench("--workload", workload, "--seed", seed, "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for metric in named:
        assert any(
            line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
            for line in lines[:-1]
        ), f"{metric['name']} not printed with its unit"
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert any(line.startswith("sample_latency_p99_ms") and "samples)" in line
                   for line in lines)


def test_wrong_expected_count_fails(tmp_path):
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    for outcome in expected["workloads"]["slow-sim-w2"].values():
        outcome["counterexamples"] += 1
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    proc = run_bench("--workload", "slow-sim-w2", "--seed", "0", "--seconds", "1",
                     "--trace", "0", "--expected", str(path))
    assert proc.returncode != 0
    assert "counterexamples: expected" in proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def _bench_modules():
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import run
    import tracing

    return run, tracing


def test_missing_patch_target_is_reported(monkeypatch):
    run, tracing = _bench_modules()
    from falsify import campaign

    monkeypatch.delattr(campaign, "evaluate")
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["falsify.campaign.evaluate"]


def test_layer_without_calls_is_a_check_failure(tmp_path):
    run, tracing = _bench_modules()
    workload = run.Workload(
        experiments=("speedup_parallel",),
        overrides={"workers": 2, "delay": 0.0, "budget": run._budget(40)},
    )
    tracer = tracing.Tracer()
    untraced, _ = run.run_round(workload, 0, tmp_path)
    with tracer.installed():
        traced, _ = run.run_round(workload, 0, tmp_path, tracer)
    traced["span_range"] = (0, len(tracer.spans))
    traced["agent_frames"] = tracer.agent_frames
    _, problems = run.per_layer(tracer, [traced], [untraced], {})
    assert problems == []

    # A layer that is no longer reached through its wrapper must not read
    # as a free one.
    for entry in tracer.spans:
        if entry[0] == "monitor.evaluate":
            entry[0] = "renamed"
    metrics, problems = run.per_layer(tracer, [traced], [untraced], {})
    assert problems == ["layer span monitor.evaluate recorded no calls in the traced rounds"]


def test_scaling_to_reference_speed():
    run, _ = _bench_modules()
    as_timed = {"samples_per_s": 100.0, "counterexamples_per_s": 10.0,
                "sample_latency_p50_ms": 8.0, "sample_latency_p99_ms": 30.0,
                "setup_s": 0.2, "peak_rss_mb": 40.0}
    # A host at half the reference speed: a reference host is twice as fast.
    scaled = run.scale_to_reference(as_timed, 0.5, delay_s=0.0, workers=1)
    assert scaled == pytest.approx({
        "samples_per_s": 200.0, "counterexamples_per_s": 20.0,
        "sample_latency_p50_ms": 4.0, "sample_latency_p99_ms": 15.0,
        "setup_s": 0.1, "peak_rss_mb": 40.0})
    # A 5 ms delay floor does not scale: 2 workers at 100/s spend 20 ms per
    # sample, 5 ms of delay and 15 ms of compute, which halves to 7.5 ms.
    scaled = run.scale_to_reference(as_timed, 0.5, delay_s=0.005, workers=2)
    assert scaled == pytest.approx({
        "samples_per_s": 2 / 0.0125, "counterexamples_per_s": 0.2 / 0.0125,
        "sample_latency_p50_ms": 6.5, "sample_latency_p99_ms": 17.5,
        "setup_s": 0.1, "peak_rss_mb": 40.0})
