"""Campaign benchmark for falsify: end-to-end throughput, latency and set-up,
plus per-layer timings from a separate traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-expected    # re-record expected.json

A run measures set-up in fresh interpreters, checks the known-unsafe
fixtures, makes one short untimed warm-up round, then repeats rounds of
full campaigns for ``--seconds``.  Each campaign does what ``falsify run
--output`` followed by ``falsify report`` does: parse the config,
``campaign.run_campaign``, ``campaign.write_artifacts``, read the records
back and compute ``analysis.coverage_stats``; that whole interval is
timed.  Every campaign's outputs are then checked (see checks.py).  The
last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (dispatched and failed samples) and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
A traced run alternates untraced and traced rounds of the same campaigns
and reports the tracing overhead from each pair.  The exit code is nonzero
when a check fails.

Between campaigns, outside their timed intervals, a fixed reference loop
is timed (HostProbe).  The compute in set-up, rates and latencies, but not
a workload's fixed delay, is reported scaled to a host of the reference
speed; the figures as timed are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

SETUP_REPEATS = 11
WARMUP_SAMPLES = 40  # per campaign of the untimed warm-up round
FIXTURE_REPEATS = 15


def _import_package():
    """Import falsify from this checkout's sources, never an installed copy."""
    if not (SRC / "falsify" / "__init__.py").is_file():
        raise SystemExit(f"falsify sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import falsify

    if Path(falsify.__file__).resolve().parent != SRC / "falsify":
        raise SystemExit(f"imported falsify from {falsify.__file__}, not {SRC}")


@dataclass(frozen=True)
class Workload:
    experiments: tuple[str, ...]  # shipped experiment configs; one campaign each per round
    overrides: dict
    # Campaign seeds of every round, whatever --seed is; None runs --seed.
    campaign_seeds: tuple[int, ...] | None = None

    def docs(self, seed: int) -> list[tuple[str, dict]]:
        """(expected-outcome key, campaign document) for each campaign of a round."""
        root = resources.files("falsify.data").joinpath("experiments")
        out = []
        for campaign_seed in self.campaign_seeds or (seed,):
            for name in self.experiments:
                doc = json.loads(root.joinpath(f"{name}.json").read_text())
                doc.update(self.overrides, seed=campaign_seed, output_dir=None)
                out.append((f"{name}@{campaign_seed}", doc))
        return out


def _budget(samples: int) -> dict:
    return {"max_samples": samples, "max_wall_seconds": None}


# Why each workload exists, and which gain it is meant to show, is recorded
# in BENCHMARK.json and PREDICTIONS.md.  Every round of a run does the same
# work.  Campaign lengths follow the shipped experiments, as sample counts so
# that the work does not depend on the host's speed:
#   - mab: 300 samples, the length of the shipped 6 s search (249-318
#     samples at seeds 0-2, with and without its 12 ms delay).  One search
#     finds 67-237 counterexamples depending on its seed (CV 0.35 over seeds
#     0-23), so a round runs the fixed campaign seeds 0-3 (627 of 1200
#     samples falsify) rather than --seed: a run then measures the same
#     searches at every --seed instead of the luck of the draw;
#   - catalog: 200 samples each, the shipped max_samples of the sweeps;
#   - slow-sim: 1000 samples.  The shipped speed-up experiment runs 300
#     per worker (60 s at a 0.2 s delay per sample), 600 at W=2; a round
#     needs 1000 for its p99 to have ten samples beyond it.
# The Halton stream ignores the seed, so those workloads do identical work
# at every --seed as well; their campaigns still carry --seed, which the
# stream check covers.
WORKLOADS = {
    "mab-intersection5-w1": Workload(
        experiments=("multiobj_graph_serial",),
        overrides={"workers": 1, "delay": 0.0, "budget": _budget(300)},
        campaign_seeds=(0, 1, 2, 3),
    ),
    "catalog-halton-w2": Workload(
        experiments=tuple(f"sweep_scenario_{i}" for i in range(1, 8)),
        overrides={"workers": 2, "delay": 0.0, "budget": _budget(200)},
    ),
    "slow-sim-w2": Workload(
        experiments=("speedup_parallel",),
        overrides={"workers": 2, "delay": 0.025, "budget": _budget(1000)},
    ),
}

END_TO_END_UNITS = {
    "samples_per_s": "1/s",
    "counterexamples_per_s": "1/s",
    "sample_latency_p50_ms": "ms",
    "sample_latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "kinematics.run_scene_us": "us",
    "kinematics.ns_per_agent_frame": "ns",
    "kinematics.agent_frames": "count",
    "kinematics.share": "fraction",
    **{f"kinematics.run_scene_us.s{i}": "us" for i in range(1, 8)},
    "campaign.worker_busy_frac": "fraction",
    "campaign.queue_wait_ms": "ms",
    "campaign.absorb_self_us": "us",
    "campaign.write_artifacts_ms": "ms",
    "campaign.read_records_ms": "ms",
    "samplers.next_sample_us": "us",
    "samplers.update_us": "us",
    "samplers.ce_yield": "fraction",
    "rulebook.insert_maximal_us": "us",
    "rulebook.insert_maximal_calls": "count",
    "rulebook.maximal_size": "count",
    "scenarios.build_scene_us": "us",
    "monitor.evaluate_us": "us",
    "analysis.coverage_stats_ms": "ms",
    "config.parse_config_ms": "ms",
    "trace.overhead_share": "fraction",
}

SETUP_CHILD = """
import json, sys, time
docs = json.loads(sys.stdin.read())
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from falsify import config, samplers
for doc in docs:
    cfg = config.parse_config(doc)
    samplers.make_sampler(cfg.sampler_name, cfg.space, cfg.seed,
                          rulebook=cfg.rulebook, alpha=cfg.alpha)
print(time.perf_counter() - t0)
"""


def measure_setup(docs: list[dict]) -> float:
    """Seconds from a fresh interpreter to a parsed config and a built sampler."""
    child = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC)],
        input=json.dumps(docs), capture_output=True, text=True,
        timeout=120, check=True, cwd=ROOT,
    )
    return float(child.stdout.strip().splitlines()[-1])


def host_facts() -> dict:
    import numpy as np
    from falsify import kinematics

    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "backend": kinematics.active_backend(),
        "numba_imports": numba_imports,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# The shared host's speed drifts by up to a half within minutes, for every
# process alike and with no steal time.  A run therefore times a fixed
# pure-Python loop, which no change to the package can speed up, between
# its campaigns and scales the compute in its figures to the speed of the
# reference host (scale_to_reference).  Over ten runs of each workload this
# cut the quartile spread of samples_per_s from 0.15 to 0.08 (catalog) and
# from 0.18 to 0.04 (mab); PREDICTIONS.md has the rest.
REFERENCE_CHUNK_MS = 1.6  # one _reference_chunk() on the reference host
REFERENCE_DUTY = 0.05     # probe seconds per second of campaign


def _reference_chunk() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


class HostProbe:
    """Times reference chunks between campaigns, for the run's host speed."""

    def __init__(self):
        self.chunks = 0
        self.ns = 0

    def sample(self, seconds: float) -> None:
        t0 = time.perf_counter_ns()
        end = t0 + int(seconds * 1e9)
        while True:
            _reference_chunk()
            self.chunks += 1
            now = time.perf_counter_ns()
            if now >= end:
                break
        self.ns += now - t0

    def speed(self) -> float:
        """Host speed over the run, relative to the reference host."""
        return REFERENCE_CHUNK_MS * 1e6 * self.chunks / self.ns


def run_round(workload, seed, out_dir, tracer=None, probe=None):
    """Run one round of campaigns; returns (timings, [(key, result, read_back)]).

    With a probe, reference chunks run after each campaign, outside its
    timed interval, for REFERENCE_DUTY of the campaign's time, so that the
    probe samples the host evenly over the run.
    """
    from falsify import analysis, campaign, config

    stats = {"samples": 0, "dispatched": 0, "failed": 0, "counterexamples": 0,
             "wall_ns": 0, "capacity_ns": 0, "sim_s": 0.0, "run_capacity_s": 0.0,
             "maximal": 0, "latency_ms": [], "campaign_latency_ms": {},
             "queue_wait_ms": []}
    outcomes = []
    simulate_fn = tracer.simulate if tracer else None
    for key, doc in workload.docs(seed):
        t0 = time.perf_counter_ns()
        cfg = config.parse_config(doc)
        result = campaign.run_campaign(cfg, simulate_fn)
        campaign.write_artifacts(result, out_dir)
        read_back = campaign.read_records(out_dir)
        analysis.coverage_stats(result)
        wall_ns = time.perf_counter_ns() - t0

        stats["samples"] += len(result.records)
        stats["dispatched"] += result.dispatched
        stats["failed"] += result.failed
        stats["counterexamples"] += len(result.error_table)
        stats["wall_ns"] += wall_ns
        stats["capacity_ns"] += cfg.workers * wall_ns
        stats["sim_s"] += sum(r.sim_seconds for r in result.records)
        stats["run_capacity_s"] += cfg.workers * result.wall_seconds
        stats["maximal"] += len(result.maximal)
        latency_ms = [(r.t_complete - r.t_dispatch) * 1e3 for r in result.records]
        stats["latency_ms"] += latency_ms
        stats["campaign_latency_ms"][key] = latency_ms
        if tracer:
            stats["queue_wait_ms"] += [
                (tracer.sim_start[r.id] - r.t_dispatch) * 1e3
                for r in result.records if r.id in tracer.sim_start
            ]
            tracer.sim_start.clear()
        outcomes.append((key, result, read_back))
        if probe:
            probe.sample(REFERENCE_DUTY * wall_ns / 1e9)
    stats["rate"] = stats["samples"] / (stats["wall_ns"] / 1e9)
    return stats, outcomes


def end_to_end(rounds, setup_times) -> dict:
    """End-to-end figures as timed, pooled over all rounds of the run.

    Rates are totals over the summed timed intervals, so the whole run is
    averaged rather than the middle one of its two to four rounds.  p99 is
    taken over every record.  p50 is the geometric mean over the round's
    campaigns of each campaign's median (pooled over rounds): with worker
    threads, samples that need about one interpreter switch interval of
    compute jump by a whole interval when the host slows, and in the
    pooled catalog records those samples sit at the median, which then
    moved 1.6 times as much as samples_per_s.
    """
    seconds = sum(r["wall_ns"] for r in rounds) / 1e9
    latency_ms = [x for r in rounds for x in r["latency_ms"]]
    return {
        "samples_per_s": sum(r["samples"] for r in rounds) / seconds,
        "counterexamples_per_s": sum(r["counterexamples"] for r in rounds) / seconds,
        "sample_latency_p50_ms": statistics.geometric_mean(
            statistics.median([x for r in rounds for x in r["campaign_latency_ms"][key]])
            for key in rounds[0]["campaign_latency_ms"]),
        "sample_latency_p99_ms": statistics.quantiles(latency_ms, n=100)[98],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def scale_to_reference(e2e: dict, speed: float, delay_s: float, workers: int) -> dict:
    """The figures a host of the reference speed would show.

    Only the part of a sample's time above its fixed delay floor is the
    host's compute, so only that part is scaled: a latency L becomes
    delay + (L - delay) * speed, and a rate goes through each worker's time
    per sample, workers / rate, in the same way.  Without a delay this is
    L * speed and rate / speed.  Set-up is scaled as a whole.  Import time
    follows the probe only loosely (correlation 0.36 over 60 runs), but
    between two sets of ten runs its scaled median moved at most 10% where
    the timed one moved 28%.
    """
    def compute_scaled(seconds: float) -> float:
        return delay_s + (seconds - delay_s) * speed

    rate = workers / compute_scaled(workers / e2e["samples_per_s"])
    return dict(
        e2e,
        samples_per_s=rate,
        counterexamples_per_s=e2e["counterexamples_per_s"] * rate / e2e["samples_per_s"],
        sample_latency_p50_ms=compute_scaled(e2e["sample_latency_p50_ms"] / 1e3) * 1e3,
        sample_latency_p99_ms=compute_scaled(e2e["sample_latency_p99_ms"] / 1e3) * 1e3,
        setup_s=e2e["setup_s"] * speed,
    )


# Every span the per-layer metrics read; each must record calls on every
# workload, or the layer it times is no longer reached through its wrapper.
LAYER_SPANS = (
    "config.parse_config", "samplers.next_sample", "samplers.update",
    "campaign.simulate", "scenarios.build_scene", "kinematics.run_scene",
    "monitor.evaluate", "campaign.absorb", "rulebook.insert_maximal",
    "campaign.write_artifacts", "campaign.read_records", "analysis.coverage_stats",
)


def per_layer(tracer, traced, untraced, fixture_us) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced rounds, and the problems found in them.

    Every round runs the same campaigns, so the tracing overhead is taken
    pair by pair: untraced round j against the traced round after it.
    """
    spans = tracer.summary()
    problems = [f"traced layer {target} is missing from the package"
                for target in tracer.missing]
    problems += [f"layer span {name} recorded no calls in the traced rounds"
                 for name in LAYER_SPANS if not spans.get(name, {}).get("calls")]

    def per_call(name, scale, self_time=True):
        agg = spans.get(name)
        if not agg or not agg["calls"]:
            return 0.0  # already a check failure above
        return agg["self_ns" if self_time else "ns"] / agg["calls"] / scale

    first = traced[0]
    first_spans = tracer.summary(*first["span_range"])
    kernel_ns = spans.get("kinematics.run_scene", {}).get("ns", 0)
    agent_frames = sum(r["agent_frames"] for r in traced)
    samples = sum(r["samples"] for r in traced)
    queue_waits = [x for r in traced for x in r["queue_wait_ms"]]
    metrics = {
        "kinematics.run_scene_us": per_call("kinematics.run_scene", 1e3),
        "kinematics.ns_per_agent_frame": kernel_ns / agent_frames if agent_frames else 0.0,
        "kinematics.agent_frames": first["agent_frames"],
        "kinematics.share": kernel_ns / sum(r["capacity_ns"] for r in traced),
        **{f"kinematics.run_scene_us.s{sid}": us for sid, us in fixture_us.items()},
        "campaign.worker_busy_frac":
            sum(r["sim_s"] for r in traced) / sum(r["run_capacity_s"] for r in traced),
        "campaign.queue_wait_ms": statistics.fmean(queue_waits) if queue_waits else 0.0,
        "campaign.absorb_self_us": per_call("campaign.absorb", 1e3),
        "campaign.write_artifacts_ms": per_call("campaign.write_artifacts", 1e6, False),
        "campaign.read_records_ms": per_call("campaign.read_records", 1e6, False),
        "samplers.next_sample_us": per_call("samplers.next_sample", 1e3),
        "samplers.update_us": per_call("samplers.update", 1e3),
        "samplers.ce_yield": sum(r["counterexamples"] for r in traced) / samples,
        "rulebook.insert_maximal_us": per_call("rulebook.insert_maximal", 1e3),
        "rulebook.insert_maximal_calls":
            first_spans.get("rulebook.insert_maximal", {}).get("calls", 0),
        "rulebook.maximal_size": first["maximal"],
        "scenarios.build_scene_us": per_call("scenarios.build_scene", 1e3),
        "monitor.evaluate_us": per_call("monitor.evaluate", 1e3),
        "analysis.coverage_stats_ms": per_call("analysis.coverage_stats", 1e6, False),
        "config.parse_config_ms": per_call("config.parse_config", 1e6, False),
        "trace.overhead_share": statistics.median(
            1.0 - t["rate"] / u["rate"] for u, t in zip(untraced, traced)
        ),
    }
    return metrics, problems


def keep_going(k: int, elapsed: float, seconds: float, traced: bool,
               round_seconds: list[float]) -> bool:
    """Whether to start round k.

    A run makes at least one round, or one untraced/traced pair, and never
    stops between the two rounds of a pair.  Past that, a round starts only
    if it is expected to end nearer to ``seconds`` than stopping now would,
    so a run with rounds of several seconds does not overshoot by a whole
    round.
    """
    if k < (2 if traced else 1) or (traced and k % 2):
        return True
    span = statistics.fmean(round_seconds) * (2 if traced else 1)
    return elapsed + span / 2 < seconds


def measure(args) -> int:
    import checks
    from tracing import Tracer

    workload = WORKLOADS[args.workload]
    facts = host_facts()
    problems = checks.check_known_unsafe()
    numba_info, numba_problems = checks.numba_section()
    problems += numba_problems

    expected = json.loads(Path(args.expected).read_text())["workloads"][args.workload]

    setup_docs = [doc for _, doc in workload.docs(args.seed)]
    measure_setup(setup_docs)  # warm-up: byte-code compilation is not set-up
    setup_times = []
    tracer = Tracer() if args.trace else None
    fixture_us = checks.time_fixture_kernels(FIXTURE_REPEATS) if tracer else {}

    untraced, traced, round_seconds = [], [], []
    probe = HostProbe()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        # Untimed warm-up: every campaign of a round, cut short, so that
        # first-call costs do not fall on the first timed round.
        warmup = replace(workload, overrides={**workload.overrides,
                                              "budget": _budget(WARMUP_SAMPLES)})
        run_round(warmup, args.seed, out_dir)
        start = time.perf_counter()
        k = 0
        while keep_going(k, time.perf_counter() - start, args.seconds, bool(tracer),
                         round_seconds):
            # Set-up children are spread over the run, between rounds, so their
            # median samples the host over the whole run, not one moment.
            elapsed = time.perf_counter() - start
            if len(setup_times) * args.seconds <= SETUP_REPEATS * elapsed < SETUP_REPEATS * args.seconds:
                setup_times.append(measure_setup(setup_docs))
            if tracer and k % 2:
                first_span, frames = len(tracer.spans), tracer.agent_frames
                with tracer.installed():
                    stats, outcomes = run_round(workload, args.seed, out_dir, tracer, probe)
                stats["span_range"] = (first_span, len(tracer.spans))
                stats["agent_frames"] = tracer.agent_frames - frames
                traced.append(stats)
            else:
                stats, outcomes = run_round(workload, args.seed, out_dir, probe=probe)
                untraced.append(stats)
            round_seconds.append(time.perf_counter() - start - elapsed)
            for key, result, read_back in outcomes:
                found = checks.check_invariants(result, read_back)
                # Exact outcomes are recorded for the default seed; the fixed
                # MAB campaigns match them at every --seed.
                if key in expected:
                    found += checks.compare_expected(checks.outcome(result), expected[key])
                elif args.seed == checks.DEFAULT_SEED:
                    found.append("no expected outcome recorded")
                problems += [f"{args.workload} {key}: {p}" for p in found]
            # Drop this round's results before the next round runs, so peak
            # memory does not depend on how many rounds fit in the run.
            del outcomes, result, read_back
            k += 1
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(measure_setup(setup_docs))

    rounds = untraced + traced
    as_timed = end_to_end(untraced, setup_times)
    e2e = scale_to_reference(as_timed, probe.speed(), workload.overrides["delay"],
                             workload.overrides["workers"])
    for name in ("samples_per_s", "counterexamples_per_s"):
        if not e2e[name] > 0:
            problems.append(f"{name} is {e2e[name]}: the workload found nothing")
    attempted = sum(r["dispatched"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    detail = {
        "workload": args.workload, "seed": args.seed, "host": facts,
        "numba_section": numba_info, "rounds": len(rounds),
        "samples": sum(r["samples"] for r in untraced),
        "failed_share": failed / attempted,
        "setup_runs": len(setup_times),
        "round_rates": [round(r["rate"], 2) for r in untraced],
        "host_speed": probe.speed(),
        "as_timed": as_timed,
    }
    if tracer:
        detail["samples_per_s"] = {
            "untraced": statistics.median(r["rate"] for r in untraced),
            "traced": statistics.median(r["rate"] for r in traced),
        }
    print(f"# {json.dumps(detail)}")
    n_samples = detail["samples"]
    pooled = f"{len(untraced)} rounds, {n_samples} samples"
    counts = {
        "samples_per_s": pooled,
        "counterexamples_per_s": f"{sum(r['counterexamples'] for r in untraced)} counterexamples",
        "sample_latency_p50_ms": f"geometric mean of {len(untraced[0]['campaign_latency_ms'])} "
                                 f"campaign medians, {n_samples} samples",
        "sample_latency_p99_ms": pooled,
        "setup_s": f"median of {len(setup_times)} interpreters",
        "peak_rss_mb": "this process",
    }
    print(f"# host speed {probe.speed():.4f} of the reference host; scaled figures "
          f"show their value as timed")
    for name, value in e2e.items():
        timed = "" if value == as_timed[name] else f"{as_timed[name]:.4f} as timed; "
        print(f"{name:<26} {value:>12.4f} {END_TO_END_UNITS[name]:<8} ({timed}{counts[name]})")
    print(f"{'failed_share':<26} {detail['failed_share']:>12.4f} {'fraction':<8} "
          f"({failed} of {attempted} dispatched)")

    metrics = e2e
    units = END_TO_END_UNITS
    if tracer:
        metrics, trace_problems = per_layer(tracer, traced, untraced, fixture_us)
        problems += trace_problems
        units = PER_LAYER_UNITS
        for name, value in metrics.items():
            print(f"{name:<34} {value:>14.4f} {units[name]}")
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 1 if problems else 0


def write_expected(path) -> int:
    """Record the exact outcome of every default-seed campaign."""
    import checks

    doc = {"seed": checks.DEFAULT_SEED, "rho_tolerance": checks.RHO_TOLERANCE,
           "workloads": {}}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        for name, workload in WORKLOADS.items():
            entries = {}
            _, outcomes = run_round(workload, checks.DEFAULT_SEED, out_dir)
            for key, result, read_back in outcomes:
                problems = checks.check_invariants(result, read_back)
                if problems:
                    raise SystemExit(f"{name} {key}: {problems}")
                entries[key] = checks.outcome(result)
            doc["workloads"][name] = entries
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=str(EXPECTED),
                        help="expected default-seed outcomes (JSON)")
    parser.add_argument("--write-expected", action="store_true",
                        help="re-record the default-seed outcomes and exit")
    args = parser.parse_args(argv)
    _import_package()
    if args.write_expected:
        return write_expected(args.expected)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        codes = []
        for name in WORKLOADS:
            print(f"== {name}", flush=True)
            codes.append(subprocess.run([
                sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--expected", args.expected,
            ]).returncode)
        return max(codes)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
