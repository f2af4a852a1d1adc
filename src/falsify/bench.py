"""Experiment suite: scripted campaigns with machine-checked assertions.

Each experiment loads shipped campaign configs (``falsify/data/experiments``),
runs them (varying only the seed where an assertion is statistical), measures
an outcome, and checks it against an expected property.  A failing experiment
is reported but does not stop the rest of the suite.

Statistical assertions compare medians over ten seeds; serial experiments are
otherwise deterministic for a fixed seed.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import sys
import time
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from .campaign import CampaignResult, run_campaign
from .config import CampaignConfig, parse_config
from .errors import ConfigError

SEEDS = tuple(range(10))


@dataclass(frozen=True)
class Check:
    """One verified property with the values that went into the verdict."""

    description: str
    passed: bool
    measured: dict


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    config_names: tuple[str, ...]
    runner: Callable[[dict[str, CampaignConfig]], list[Check]]


def load_experiment_config(name: str) -> CampaignConfig:
    """Parse one shipped experiment config by file stem."""
    root = resources.files("falsify.data").joinpath("experiments")
    path = root.joinpath(f"{name}.json")
    if not path.is_file():
        available = sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))
        raise ConfigError(f"no shipped experiment config {name!r}; available: {available}")
    return parse_config(json.loads(path.read_text()))


def _counterexamples(result: CampaignResult) -> int:
    return len(result.error_table)


def _diversity(result: CampaignResult) -> int:
    return len({r.sample.buckets for r in result.records if r.is_counterexample})


def metrics_falsified(result: CampaignResult) -> int:
    """Number of metrics violated by at least one record."""
    hit = set()
    for rec in result.records:
        for j, bit in enumerate(rec.b):
            if bit:
                hit.add(j)
    return len(hit)


def _seeded_runs(config: CampaignConfig, measure, seeds=SEEDS) -> list:
    return [
        measure(run_campaign(dataclasses.replace(config, seed=seed)))
        for seed in seeds
    ]


# ---------------------------------------------------------------------------
# experiment bodies


def _run_sweep(configs: dict[str, CampaignConfig]) -> list[Check]:
    checks = []
    for name, config in sorted(configs.items()):
        result = run_campaign(config)
        found = _counterexamples(result)
        checks.append(
            Check(
                f"{name}: finds at least one counterexample",
                found >= 1,
                {"counterexamples": found, "samples": len(result.records)},
            )
        )
    return checks


def _run_speedup(configs: dict[str, CampaignConfig]) -> list[Check]:
    serial = run_campaign(configs["speedup_serial"])
    parallel = run_campaign(configs["speedup_parallel"])
    n_s, n_p = len(serial.records), len(parallel.records)
    lanes = configs["speedup_parallel"].workers
    # Both runs take samples until the same wall budget is spent, and a
    # sample taken before the cut-off still completes.  Every sample costs
    # the same delay floor plus a little overhead, so the cut-off can round
    # a worker's count up where it rounded the serial run's down: one
    # sample more per worker, W * (n_s + 1) in all, a ratio of
    # W * (n_s + 1) / n_s rather than the ideal W.
    return [
        Check(
            "completed-sample ratio parallel/serial lies in [3, W(n_s+1)/n_s]",
            3 * n_s <= n_p <= lanes * (n_s + 1),
            {
                "serial_samples": n_s,
                "parallel_samples": n_p,
                "ratio": n_p / n_s,
                "upper": lanes * (n_s + 1) / n_s,
            },
        )
    ]


def _run_balance(configs: dict[str, CampaignConfig]) -> list[Check]:
    med = {}
    for key, config in configs.items():
        runs = _seeded_runs(config, lambda r: (_counterexamples(r), _diversity(r)))
        counts, divs = [c for c, _ in runs], [d for _, d in runs]
        med[key] = {
            "count": statistics.median(counts),
            "diversity": statistics.median(divs),
            "counts": counts,
            "diversities": divs,
        }
    mab = med["balance_mab"]
    ce = med["balance_cross_entropy"]
    halton = med["balance_halton"]
    return [
        Check(
            "median MAB counterexample count >= 0.7 x cross-entropy count",
            mab["count"] >= 0.7 * ce["count"],
            {"mab": mab["count"], "cross_entropy": ce["count"]},
        ),
        Check(
            "median MAB counterexample diversity >= cross-entropy diversity",
            mab["diversity"] >= ce["diversity"],
            {"mab": mab["diversity"], "cross_entropy": ce["diversity"]},
        ),
        Check(
            "median MAB counterexample count >= Halton count",
            mab["count"] >= halton["count"],
            {"mab": mab["count"], "halton": halton["count"]},
        ),
    ]


def _run_multi_objective(configs: dict[str, CampaignConfig]) -> list[Check]:
    med = {
        key: statistics.median(_seeded_runs(config, metrics_falsified))
        for key, config in configs.items()
        if key != "multiobj_disjunction"
    }
    baseline_counts = _seeded_runs(
        configs["multiobj_disjunction"], _counterexamples
    )
    ladder_ok = (
        med["multiobj_graph_parallel"]
        >= med["multiobj_graph_serial"]
        >= med["multiobj_disconnected"]
    )
    return [
        Check(
            "median metrics-falsified: parallel graph >= serial graph >= disconnected",
            ladder_ok,
            {
                "graph_parallel": med["multiobj_graph_parallel"],
                "graph_serial": med["multiobj_graph_serial"],
                "disconnected": med["multiobj_disconnected"],
            },
        ),
        Check(
            "median all-metrics-disjunction cross-entropy counterexamples == 0",
            statistics.median(baseline_counts) == 0,
            {"counts": baseline_counts},
        ),
    ]


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        name="scenario_sweep",
        description=(
            "Each of the seven road scenarios yields at least one "
            "counterexample under 200 deterministic Halton samples."
        ),
        config_names=tuple(f"sweep_scenario_{i}" for i in "1234567"),
        runner=_run_sweep,
    ),
    Experiment(
        name="speedup",
        description=(
            "Five workers with a 0.2 s per-sample delay complete at least 3x "
            "the samples of a serial run under equal 60 s wall budgets, and at "
            "most 5x with one sample of rounding per worker."
        ),
        config_names=("speedup_serial", "speedup_parallel"),
        runner=_run_speedup,
    ),
    Experiment(
        name="sampler_balance",
        description=(
            "On the two-region landscape the bandit keeps counterexample "
            "volume near cross-entropy levels while covering more distinct "
            "regions, and beats Halton on volume (medians over ten seeds)."
        ),
        config_names=("balance_mab", "balance_cross_entropy", "balance_halton"),
        runner=_run_balance,
    ),
    Experiment(
        name="multi_objective",
        description=(
            "Five-adversary intersection: metrics-falsified medians order "
            "parallel-graph >= serial-graph >= disconnected, while "
            "cross-entropy on the all-metrics disjunction finds nothing."
        ),
        config_names=(
            "multiobj_disconnected",
            "multiobj_graph_serial",
            "multiobj_graph_parallel",
            "multiobj_disjunction",
        ),
        runner=_run_multi_objective,
    ),
)


def run_experiment(experiment: Experiment) -> dict:
    configs = {name: load_experiment_config(name) for name in experiment.config_names}
    start = time.perf_counter()
    try:
        checks = experiment.runner(configs)
        error = None
    except Exception as exc:  # an experiment crash must not stop the suite
        checks = []
        error = f"{type(exc).__name__}: {exc}"
    entry = {
        "name": experiment.name,
        "description": experiment.description,
        "configs": list(experiment.config_names),
        "seconds": round(time.perf_counter() - start, 3),
        "checks": [dataclasses.asdict(c) for c in checks],
        "passed": error is None and bool(checks) and all(c.passed for c in checks),
    }
    if error is not None:
        entry["error"] = error
    return entry


def run_suite(pattern: str = "") -> tuple[dict, bool]:
    """Run every experiment whose name contains `pattern`."""
    selected = [e for e in EXPERIMENTS if pattern in e.name]
    entries = [run_experiment(e) for e in selected]
    all_passed = all(e["passed"] for e in entries)
    report = {
        "pattern": pattern,
        "matched": len(entries),
        "passed": all_passed,
        "experiments": entries,
    }
    return report, all_passed


def print_table(report: dict, file=None) -> None:
    file = file or sys.stdout
    width = max((len(e["name"]) for e in report["experiments"]), default=10)
    print(f"{'experiment':<{width}}  result  seconds", file=file)
    print(f"{'-' * width}  ------  -------", file=file)
    for entry in report["experiments"]:
        verdict = "PASS" if entry["passed"] else "FAIL"
        print(
            f"{entry['name']:<{width}}  {verdict:<6}  {entry['seconds']:>7.1f}",
            file=file,
        )
        for check in entry["checks"]:
            mark = "ok" if check["passed"] else "FAILED"
            print(f"    [{mark}] {check['description']}", file=file)
            print(f"         measured: {json.dumps(check['measured'])}", file=file)
        if "error" in entry:
            print(f"    [FAILED] crashed: {entry['error']}", file=file)
    total = sum(e["seconds"] for e in report["experiments"])
    overall = "PASS" if report["passed"] else "FAIL"
    print(
        f"\n{report['matched']} experiment(s), {total:.1f}s total: {overall}",
        file=file,
    )
