"""Acceptance gate: twelve end-to-end criteria, one printed verdict each.

Each test prints `ACCEPTANCE nn PASS|FAIL: <what was checked>` directly to
the terminal (bypassing capture) so a plain pytest run shows the per-criterion
ledger.  Tolerances and budgets are pinned in the assertions below.
"""

import dataclasses
import itertools
import json
import math
import random
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from falsify import bench
from falsify import rulebook as rb
from falsify.analysis import CampaignStats, ci_width_ratio, clopper_pearson
from falsify.campaign import (
    CampaignConfig,
    run_campaign,
    write_artifacts,
)
from falsify.rulebook import Dominance
from falsify.samplers import SampleFeedback, compute_ucb, make_sampler
from falsify.scenarios import (
    ScenarioConfig,
    default_feature_space,
    default_specification,
    simulate,
)
from falsify.space import Dimension, FeatureSpace

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(capsys, num, description):
    outcome = {"passed": False}
    try:
        yield outcome
        outcome["passed"] = True
    finally:
        verdict = "PASS" if outcome["passed"] else "FAIL"
        detail = outcome.get("detail", "")
        suffix = f" [{detail}]" if detail else ""
        with capsys.disabled():
            print(f"\nACCEPTANCE {num:02d} {verdict}: {description}{suffix}")


def experiment_named(name):
    return next(e for e in bench.EXPERIMENTS if e.name == name)


# ---------------------------------------------------------------------------


def test_criterion_01_partial_order_worked_example(capsys):
    with criterion(
        capsys, 1, "six-metric DAG worked dominance example, exact"
    ) as out:
        book = rb.build(6, [(0, 2), (0, 1), (1, 3), (2, 3), (4, 2), (2, 5)])
        a = [1, 1, 2, 1, 0, 1]
        b = [1, 1, 1, 1, 1, 1]
        assert book.dominates(a, b) is True
        assert book.strictly_dominates(b, a) is False
        out["detail"] = "dominates(a,b)=True, strict reverse=False"


def test_criterion_02_dominance_oracle_equivalence(capsys):
    with criterion(
        capsys, 2, "compare() matches brute-force formula on 10,000 instances"
    ) as out:
        rng = random.Random(20260815)
        start = time.perf_counter()
        checked = 0
        for _ in range(500):
            n = rng.randint(2, 6)
            order = list(range(n))
            rng.shuffle(order)
            pairs = list(itertools.combinations(range(n), 2))
            edges = [
                (order[i], order[j])
                for i, j in pairs
                if rng.random() < 0.4
            ]
            book = rb.build(n, edges)

            reach = [[False] * n for _ in range(n)]
            for i, j in edges:
                reach[i][j] = True
            for k in range(n):
                for i in range(n):
                    if reach[i][k]:
                        for j in range(n):
                            if reach[k][j]:
                                reach[i][j] = True

            def oracle_dominates(x, y):
                for i in range(n):
                    if y[i] < x[i]:
                        if not any(
                            reach[j][i] and x[j] < y[j] for j in range(n)
                        ):
                            return False
                return True

            for _ in range(20):
                a = [rng.randint(0, 2) for _ in range(n)]
                bvec = [rng.randint(0, 2) for _ in range(n)]
                left = oracle_dominates(a, bvec)
                right = oracle_dominates(bvec, a)
                if left and right:
                    expected = Dominance.EQUIVALENT
                elif left:
                    expected = Dominance.LEFT_DOMINATES
                elif right:
                    expected = Dominance.RIGHT_DOMINATES
                else:
                    expected = Dominance.INCOMPARABLE
                assert book.compare(a, bvec) is expected
                assert book.dominates(a, bvec) is left
                checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 10000
        assert elapsed < 5.0
        out["detail"] = f"10000 exact matches in {elapsed:.2f}s"


def test_criterion_03_ucb_arithmetic(capsys):
    with criterion(
        capsys, 3, "UCB worked value 2.01743 +/- 1e-5; t=1 collapses to mu-hat"
    ) as out:
        value = compute_ucb(0.5, 4, 100)
        assert value == pytest.approx(2.01743, abs=1e-5)
        for mu in (0.0, 0.25, 0.5, 1.0):
            assert compute_ucb(mu, 7, 1) == mu
        out["detail"] = f"compute_ucb(0.5,4,100)={value:.7f}"


def test_criterion_04_mab_bookkeeping_invariants(capsys):
    with criterion(
        capsys, 4, "random 1000-step feedback keeps visit/count/antichain invariants"
    ) as out:
        start = time.perf_counter()
        books = (rb.total_order(3), rb.build(5, [(0, 2), (2, 4), (1, 3), (3, 4)]),
                 rb.disconnected(4))
        for case, book in enumerate(books):
            m = book.metric_count
            space = FeatureSpace(
                [Dimension(f"f{i}", 0.0, 1.0) for i in range(2 + case)],
                bucket_count=6,
            )
            sampler = make_sampler("mab", space, seed=case, rulebook=book)
            rng = random.Random(case)
            for _ in range(1000):
                sample = sampler.next_sample()
                rho = tuple(rng.choice((-1.0, 0.5)) for _ in range(m))
                sampler.update(SampleFeedback.from_rho(sample, rho))

            for d in range(space.d):
                assert int(sampler.visits[d].sum()) == 1000
            for counts in sampler.counts.values():
                assert np.all(counts <= sampler.visits)
                assert np.all(counts >= 0)
            keys = list(sampler.counts.keys())
            for x, y in itertools.permutations(keys, 2):
                assert not book.bits_strictly_dominates(x, y)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0
        out["detail"] = f"3 rulebooks x 1000 steps in {elapsed:.2f}s"


def test_criterion_05_mab_concentration(capsys):
    with criterion(
        capsys,
        5,
        "unsafe bucket gets >50% of post-init visits in >=8/10 seeds (d=2, N=10)",
    ) as out:
        space = FeatureSpace(
            [Dimension("u", 0.0, 1.0), Dimension("w", 0.0, 1.0)], bucket_count=10
        )
        target = (3, 7)
        samples, init = 500, 10
        good_seeds = 0
        shares_seen = []
        for seed in range(10):
            sampler = make_sampler("mab", space, seed, rulebook=rb.disconnected(1))
            for _ in range(samples):
                sample = sampler.next_sample()
                bad = tuple(sample.buckets) == target
                sampler.update(
                    SampleFeedback.from_rho(sample, (-1.0 if bad else 1.0,))
                )
            shares = [
                (sampler.visits[d, target[d]] - 1) / (samples - init)
                for d in range(2)
            ]
            shares_seen.append(min(shares))
            if all(s > 0.5 for s in shares):
                good_seeds += 1
        assert good_seeds >= 8
        out["detail"] = f"{good_seeds}/10 seeds, min share {min(shares_seen):.2f}"


def test_criterion_06_sampler_balance(capsys):
    with criterion(
        capsys,
        6,
        "two-region medians: MAB count >= 0.7x CE, diversity >= CE, count >= Halton",
    ) as out:
        entry = bench.run_experiment(experiment_named("sampler_balance"))
        assert entry["passed"], entry
        measured = {c["description"]: c["measured"] for c in entry["checks"]}
        out["detail"] = "; ".join(
            f"{m}" for m in measured.values()
        )


def test_criterion_07_parallel_speedup(capsys):
    with criterion(
        capsys, 7,
        "W=5, 0.2s delay, equal 60s walls: sample ratio in [3, 5(n_s+1)/n_s]",
    ) as out:
        entry = bench.run_experiment(experiment_named("speedup"))
        assert entry["passed"], entry
        measured = entry["checks"][0]["measured"]
        serial, parallel = measured["serial_samples"], measured["parallel_samples"]
        # One sample of rounding per worker at the wall cut-off: see
        # bench._run_speedup.
        assert 3 * serial <= parallel <= 5 * (serial + 1)
        out["detail"] = (
            f"serial={serial} parallel={parallel} ratio={measured['ratio']:.3f} "
            f"upper={measured['upper']:.3f}"
        )


def test_criterion_08_feedback_integrity_under_parallelism(capsys):
    with criterion(
        capsys, 8, "W=8 jittered workers, budget 400: every feedback applied once"
    ) as out:
        start = time.perf_counter()
        scenario = ScenarioConfig("intersection", adversaries=5)
        spec = default_specification(scenario)
        config = CampaignConfig(
            space=default_feature_space(scenario),
            scenario=scenario,
            spec=spec,
            rulebook=rb.build(5, [(0, 2), (2, 4), (1, 3), (3, 4)]),
            sampler_name="mab",
            max_samples=400,
            workers=8,
            seed=17,
        )
        jitter = random.Random(99)

        def jittered(cfg, sample):
            time.sleep(jitter.random() * 0.003)
            return simulate(cfg.scenario, sample)

        result = run_campaign(config, simulate_fn=jittered)
        assert result.dispatched == len(result.records) + result.failed
        assert result.failed == 0
        snapshot = result.snapshot
        assert snapshot["completed"] == 400
        visits = np.asarray(snapshot["visits"])
        assert visits.shape == (config.space.d, config.space.bucket_count)
        assert np.all(visits.sum(axis=1) == 400)
        for counts in snapshot["maximal_counts"]:
            counts = np.asarray(counts)
            assert np.all(counts <= visits)
        keys = [tuple(bool(x) for x in key) for key in snapshot["maximal"]]
        for x, y in itertools.permutations(keys, 2):
            assert not config.rulebook.bits_strictly_dominates(x, y)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        out["detail"] = (
            f"400 samples, {len(keys)} maximal keys, {elapsed:.1f}s"
        )


def test_criterion_09_clopper_pearson(capsys):
    with criterion(
        capsys, 9, "CP worked endpoints +/- 1e-4; exact-tail oracle to 1e-6, n<=50"
    ) as out:
        start = time.perf_counter()
        lo0, hi0 = clopper_pearson(0, 10, 0.95)
        assert lo0 == 0.0
        assert hi0 == pytest.approx(0.30850, abs=1e-4)
        lo1, hi1 = clopper_pearson(10, 10, 0.95)
        assert hi1 == 1.0
        assert lo1 == pytest.approx(0.69150, abs=1e-4)

        def tail_ge(k, n, p):  # P[X >= k]
            return sum(
                math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1)
            )

        def tail_le(k, n, p):  # P[X <= k]
            return sum(
                math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(0, k + 1)
            )

        def bisect(fn, lo, hi, target):
            for _ in range(60):
                mid = (lo + hi) / 2.0
                if fn(mid) < target:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2.0

        alpha = 0.05
        for n in range(1, 51):
            for k in range(0, n + 1):
                lo, hi = clopper_pearson(k, n, 0.95)
                want_lo = (
                    0.0
                    if k == 0
                    else bisect(lambda p: tail_ge(k, n, p), 0.0, 1.0, alpha / 2)
                )
                want_hi = (
                    1.0
                    if k == n
                    else bisect(lambda p: -tail_le(k, n, p), 0.0, 1.0, -alpha / 2)
                )
                assert lo == pytest.approx(want_lo, abs=1e-6)
                assert hi == pytest.approx(want_hi, abs=1e-6)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        out["detail"] = f"all (k, n<=50) to 1e-6 in {elapsed:.2f}s"


def _stats_for(k, n, sampler="halton"):
    lo, hi = clopper_pearson(k, n, 0.95)
    return CampaignStats(
        scenario_id="1",
        sampler=sampler,
        samples=n,
        counterexamples=k,
        proportion=k / n,
        confidence=0.95,
        ci_lo=lo,
        ci_hi=hi,
        bucket_histograms={},
        distinct_combinations=k,
        maximal_set_size=1,
        wall_seconds=1.0,
    )


def test_criterion_10_ci_width_scaling(capsys):
    with criterion(
        capsys, 10, "fixed proportion, n_p = 4 n_s: width ratio in [0.4, 0.6]"
    ) as out:
        ratios = []
        for prop, n_s in ((0.05, 80), (0.2, 60), (0.5, 100), (0.1, 200)):
            k_s = int(round(prop * n_s))
            parallel = _stats_for(4 * k_s, 4 * n_s)
            serial = _stats_for(k_s, n_s)
            ratio = ci_width_ratio(parallel, serial)
            ratios.append(ratio)
            assert 0.4 <= ratio <= 0.6, (prop, n_s, ratio)
        out["detail"] = "ratios " + ", ".join(f"{r:.3f}" for r in ratios)


def test_criterion_11_multi_objective_ordering(capsys):
    with criterion(
        capsys,
        11,
        "m=5 ladder: parallel-graph >= serial-graph >= disconnected; CE baseline 0",
    ) as out:
        entry = bench.run_experiment(experiment_named("multi_objective"))
        assert entry["passed"], entry
        ladder = entry["checks"][0]["measured"]
        baseline = entry["checks"][1]["measured"]["counts"]
        assert statistics.median(baseline) == 0
        out["detail"] = (
            f"medians {ladder['graph_parallel']} >= {ladder['graph_serial']} "
            f">= {ladder['disconnected']}; baseline counts {baseline}"
        )


TIMING_FIELDS = ("t_dispatch", "t_complete", "sim_seconds")


def _canonical_records(run_dir):
    lines = []
    for line in (run_dir / "records.jsonl").read_text().splitlines():
        doc = json.loads(line)
        for field in TIMING_FIELDS:
            doc.pop(field)
        lines.append(json.dumps(doc, sort_keys=True))
    return "\n".join(lines).encode()


def test_criterion_12_determinism(capsys, tmp_path):
    with criterion(
        capsys,
        12,
        "fixed-seed reruns byte-identical (sans timestamps); Halton W-independent",
    ) as out:
        start = time.perf_counter()
        scenario = ScenarioConfig("two_region")
        spec = default_specification(scenario)
        config = CampaignConfig(
            space=default_feature_space(scenario),
            scenario=scenario,
            spec=spec,
            rulebook=rb.disconnected(len(spec)),
            sampler_name="mab",
            max_samples=60,
            seed=31,
        )
        dirs = []
        for rep in range(2):
            result = run_campaign(config)
            out_dir = tmp_path / f"rep{rep}"
            write_artifacts(result, out_dir)
            dirs.append(out_dir)
        blob_a = _canonical_records(dirs[0])
        blob_b = _canonical_records(dirs[1])
        assert blob_a == blob_b

        jitter = random.Random(7)

        def jittered(cfg, sample):
            time.sleep(jitter.random() * 0.002)
            return simulate(cfg.scenario, sample)

        halton = dataclasses.replace(
            config, sampler_name="halton", max_samples=48
        )
        multisets = []
        for workers in (1, 4):
            result = run_campaign(
                dataclasses.replace(halton, workers=workers),
                simulate_fn=jittered,
            )
            multisets.append(sorted(tuple(r.sample.values) for r in result.records))
        assert multisets[0] == multisets[1]
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        out["detail"] = (
            f"{len(blob_a)} canonical bytes equal; 48-sample Halton multiset "
            f"identical for W=1 and W=4 ({elapsed:.1f}s)"
        )
