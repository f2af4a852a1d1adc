"""Correctness checks for the campaign benchmark.

Every campaign is checked against invariants that hold for any seed:
no sample failed, ids are dense, every verdict bit equals ``rho < 0``,
the artifacts read back equal the result, the maximal set is an
antichain under the rulebook and equals the maximal elements of the
error table, and Halton values match the sampler's own stream.

Each campaign recorded in ``expected.json`` (all of them at the default
seed; the fixed MAB campaigns at every seed) is also compared with its
exact outcome: completed, failed and
counterexample counts, per-metric violation counts, the final maximal
set and every verdict bit.  Robustness values are compared within
``RHO_TOLERANCE`` only, so a kernel that changes last-bit rounding but
keeps every verdict still passes.
"""

from __future__ import annotations

import time

import numpy as np

from falsify import kinematics, monitor, samplers, scenarios

DEFAULT_SEED = 0
CATALOG = tuple(str(i) for i in range(1, 8))  # the seven road scenarios
RHO_TOLERANCE = 1e-6  # metres, absolute


def bits_text(bits) -> str:
    return "".join("1" if b else "0" for b in bits)


def outcome(result) -> dict:
    """The exact facts of one campaign that the default seed pins down."""
    metric_count = len(result.config.spec)
    return {
        "completed": len(result.records),
        "failed": result.failed,
        "counterexamples": len(result.error_table),
        "violations": [
            sum(1 for r in result.records if r.b[m]) for m in range(metric_count)
        ],
        "maximal": sorted(bits_text(m) for m in result.maximal),
        "bits": [bits_text(r.b) for r in result.records],
        # Rounded well inside RHO_TOLERANCE to keep expected.json small.
        "rho": [[round(x, 9) for x in r.rho] for r in result.records],
    }


def _maximal_elements(book, vectors) -> set:
    return {
        v for v in vectors
        if not any(book.bits_strictly_dominates(w, v) for w in vectors)
    }


def check_invariants(result, read_back) -> list[str]:
    """Properties every campaign satisfies whatever its seed."""
    cfg = result.config
    problems = []
    if result.failed:
        problems.append(f"{result.failed} of {result.dispatched} samples failed")
    ids = [r.id for r in result.records]
    if ids != list(range(result.dispatched)):
        problems.append("record ids are not dense over dispatched samples")
    for r in result.records:
        if r.b != tuple(x < 0.0 for x in r.rho):
            problems.append(f"sample {r.id}: verdict bits disagree with rho")
            break
    if [r.to_json_dict() for r in read_back] != [
        r.to_json_dict() for r in result.records
    ]:
        problems.append("records read back from the artifacts differ from the result")
    book = cfg.rulebook
    maximal = [tuple(m) for m in result.maximal]
    for a in maximal:
        for b in maximal:
            if a != b and book.bits_strictly_dominates(a, b):
                problems.append(f"maximal set is not an antichain: {a} > {b}")
    falsified = {r.b for r in result.error_table}
    if set(maximal) != _maximal_elements(book, falsified):
        problems.append("maximal set differs from the maximal error-table vectors")
    if cfg.sampler_name == "halton":
        stream = samplers.make_sampler("halton", cfg.space, cfg.seed)
        for r in result.records:
            if stream.next_sample() != r.sample:
                problems.append(f"sample {r.id}: values differ from the Halton stream")
                break
    return problems


def compare_expected(got: dict, want: dict) -> list[str]:
    """Exact counts and bits, rho within RHO_TOLERANCE."""
    problems = [
        f"{key}: expected {want[key]!r}, got {got[key]!r}"
        for key in ("completed", "failed", "counterexamples", "violations", "maximal")
        if got[key] != want[key]
    ]
    if got["bits"] != want["bits"]:
        first = next(
            (i for i, (a, b) in enumerate(zip(got["bits"], want["bits"])) if a != b),
            min(len(got["bits"]), len(want["bits"])),
        )
        problems.append(f"verdict bits differ, first at sample {first}")
    if len(got["rho"]) == len(want["rho"]):
        worst = max(
            (abs(a - b) for ga, wa in zip(got["rho"], want["rho"])
             for a, b in zip(ga, wa)),
            default=0.0,
        )
        if worst > RHO_TOLERANCE:
            problems.append(f"rho differs by {worst:.3g} > {RHO_TOLERANCE}")
    return problems


def fixture_scene(scenario_id: str):
    cfg = scenarios.ScenarioConfig(scenario_id)
    return cfg, scenarios.build_scene(cfg, scenarios.known_unsafe_values(cfg))


def check_known_unsafe() -> list[str]:
    """Every catalog fixture still falsifies, with its recorded rho."""
    problems = []
    for sid in CATALOG:
        cfg = scenarios.ScenarioConfig(sid)
        fixture = scenarios.load_known_unsafe(sid)
        traj = scenarios.simulate(cfg, scenarios.known_unsafe_values(cfg))
        rho = monitor.evaluate(scenarios.default_specification(cfg), traj)
        if not monitor.is_counterexample(rho):
            problems.append(f"known-unsafe fixture {sid} no longer falsifies")
        drift = max(abs(a - b) for a, b in zip(rho, fixture["rho"]))
        if drift > RHO_TOLERANCE:
            problems.append(f"known-unsafe fixture {sid}: rho differs by {drift:.3g}")
    return problems


def time_fixture_kernels(repeats: int) -> dict[str, float]:
    """Median run_scene time per catalog fixture, in microseconds."""
    out = {}
    for sid in CATALOG:
        cfg, scene = fixture_scene(sid)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            kinematics.run_scene(scene, dt=cfg.dt, max_frames=cfg.max_frames)
            times.append(time.perf_counter_ns() - t0)
        out[sid] = float(np.median(times)) / 1e3
    return out


def numba_section(repeats: int = 20) -> tuple[dict, list[str]]:
    """Compiled-vs-Python kernel: bit identity and speed-up, if numba imports."""
    backends = kinematics.kernel_functions()
    if "numba" not in backends:
        return {"status": "skipped: numba unavailable"}, []
    problems = []
    speedups = {}
    for sid in CATALOG:
        cfg, scene = fixture_scene(sid)
        outputs, timings = {}, {}
        for name in ("numba", "python"):
            outputs[name] = kinematics.run_scene(
                scene, dt=cfg.dt, max_frames=cfg.max_frames, backend=name
            )
            t0 = time.perf_counter()
            for _ in range(repeats):
                kinematics.run_scene(
                    scene, dt=cfg.dt, max_frames=cfg.max_frames, backend=name
                )
            timings[name] = (time.perf_counter() - t0) / repeats
        for a, b in zip(outputs["numba"], outputs["python"]):
            if not np.array_equal(a, b):
                problems.append(f"scenario {sid}: numba and python kernels diverge")
                break
        speedups[sid] = timings["python"] / timings["numba"]
    return {"status": "ran", "speedup": speedups}, problems
