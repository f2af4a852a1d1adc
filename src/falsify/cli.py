"""Command-line interface.

Commands
--------
falsify run CONFIG [flags]       run a campaign, write artifacts
falsify report RUN_DIR           stats JSON on stdout + scatter CSV
falsify compare RUN_A RUN_B      comparison JSON (A relative to B)
falsify scenarios                print the scenario catalog
falsify bench run [PATTERN]      run the experiment suite

Exit codes: 0 success, 2 configuration error, 3 runtime abort.
Diagnostics go to standard error; structured output to standard out.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from .analysis import ci_width_ratio, coverage_stats, speedup_factor
from .campaign import (
    CampaignError,
    CampaignInterrupted,
    CampaignResult,
    read_result,
    run_campaign,
    write_artifacts,
)
from .config import load_config
from .errors import ConfigError, FalsifyError
from .scenarios import list_scenarios, simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

TRAJECTORIES_FILE = "trajectories.jsonl"
SCATTER_CSV = "scatter.csv"


def _fail(message: str, code: int) -> int:
    print(f"falsify: error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# run


def _apply_overrides(config, args):
    updates = {}
    if args.workers is not None:
        updates["workers"] = args.workers
    if args.delay is not None:
        updates["delay"] = args.delay
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.budget_samples is not None:
        updates["max_samples"] = args.budget_samples
    if args.budget_seconds is not None:
        updates["max_wall_seconds"] = args.budget_seconds
    if args.sampler is not None:
        updates["sampler_name"] = args.sampler
    if args.output is not None:
        updates["output_dir"] = args.output
    if updates:
        config = dataclasses.replace(config, **updates)
    return config


def _dump_trajectories(result: CampaignResult, out_dir: Path) -> None:
    """Re-simulate each recorded sample and log one frame per line."""
    path = out_dir / TRAJECTORIES_FILE
    with path.open("w") as fh:
        for rec in result.records:
            traj = simulate(result.config.scenario, rec.sample.values)
            for frame in range(traj.frame_count):
                line = {
                    "sample": rec.id,
                    "frame": frame,
                    "t": round(frame * traj.dt, 6),
                    "agents": {
                        name: {
                            "x": float(traj.positions[frame, a, 0]),
                            "y": float(traj.positions[frame, a, 1]),
                            "heading": float(traj.headings[frame, a]),
                            "speed": float(traj.speeds[frame, a]),
                        }
                        for a, name in enumerate(traj.agents)
                    },
                }
                fh.write(json.dumps(line) + "\n")


def cmd_run(args) -> int:
    try:
        config = load_config(args.config)
        config = _apply_overrides(config, args)
        if config.output_dir is None:
            raise ConfigError(
                "no output directory: set output_dir in the config or pass --output"
            )
    except FalsifyError as exc:
        return _fail(str(exc), EXIT_CONFIG)

    out_dir = Path(config.output_dir)
    try:  # before the campaign, so that its results have somewhere to go
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(f"cannot create output directory {out_dir}: "
                     f"{exc.strerror or exc}", EXIT_CONFIG)
    try:
        result = run_campaign(config)
    except (CampaignError, CampaignInterrupted) as exc:
        write_artifacts(exc.partial, out_dir)
        print(
            f"partial artifacts written to {out_dir}", file=sys.stderr
        )
        return _fail(str(exc), EXIT_RUNTIME)

    paths = {k: str(v) for k, v in write_artifacts(result, out_dir).items()}
    if args.dump_trajectories:
        _dump_trajectories(result, out_dir)
        paths["trajectories"] = str(out_dir / TRAJECTORIES_FILE)
    print(
        json.dumps(
            {"output_dir": str(out_dir), "totals": result.totals, "files": paths},
            indent=2,
        )
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def _ci_note(stats) -> str:
    return (
        f"confidence interval omitted: the {stats.sampler!r} sampler adapts "
        "to feedback, so its hit rate is a biased estimate of the unsafe "
        "probability"
    )


def cmd_report(args) -> int:
    try:
        result = read_result(args.run_dir)
        stats = coverage_stats(result)
    except FalsifyError as exc:
        return _fail(str(exc), EXIT_CONFIG)

    doc = dataclasses.asdict(stats)
    if not stats.has_ci:
        doc["note"] = _ci_note(stats)

    scatter = Path(args.output) if args.output else Path(args.run_dir) / SCATTER_CSV
    names = result.config.space.names
    with scatter.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["counterexample"])
        for rec in result.records:
            writer.writerow(
                [repr(v) for v in rec.sample.values] + [int(rec.is_counterexample)]
            )
    doc["scatter_csv"] = str(scatter)

    print(json.dumps(doc, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare


def cmd_compare(args) -> int:
    try:
        res_a = read_result(args.run_dir_a)
        res_b = read_result(args.run_dir_b)
        if res_a.config.scenario != res_b.config.scenario:
            raise ConfigError(
                "runs cover different scenarios: "
                f"{res_a.config.scenario.scenario_id!r} (adversaries="
                f"{res_a.config.scenario.adversaries}) vs "
                f"{res_b.config.scenario.scenario_id!r} (adversaries="
                f"{res_b.config.scenario.adversaries})"
            )
        names_a = res_a.config.spec.names
        names_b = res_b.config.spec.names
        if names_a != names_b:
            raise ConfigError(
                f"runs monitor different metrics: {names_a} vs {names_b}"
            )
        stats_a = coverage_stats(res_a)
        stats_b = coverage_stats(res_b)
    except FalsifyError as exc:
        return _fail(str(exc), EXIT_CONFIG)

    doc = {
        "scenario": stats_a.scenario_id,
        "a": {"run_dir": str(args.run_dir_a), **dataclasses.asdict(stats_a)},
        "b": {"run_dir": str(args.run_dir_b), **dataclasses.asdict(stats_b)},
        "speedup_factor": speedup_factor(stats_a.samples, stats_b.samples),
        "counterexamples": {
            "a": stats_a.counterexamples,
            "b": stats_b.counterexamples,
        },
        "diversity": {
            "a": stats_a.distinct_combinations,
            "b": stats_b.distinct_combinations,
        },
    }
    if stats_a.has_ci and stats_b.has_ci:
        doc["ci_width_ratio"] = ci_width_ratio(stats_a, stats_b)
    else:
        doc["ci_width_ratio"] = None
        lacking = stats_a if not stats_a.has_ci else stats_b
        doc["ci_width_ratio_note"] = _ci_note(lacking)

    print(json.dumps(doc, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# scenarios / bench


def cmd_scenarios(args) -> int:
    catalog = list_scenarios()
    if args.json:
        print(json.dumps(catalog, indent=2))
        return EXIT_OK
    for entry in catalog:
        print(f"{entry['id']}: {entry['description']}")
        print(f"  agents: {', '.join(entry['agents'])}")
        for feat in entry["features"]:
            print(
                f"  {feat['name']} in [{feat['lo']}, {feat['hi']}] - "
                f"{feat['description']}"
            )
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import bench

    report, all_passed = bench.run_suite(args.pattern)
    bench.print_table(report, file=sys.stdout)
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2))
        print(f"report written to {args.output}", file=sys.stderr)
    return EXIT_OK if all_passed else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="falsify",
        description="Search scenario spaces for specification counterexamples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a campaign from a config file")
    p_run.add_argument("config", help="path to a campaign JSON file")
    p_run.add_argument("--workers", type=int, help="override worker count")
    p_run.add_argument("--delay", type=float, help="artificial per-sample delay (s)")
    p_run.add_argument("--seed", type=int, help="override the campaign seed")
    p_run.add_argument(
        "--budget-samples", type=int, help="override the sample budget"
    )
    p_run.add_argument(
        "--budget-seconds", type=float, help="override the wall-clock budget (s)"
    )
    p_run.add_argument("--sampler", help="override the sampling strategy")
    p_run.add_argument("--output", help="override the output directory")
    p_run.add_argument(
        "--dump-trajectories",
        action="store_true",
        help="re-simulate each sample and log one frame per line",
    )
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="summarize a finished run")
    p_rep.add_argument("run_dir", help="directory holding run artifacts")
    p_rep.add_argument(
        "--output", help=f"path for the scatter CSV (default RUN_DIR/{SCATTER_CSV})"
    )
    p_rep.set_defaults(func=cmd_report)

    p_cmp = sub.add_parser(
        "compare", help="compare two runs of the same scenario (A relative to B)"
    )
    p_cmp.add_argument("run_dir_a")
    p_cmp.add_argument("run_dir_b")
    p_cmp.set_defaults(func=cmd_compare)

    p_sc = sub.add_parser("scenarios", help="print the scenario catalog")
    p_sc.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_sc.set_defaults(func=cmd_scenarios)

    p_bench = sub.add_parser("bench", help="experiment suite")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_bench_run = bench_sub.add_parser("run", help="run experiments")
    p_bench_run.add_argument(
        "pattern", nargs="?", default="", help="substring filter on experiment names"
    )
    p_bench_run.add_argument("--output", help="write the JSON report here")
    p_bench_run.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
