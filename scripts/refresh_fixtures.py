#!/usr/bin/env python3
"""Regenerate the known-unsafe fixture file by grid search.

For every scenario, scan a coarse grid over its feature ranges, keep the
point with the most negative robustness, and store it with the measured
objective vector.  Tests consume the fixture to guarantee that each
scenario's falsification problem is solvable.

Usage: python3 scripts/refresh_fixtures.py [output_path]
"""

import argparse
import itertools
import json
from pathlib import Path

import numpy as np

from falsify import scenarios as sc
from falsify.monitor import evaluate

GRID_BUDGET = 5000


def grid_points(lo: float, hi: float, k: int) -> np.ndarray:
    pad = 1e-9 * max(1.0, abs(hi))
    return np.linspace(lo, hi - pad, k)


def search(cfg: sc.ScenarioConfig) -> dict:
    space = sc.default_feature_space(cfg)
    spec = sc.default_specification(cfg)
    d = space.d
    k = max(2, int(GRID_BUDGET ** (1.0 / d)))
    axes = [grid_points(dim.lo, dim.hi, k) for dim in space.dims]
    best_rho = None
    best_point = None
    for point in itertools.product(*axes):
        rho = evaluate(spec, sc.simulate(cfg, point))
        if best_rho is None or rho.min() < best_rho.min():
            best_rho = rho
            best_point = point
    return {
        "values": dict(zip(space.names, [float(v) for v in best_point])),
        "rho": [float(r) for r in best_rho],
        "grid_points_per_dim": k,
    }


DEFAULT_OUTPUT = (
    Path(__file__).resolve().parents[1] / "src" / "falsify" / "data" / "known_unsafe.json"
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "output", nargs="?", type=Path, default=DEFAULT_OUTPUT,
        help="where to write the fixture JSON "
        "(default: src/falsify/data/known_unsafe.json)",
    )
    out_path = parser.parse_args().output
    fixtures = {}
    for sid in sc.scenario_ids(catalog_only=False):
        cfg = sc.ScenarioConfig(sid)
        entry = search(cfg)
        entry["scenario"] = {"id": sid, "adversaries": cfg.adversaries}
        fixtures[sid] = entry
        print(f"{sid:>13}: min rho {min(entry['rho']):8.3f}  at {entry['values']}")
        if min(entry["rho"]) >= 0:
            print(f"  WARNING: no unsafe point found for scenario {sid}")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
