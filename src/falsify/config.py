"""Campaign file schema: JSON documents in and out of CampaignConfig.

A campaign file is one JSON object with the sections below.  Unknown
keys are rejected at every level so typos fail loudly instead of being
silently ignored.

    {
      "scenario":   {"id": "1", "adversaries": 1},
      "feature_space": {                      # optional; scenario default
        "dimensions": [{"name": "...", "lo": 0.0, "hi": 1.0}, ...],
        "buckets": 10
      },
      "spec": [...],                          # optional; scenario default
      "rulebook": {"metrics": m, "edges": [[i, j], ...]},  # optional
      "sampler": {"name": "mab", "alpha": 0.1},
      "budget": {"max_samples": 100, "max_wall_seconds": null},
      "workers": 1, "seed": 0, "delay": 0.0,
      "output_dir": "runs/demo"               # optional
    }
"""

from __future__ import annotations

import json
from pathlib import Path

from . import rulebook as rb
from .campaign import CampaignConfig
from .errors import ConfigError
from .monitor import Specification, spec_from_config
from .samplers import DEFAULT_ALPHA
from .scenarios import (
    ScenarioConfig,
    default_feature_space,
    default_specification,
    feature_bindings,
)
from .space import Dimension, FeatureSpace

TOP_LEVEL_KEYS = {
    "feature_space",
    "scenario",
    "spec",
    "rulebook",
    "sampler",
    "budget",
    "workers",
    "seed",
    "delay",
    "output_dir",
}


def _require_mapping(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(doc).__name__}")
    return doc


def _reject_unknown(doc: dict, allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _parse_scenario(doc) -> ScenarioConfig:
    doc = _require_mapping(doc, "scenario")
    _reject_unknown(doc, {"id", "adversaries"}, "scenario")
    if "id" not in doc:
        raise ConfigError("scenario section needs an 'id'")
    return ScenarioConfig(
        str(doc["id"]), adversaries=int(doc.get("adversaries", 1))
    )


def _parse_feature_space(doc, scenario: ScenarioConfig) -> FeatureSpace:
    if doc is None:
        return default_feature_space(scenario)
    doc = _require_mapping(doc, "feature_space")
    _reject_unknown(doc, {"dimensions", "buckets"}, "feature_space")
    buckets = int(doc.get("buckets", 10))
    dims_doc = doc.get("dimensions")
    if dims_doc is None:
        dims = [
            Dimension(f.name, f.lo, f.hi) for f in feature_bindings(scenario)
        ]
    else:
        if not isinstance(dims_doc, list) or not dims_doc:
            raise ConfigError("feature_space.dimensions must be a non-empty list")
        dims = []
        for k, entry in enumerate(dims_doc):
            entry = _require_mapping(entry, f"feature_space.dimensions[{k}]")
            _reject_unknown(
                entry, {"name", "lo", "hi"}, f"feature_space.dimensions[{k}]"
            )
            for key in ("name", "lo", "hi"):
                if key not in entry:
                    raise ConfigError(
                        f"feature_space.dimensions[{k}] is missing {key!r}"
                    )
            dims.append(
                Dimension(str(entry["name"]), float(entry["lo"]), float(entry["hi"]))
            )
    return FeatureSpace(dims, bucket_count=buckets)


def _parse_spec(doc, scenario: ScenarioConfig) -> Specification:
    if doc is None:
        return default_specification(scenario)
    if not isinstance(doc, list):
        raise ConfigError("spec must be a list of metric entries")
    return spec_from_config(doc)


def _parse_rulebook(doc, spec: Specification) -> rb.Rulebook:
    if doc is None:
        return rb.disconnected(len(spec))
    doc = _require_mapping(doc, "rulebook")
    _reject_unknown(doc, {"metrics", "edges"}, "rulebook")
    metrics = int(doc.get("metrics", len(spec)))
    edges_doc = doc.get("edges", [])
    if not isinstance(edges_doc, list):
        raise ConfigError("rulebook.edges must be a list of [i, j] pairs")
    edges = []
    for k, pair in enumerate(edges_doc):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"rulebook.edges[{k}] must be a pair, got {pair!r}")
        edges.append((int(pair[0]), int(pair[1])))
    return rb.build(metrics, edges)


def parse_config(doc: dict) -> CampaignConfig:
    """Validate a campaign document and build the runnable config."""
    doc = _require_mapping(doc, "campaign config")
    _reject_unknown(doc, TOP_LEVEL_KEYS, "campaign config")
    if "scenario" not in doc:
        raise ConfigError("campaign config needs a 'scenario' section")
    scenario = _parse_scenario(doc["scenario"])
    space = _parse_feature_space(doc.get("feature_space"), scenario)
    spec = _parse_spec(doc.get("spec"), scenario)
    rulebook = _parse_rulebook(doc.get("rulebook"), spec)

    sampler_doc = _require_mapping(doc.get("sampler", {"name": "uniform"}), "sampler")
    _reject_unknown(sampler_doc, {"name", "alpha"}, "sampler")
    sampler_name = str(sampler_doc.get("name", "uniform"))
    alpha = float(sampler_doc.get("alpha", DEFAULT_ALPHA))

    budget_doc = _require_mapping(doc.get("budget", {}), "budget")
    _reject_unknown(budget_doc, {"max_samples", "max_wall_seconds"}, "budget")
    max_samples = budget_doc.get("max_samples")
    max_wall = budget_doc.get("max_wall_seconds")

    output_dir = doc.get("output_dir")

    return CampaignConfig(
        space=space,
        scenario=scenario,
        spec=spec,
        rulebook=rulebook,
        sampler_name=sampler_name,
        alpha=alpha,
        max_samples=None if max_samples is None else int(max_samples),
        max_wall_seconds=None if max_wall is None else float(max_wall),
        workers=int(doc.get("workers", 1)),
        seed=int(doc.get("seed", 0)),
        delay=float(doc.get("delay", 0.0)),
        output_dir=None if output_dir is None else str(output_dir),
    )


def load_config(path) -> CampaignConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


def example_config(scenario_id: str = "1") -> dict:
    """A complete, runnable campaign document for one scenario."""
    scenario = ScenarioConfig(scenario_id)
    config = CampaignConfig(
        space=default_feature_space(scenario),
        scenario=scenario,
        spec=default_specification(scenario),
        rulebook=rb.disconnected(len(default_specification(scenario))),
        sampler_name="mab",
        max_samples=200,
        seed=0,
        output_dir="runs/example",
    )
    return config.describe()
