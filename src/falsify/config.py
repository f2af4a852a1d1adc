"""The campaign config: its type, its checks, and its file format both ways.

``CampaignConfig`` checks itself when built, from Python or from a file
alike; ``describe`` writes a campaign document and ``parse_config`` reads one.

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

import contextlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import rulebook as rb
from .errors import ConfigError
from .monitor import EGO, JointSeparation, Specification, spec_from_config
from .samplers import DEFAULT_ALPHA, SAMPLER_NAMES
from .scenarios import (
    ScenarioConfig,
    default_feature_space,
    default_specification,
    feature_bindings,
    monitored_agents,
)
from .space import DEFAULT_BUCKET_COUNT, Dimension, FeatureSpace

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


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a falsification campaign needs, validated up front."""

    space: FeatureSpace
    scenario: ScenarioConfig
    spec: Specification
    rulebook: rb.Rulebook
    sampler_name: str = "uniform"
    alpha: float = DEFAULT_ALPHA
    max_samples: int | None = None
    max_wall_seconds: float | None = None
    workers: int = 1
    seed: int = 0
    delay: float = 0.0
    output_dir: str | None = None

    def __post_init__(self):
        if self.sampler_name not in SAMPLER_NAMES:
            raise ConfigError(
                f"unknown sampler {self.sampler_name!r}; "
                f"expected one of {SAMPLER_NAMES}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_samples is None and self.max_wall_seconds is None:
            raise ConfigError(
                "at least one budget bound (max_samples or max_wall_seconds) "
                "must be set"
            )
        if self.max_samples is not None and self.max_samples < 1:
            raise ConfigError(f"max_samples must be >= 1, got {self.max_samples}")
        # An infinite wall budget is no bound: the campaign would run until
        # a Ctrl-C, and summary.json would hold a non-standard Infinity.
        if self.max_wall_seconds is not None and not 0 < self.max_wall_seconds < math.inf:
            raise ConfigError(
                f"max_wall_seconds must be finite and > 0, got {self.max_wall_seconds}"
            )
        if not 0.0 <= self.delay < math.inf:
            raise ConfigError(f"delay must be finite and >= 0, got {self.delay}")
        if len(self.spec) != self.rulebook.metric_count:
            raise ConfigError(
                f"spec has {len(self.spec)} metrics but the rulebook orders "
                f"{self.rulebook.metric_count}"
            )
        # Values bind to features by position, so the names must line up.
        sid = self.scenario.scenario_id
        names = list(self.space.names)
        features = [f.name for f in feature_bindings(self.scenario)]
        if names != features:
            raise ConfigError(
                f"feature_space.dimensions are named {names}, but scenario "
                f"{sid!r} binds the features {features}, in that order"
            )
        agents = (EGO,) + monitored_agents(self.scenario)
        for k, metric in enumerate(self.spec.metrics):
            named = (metric.agents if isinstance(metric, JointSeparation)
                     else (metric.agent,))
            unknown = [a for a in named if a not in agents]
            if unknown:
                raise ConfigError(
                    f"spec entry {k} names {unknown}, but scenario {sid!r} "
                    f"has the agents {list(agents)}"
                )

    def describe(self) -> dict:
        """Config as a plain dict in the campaign-file schema."""
        return {
            "feature_space": {
                "dimensions": [
                    {"name": d.name, "lo": d.lo, "hi": d.hi}
                    for d in self.space.dims
                ],
                "buckets": self.space.bucket_count,
            },
            "scenario": {
                "id": self.scenario.scenario_id,
                "adversaries": self.scenario.adversaries,
            },
            "spec": [m.to_config() for m in self.spec.metrics],
            "rulebook": {
                "metrics": self.rulebook.metric_count,
                "edges": sorted(list(e) for e in self.rulebook.edges),
            },
            "sampler": {"name": self.sampler_name, "alpha": self.alpha},
            "budget": {
                "max_samples": self.max_samples,
                "max_wall_seconds": self.max_wall_seconds,
            },
            "workers": self.workers,
            "seed": self.seed,
            "delay": self.delay,
            "output_dir": self.output_dir,
        }


def _require_mapping(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(doc).__name__}")
    return doc


def _number(convert, value, where: str):
    """``convert(value)`` for ``int`` or ``float``.  Only a JSON number
    passes, never a bool or a string, and an integer field takes only an
    integral one; anything else is a ConfigError naming its place."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(ValueError, OverflowError):
            number = convert(value)
            if convert is float or number == value:
                return number
    raise ConfigError(
        f"{where} must be {'an integer' if convert is int else 'a number'}, "
        f"got {value!r}"
    )


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
        str(doc["id"]),
        adversaries=_number(int, doc.get("adversaries", 1), "scenario.adversaries"),
    )


def _parse_feature_space(doc, scenario: ScenarioConfig) -> FeatureSpace:
    if doc is None:
        return default_feature_space(scenario)
    doc = _require_mapping(doc, "feature_space")
    _reject_unknown(doc, {"dimensions", "buckets"}, "feature_space")
    buckets = _number(int, doc.get("buckets", DEFAULT_BUCKET_COUNT),
                      "feature_space.buckets")
    dims_doc = doc.get("dimensions")
    if dims_doc is None:
        dims = feature_bindings(scenario)
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
            where = f"feature_space.dimensions[{k}]"
            dims.append(Dimension(
                str(entry["name"]),
                _number(float, entry["lo"], f"{where}.lo"),
                _number(float, entry["hi"], f"{where}.hi"),
            ))
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
    metrics = _number(int, doc.get("metrics", len(spec)), "rulebook.metrics")
    edges_doc = doc.get("edges", [])
    if not isinstance(edges_doc, list):
        raise ConfigError("rulebook.edges must be a list of [i, j] pairs")
    edges = []
    for k, pair in enumerate(edges_doc):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"rulebook.edges[{k}] must be a pair, got {pair!r}")
        edges.append(tuple(_number(int, i, f"rulebook.edges[{k}]") for i in pair))
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
    alpha = _number(float, sampler_doc.get("alpha", DEFAULT_ALPHA), "sampler.alpha")

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
        max_samples=(None if max_samples is None
                     else _number(int, max_samples, "budget.max_samples")),
        max_wall_seconds=(None if max_wall is None
                          else _number(float, max_wall, "budget.max_wall_seconds")),
        workers=_number(int, doc.get("workers", 1), "workers"),
        seed=_number(int, doc.get("seed", 0), "seed"),
        delay=_number(float, doc.get("delay", 0.0), "delay"),
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
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config file {path}: {reason}") from exc
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
