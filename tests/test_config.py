"""The campaign config: checks on a config built in Python, and the
campaign file written by ``describe`` and read back by ``parse_config``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from falsify import config as cf
from falsify import rulebook as rb
from falsify import scenarios as sc
from falsify.config import CampaignConfig, parse_config
from falsify.errors import ConfigError, FalsifyError
from falsify.monitor import EGO, JointSeparation, MinSeparation, Specification
from falsify.samplers import SAMPLER_NAMES
from falsify.space import Dimension, FeatureSpace


def scenario_one(**changes):
    scenario = sc.ScenarioConfig("1")
    spec = changes.pop("spec", sc.default_specification(scenario))
    fields = dict(
        space=sc.default_feature_space(scenario),
        scenario=scenario,
        spec=spec,
        rulebook=rb.disconnected(len(spec)),
        max_samples=5,
    )
    return CampaignConfig(**{**fields, **changes})


def test_python_built_config_with_misnamed_dimensions_is_rejected():
    # Scenario 1 binds ego_speed, ego_distance, adv_speed, adv_distance by
    # position; four dimensions of other names would bind the wrong ranges.
    dims = sc.default_feature_space(sc.ScenarioConfig("1")).dims
    names = ["speed", "dist", "adv_speed", "adv_distance"]
    space = FeatureSpace([Dimension(n, d.lo, d.hi) for n, d in zip(names, dims)])
    with pytest.raises(ConfigError, match="binds the features"):
        scenario_one(space=space)


@pytest.mark.parametrize("metric", [
    MinSeparation("ghost"),
    JointSeparation(("adv0", "ghost")),
])
def test_python_built_config_naming_an_absent_agent_is_rejected(metric):
    with pytest.raises(ConfigError, match="ghost"):
        scenario_one(spec=Specification([metric]))


def test_spec_may_name_the_ego_and_every_monitored_agent():
    agents = (EGO,) + sc.monitored_agents(sc.ScenarioConfig("1"))
    scenario_one(spec=Specification([JointSeparation(agents)]))


@st.composite
def campaign_configs(draw):
    """Keyword arguments for a CampaignConfig, some of which it rejects."""
    sid = draw(st.sampled_from(sc.scenario_ids(catalog_only=False)))
    adversaries = (draw(st.integers(1, sc.MAX_INTERSECTION_ADVERSARIES))
                   if sid == "intersection" else 1)
    scenario = sc.ScenarioConfig(sid, adversaries=adversaries)
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    features = sc.feature_bindings(scenario)
    names = [f.name for f in features]
    if draw(st.integers(0, 3)) == 3:  # a misnamed dimension
        names[draw(st.integers(0, len(names) - 1))] += "_"
    dims = []
    for name in names:
        lo, hi = draw(finite), draw(finite)
        dims.append(Dimension(name, min(lo, hi), max(lo, hi) + 1.0))
    space = FeatureSpace(dims, bucket_count=draw(st.integers(1, 40)))
    thresholds = st.floats(0.1, 20.0)
    metrics = [MinSeparation(a, draw(thresholds))
               for a in sc.monitored_agents(scenario)]
    if draw(st.booleans()):
        metrics.append(JointSeparation(sc.monitored_agents(scenario), draw(thresholds)))
    # Edges run forward in a random order of the metrics, so none closes a cycle.
    order = draw(st.permutations(range(len(metrics))))
    pairs = st.tuples(st.integers(0, len(metrics) - 1), st.integers(0, len(metrics) - 1))
    edges = [(order[i], order[j]) for i, j in draw(st.lists(pairs)) if i < j]
    return dict(
        space=space,
        scenario=scenario,
        spec=Specification(metrics),
        rulebook=rb.build(len(metrics), edges),
        sampler_name=draw(st.sampled_from(SAMPLER_NAMES)),
        alpha=draw(st.floats(0.0, 1.0)),
        max_samples=draw(st.none() | st.integers(0, 10**6)),
        max_wall_seconds=draw(st.none() | st.floats(0.0, 1e4)),
        workers=draw(st.integers(0, 16)),
        seed=draw(st.integers(0, 2**32)),
        delay=draw(st.floats(0.0, 1.0)),
        output_dir=draw(st.none() | st.text(min_size=1, max_size=12)),
    )


@settings(max_examples=150, deadline=None)
@given(campaign_configs())
def test_describe_then_parse_returns_the_same_campaign(fields):
    try:
        config = CampaignConfig(**fields)
    except FalsifyError:
        assume(False)
    described = config.describe()
    assert parse_config(json.loads(json.dumps(described))).describe() == described


def test_importing_the_config_leaves_the_campaign_runner_unloaded():
    code = "import sys, falsify.config\nprint('falsify.campaign' in sys.modules)\n"
    src = Path(cf.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"
