"""Span tracing at falsify's layer boundaries, installed from outside.

The tracer wraps the module attributes that the campaign pipeline calls
through, so nothing in the package changes:

    config.parse_config              -> "config.parse_config"
    campaign.make_sampler            -> sampler.next_sample / sampler.update
    campaign._Runner.absorb          -> "campaign.absorb"
    campaign.evaluate                -> "monitor.evaluate"
    scenarios.build_scene            -> "scenarios.build_scene"
    scenarios.run_scene              -> "kinematics.run_scene"
    rulebook.Rulebook.insert_maximal -> "rulebook.insert_maximal"
    campaign.write_artifacts / read_records, analysis.coverage_stats

plus the ``simulate_fn`` hook of ``run_campaign`` ("campaign.simulate").
``space`` is only called from inside the samplers, so its time counts
there.  A wrapped attribute that the package no longer has is listed
in ``Tracer.missing``, and the benchmark fails its checks on it, so a
renamed or inlined layer cannot read as a zero-cost one.

Each span records its name, sample id, thread, start, end and parent
(the innermost open span on the same thread).  Spans of one sample share
its id: the coordinator learns the id when the sampler issues the
sample, and worker threads look it up from the sample object they are
handed.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict

from falsify import analysis, campaign, config, rulebook, scenarios


class Tracer:
    def __init__(self):
        # name, sample id, thread id, start ns, end ns, parent index
        self.spans: list[list] = []
        self.agent_frames = 0
        self.sim_start: dict[int, float] = {}  # sample id -> wall time
        self.missing: list[str] = []  # patch targets the package lacks
        self._sample_ids: dict[int, int] = {}  # id(SampleVector) -> sample id
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, sid: int | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if sid is None:
            sid = self.spans[parent][1] if parent is not None else getattr(
                self._local, "sid", None
            )
        entry = [name, sid, threading.get_ident(), time.perf_counter_ns(), None, parent]
        self.spans.append(entry)
        stack.append(len(self.spans) - 1)
        try:
            yield entry
        finally:
            entry[4] = time.perf_counter_ns()
            stack.pop()

    def _wrap(self, name, fn, sid_of=None):
        def traced(*args, **kwargs):
            sid = sid_of(*args, **kwargs) if sid_of else None
            with self.span(name, sid):
                return fn(*args, **kwargs)
        return traced

    # -- hooks -------------------------------------------------------------

    def simulate(self, cfg, sample):
        """``simulate_fn`` for run_campaign: tags the worker with the sample id."""
        sid = self._sample_ids.get(id(sample))
        self._local.sid = sid
        self.sim_start[sid] = time.time()
        with self.span("campaign.simulate", sid):
            return campaign.default_simulator(cfg, sample)

    def _make_sampler(self, make):
        def traced_make(*args, **kwargs):
            sampler = make(*args, **kwargs)
            next_sample, update = sampler.next_sample, sampler.update

            def traced_next():
                with self.span("samplers.next_sample", sampler.issued):
                    sample = next_sample()
                self._sample_ids[id(sample)] = sampler.issued - 1
                return sample

            def traced_update(feedback):
                sid = self._sample_ids.get(id(feedback.sample))
                with self.span("samplers.update", sid):
                    return update(feedback)

            sampler.next_sample = traced_next
            sampler.update = traced_update
            return sampler
        return traced_make

    def _run_scene(self, run_scene):
        def traced(*args, **kwargs):
            with self.span("kinematics.run_scene"):
                out = run_scene(*args, **kwargs)
            pos = out[0]
            self.agent_frames += pos.shape[0] * pos.shape[1]
            return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the layer boundaries for the duration of the block."""
        patches = [
            (config, "parse_config", lambda f: self._wrap("config.parse_config", f)),
            (campaign, "make_sampler", self._make_sampler),
            (campaign, "evaluate", lambda f: self._wrap("monitor.evaluate", f)),
            (campaign, "write_artifacts",
             lambda f: self._wrap("campaign.write_artifacts", f)),
            (campaign, "read_records", lambda f: self._wrap("campaign.read_records", f)),
            (analysis, "coverage_stats",
             lambda f: self._wrap("analysis.coverage_stats", f)),
            (scenarios, "build_scene", lambda f: self._wrap("scenarios.build_scene", f)),
            (scenarios, "run_scene", self._run_scene),
            (rulebook.Rulebook, "insert_maximal",
             lambda f: self._wrap("rulebook.insert_maximal", f)),
        ]
        runner = getattr(campaign, "_Runner", None)
        if runner is None:
            self._note_missing("falsify.campaign._Runner")
        else:
            patches.append((runner, "absorb", lambda f: self._wrap(
                "campaign.absorb", f, sid_of=lambda _self, record: record.id)))
        saved = []
        try:
            for owner, attr, wrapper in patches:
                original = getattr(owner, attr, None)
                if original is None:
                    self._note_missing(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._sample_ids.clear()

    def _note_missing(self, target: str) -> None:
        if target not in self.missing:
            self.missing.append(target)

    # -- reading -----------------------------------------------------------

    def summary(self, start: int = 0, end: int | None = None) -> dict:
        """Per span name: calls, total and self nanoseconds over spans[start:end].

        Self time is the span's duration minus the durations of its
        direct children.
        """
        spans = self.spans[start:end]
        child_ns: dict[int, int] = defaultdict(int)
        for entry in spans:
            if entry[5] is not None:
                child_ns[entry[5]] += entry[4] - entry[3]
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
        for index, entry in enumerate(spans, start):
            duration = entry[4] - entry[3]
            agg = out[entry[0]]
            agg["calls"] += 1
            agg["ns"] += duration
            agg["self_ns"] += duration - child_ns.get(index, 0)
        return dict(out)

    def write(self, path) -> None:
        """Dump every span as one JSON line."""
        keys = ("name", "sample", "thread", "start_ns", "end_ns", "parent")
        with open(path, "w") as fh:
            for entry in self.spans:
                fh.write(json.dumps(dict(zip(keys, entry))) + "\n")
