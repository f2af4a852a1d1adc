"""Campaign orchestration: one runner for every worker count, plus
result persistence.

A coordinator owns the sampler and the result tables, draws samples,
hands them to a simulator, and folds the evaluated outcome back into the
sampler.  Each step is written once on ``_Runner``; the worker count only
decides where the simulation runs.  At W=1 it runs inline on the
coordinator.  At W>1 up to W samples are in flight on worker threads,
and the coordinator, still the only thread that touches sampler state,
applies feedback in completion order as it arrives (workers may finish
out of dispatch order).  Workers overlap only while simulation releases
the interpreter lock: the numba kernel runs without it and an artificial
delay sleeps, but the interpreted kernel holds it, so without numba the
W threads share one interpreter's worth of kernel compute.

Sample ids are assigned at dispatch and are dense over dispatched
samples.  The failure policy is the same for every W.  A simulation or
evaluation that raises a package error (``FalsifyError``) is a package
or config fault that would repeat on every sample, so it aborts the
campaign, as does any package error on the coordinator: in-flight
samples are absorbed and the partial result is attached to the raised
CampaignError.  Any other exception marks its sample failed: the id is
logged and counted, the sample joins neither table, and the campaign
continues.
"""

from __future__ import annotations

import csv
import json
import logging
import queue
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, FalsifyError
from .monitor import Specification, evaluate, falsification_vector
from .rulebook import FalsificationVector, Rulebook
from .samplers import (
    DEFAULT_ALPHA,
    SAMPLER_NAMES,
    SampleFeedback,
    make_sampler,
)
from .scenarios import (
    ScenarioConfig,
    feature_bindings,
    simulate,
    simulate_with_delay,
)
from .space import FeatureSpace, SampleVector

logger = logging.getLogger(__name__)

RECORD_FIELDS = (
    "id",
    "worker",
    "t_dispatch",
    "t_complete",
    "values",
    "buckets",
    "rho",
    "b",
    "counterexample",
    "termination",
    "sim_seconds",
)

ERROR_CSV = "error.csv"
SAFE_CSV = "safe.csv"
RECORDS_JSONL = "records.jsonl"
SUMMARY_JSON = "summary.json"
SNAPSHOT_JSON = "sampler_snapshot.json"


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a falsification campaign needs, validated up front."""

    space: FeatureSpace
    scenario: ScenarioConfig
    spec: Specification
    rulebook: Rulebook
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
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.max_samples is None and self.max_wall_seconds is None:
            raise ConfigError(
                "at least one budget bound (max_samples or max_wall_seconds) "
                "must be set"
            )
        if self.max_samples is not None and self.max_samples < 1:
            raise ConfigError(f"max_samples must be >= 1, got {self.max_samples}")
        if self.max_wall_seconds is not None and not self.max_wall_seconds > 0:
            raise ConfigError(
                f"max_wall_seconds must be > 0, got {self.max_wall_seconds}"
            )
        if self.delay < 0:
            raise ConfigError(f"delay must be >= 0, got {self.delay}")
        if len(self.spec) != self.rulebook.metric_count:
            raise ConfigError(
                f"spec has {len(self.spec)} metrics but the rulebook orders "
                f"{self.rulebook.metric_count}"
            )
        bindings = feature_bindings(self.scenario)
        if self.space.d != len(bindings):
            raise ConfigError(
                f"feature space has {self.space.d} dimensions but scenario "
                f"{self.scenario.scenario_id!r} binds {len(bindings)} features"
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


@dataclass(frozen=True)
class SampleRecord:
    """One completed simulation, as stored in the error/safe tables."""

    id: int
    worker: int
    t_dispatch: float
    t_complete: float
    sample: SampleVector
    rho: tuple[float, ...]
    b: tuple[bool, ...]
    is_counterexample: bool
    termination: str
    sim_seconds: float

    def __post_init__(self):
        if self.is_counterexample != any(self.b):
            raise ConfigError(
                "record flag is_counterexample must match its bit vector"
            )
        if len(self.rho) != len(self.b):
            raise ConfigError("rho and b must have equal length")

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "worker": self.worker,
            "t_dispatch": self.t_dispatch,
            "t_complete": self.t_complete,
            "values": list(self.sample.values),
            "buckets": list(self.sample.buckets),
            "rho": list(self.rho),
            "b": list(self.b),
            "counterexample": self.is_counterexample,
            "termination": self.termination,
            "sim_seconds": self.sim_seconds,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SampleRecord":
        return cls(
            id=int(doc["id"]),
            worker=int(doc["worker"]),
            t_dispatch=float(doc["t_dispatch"]),
            t_complete=float(doc["t_complete"]),
            sample=SampleVector(
                tuple(float(v) for v in doc["values"]),
                tuple(int(b) for b in doc["buckets"]),
            ),
            rho=tuple(float(r) for r in doc["rho"]),
            b=tuple(bool(x) for x in doc["b"]),
            is_counterexample=bool(doc["counterexample"]),
            termination=str(doc["termination"]),
            sim_seconds=float(doc["sim_seconds"]),
        )


@dataclass(frozen=True)
class CampaignResult:
    """Aggregated campaign outcome; records are sorted by sample id."""

    config: CampaignConfig
    records: tuple[SampleRecord, ...]
    maximal: tuple[FalsificationVector, ...]
    snapshot: dict
    wall_seconds: float
    dispatched: int
    failed: int

    @property
    def error_table(self) -> tuple[SampleRecord, ...]:
        return tuple(r for r in self.records if r.is_counterexample)

    @property
    def safe_table(self) -> tuple[SampleRecord, ...]:
        return tuple(r for r in self.records if not r.is_counterexample)

    @property
    def totals(self) -> dict:
        return {
            "samples": len(self.records),
            "counterexamples": len(self.error_table),
            "wall_seconds": self.wall_seconds,
        }


class CampaignError(FalsifyError):
    """Campaign aborted; .partial holds everything finished before the error."""

    def __init__(self, message: str, partial: CampaignResult):
        super().__init__(message)
        self.partial = partial


def default_simulator(config: CampaignConfig, sample: SampleVector):
    if config.delay > 0:
        return simulate_with_delay(config.scenario, sample, config.delay)
    return simulate(config.scenario, sample)


class _Runner:
    """Coordinator state and the steps of one campaign, for any worker count."""

    def __init__(self, config: CampaignConfig, simulate_fn=None):
        self.config = config
        self.simulate_fn = simulate_fn or default_simulator
        self.sampler = make_sampler(
            config.sampler_name,
            config.space,
            config.seed,
            rulebook=config.rulebook,
            alpha=config.alpha,
        )
        self.records: list[SampleRecord] = []
        self.maximal: list[FalsificationVector] = []
        self.failed = 0
        self.dispatched = 0
        self.t0 = time.perf_counter()

    # -- budget --------------------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def may_dispatch(self) -> bool:
        cfg = self.config
        if cfg.max_samples is not None and self.dispatched >= cfg.max_samples:
            return False
        if cfg.max_wall_seconds is not None and self.elapsed() >= cfg.max_wall_seconds:
            return False
        return True

    # -- one sample: dispatch -> run -> handle -------------------------------

    def dispatch(self) -> tuple:
        """Draw the next sample; returns the task (id, t_dispatch, sample)."""
        sample = self.sampler.next_sample()
        task = (self.dispatched, time.time(), sample)
        self.dispatched += 1
        return task

    def run(self, task: tuple, worker: int) -> tuple:
        """Simulate and evaluate one task; returns its outcome for handle().

        Called on the coordinator at W=1 and on a worker thread at W>1,
        so it touches no coordinator state.
        """
        sid, t_dispatch, sample = task
        t0 = time.perf_counter()
        try:
            traj = self.simulate_fn(self.config, sample)
            rho = evaluate(self.config.spec, traj)
        except FalsifyError as exc:
            return ("abort", exc)
        except Exception as exc:  # noqa: BLE001 - sample isolation boundary
            return ("failed", sid, worker, f"{type(exc).__name__}: {exc}")
        sim_seconds = time.perf_counter() - t0
        bits = falsification_vector(rho)
        return ("done", SampleRecord(
            id=sid,
            worker=worker,
            t_dispatch=t_dispatch,
            t_complete=time.time(),
            sample=sample,
            rho=tuple(float(r) for r in rho),
            b=bits,
            is_counterexample=any(bits),
            termination=traj.termination,
            sim_seconds=sim_seconds,
        ))

    def handle(self, outcome: tuple) -> None:
        """Absorb a record, count a failed sample, or re-raise an abort."""
        kind = outcome[0]
        if kind == "done":
            self.absorb(outcome[1])
        elif kind == "failed":
            _, sid, worker, message = outcome
            self.failed += 1
            logger.warning("sample %d failed on worker %d: %s", sid, worker, message)
        else:
            raise outcome[1]

    def absorb(self, record: SampleRecord) -> None:
        """Fold one completed sample into sampler state and the tables."""
        feedback = SampleFeedback(
            sample=record.sample,
            rho=record.rho,
            b=record.b,
            is_counterexample=record.is_counterexample,
        )
        self.sampler.update(feedback)
        self.records.append(record)
        if record.is_counterexample:
            self.maximal, _ = self.config.rulebook.insert_maximal(
                self.maximal, record.b
            )

    def result(self) -> CampaignResult:
        return CampaignResult(
            config=self.config,
            records=tuple(sorted(self.records, key=lambda r: r.id)),
            maximal=tuple(self.maximal),
            snapshot=self.sampler.snapshot(),
            wall_seconds=self.elapsed(),
            dispatched=self.dispatched,
            failed=self.failed,
        )


class _Pool:
    """Worker threads that run a runner's tasks; outcomes land in completion order."""

    def __init__(self, runner: _Runner):
        self.runner = runner
        self.tasks: queue.Queue = queue.Queue()
        self.results: queue.Queue = queue.Queue()
        self.threads: list[threading.Thread] = []
        self.in_flight = 0

    def _work(self, worker: int) -> None:
        while (task := self.tasks.get()) is not None:
            self.results.put(self.runner.run(task, worker))

    def _handle_next(self, block: bool) -> None:
        outcome = self.results.get(block)  # raises queue.Empty if none waits
        self.in_flight -= 1
        self.runner.handle(outcome)

    def pipeline(self, workers: int) -> None:
        """Keep up to ``workers`` samples in flight until the budget is spent.

        Feedback is applied as each result lands, without waiting for the
        rest of the batch — adaptive samplers therefore see feedback in
        completion order, which is the accepted nondeterminism of W>1.
        """
        runner = self.runner
        self.threads = [
            threading.Thread(
                target=self._work,
                args=(w,),
                name=f"falsify-worker-{w}",
                daemon=True,
            )
            for w in range(workers)
        ]
        for t in self.threads:
            t.start()
        while True:
            # Apply any feedback that has already arrived.
            try:
                while True:
                    self._handle_next(block=False)
            except queue.Empty:
                pass
            if self.in_flight < workers and runner.may_dispatch():
                self.tasks.put(runner.dispatch())
                self.in_flight += 1
            elif self.in_flight == 0:
                return
            else:
                # Nothing to dispatch: block until a result lands.
                self._handle_next(block=True)

    def drain(self) -> None:
        """After an abort, absorb what is still in flight.

        A fault that aborts one sample usually aborts every other sample in
        flight too, so those repeats are logged once, as a count.
        """
        repeats = []
        while self.in_flight > 0:
            try:
                self._handle_next(block=True)
            except FalsifyError as exc:
                repeats.append(exc)
        if repeats:
            logger.error(
                "%d more in-flight sample(s) aborted while draining; first: %s",
                len(repeats), repeats[0],
            )

    def close(self) -> None:
        for _ in self.threads:
            self.tasks.put(None)
        for t in self.threads:
            t.join()


def run_campaign(config: CampaignConfig, simulate_fn=None) -> CampaignResult:
    """Run a campaign to its budget: sample, simulate, evaluate, update.

    At W=1 each sample runs inline on the coordinator.  A pool of one
    thread would give the same records, but its handoff per sample costs
    more than a fast simulation.
    """
    runner = _Runner(config, simulate_fn)
    pool = _Pool(runner)
    try:
        if config.workers == 1:
            while runner.may_dispatch():
                runner.handle(runner.run(runner.dispatch(), 0))
        else:
            pool.pipeline(config.workers)
    except FalsifyError as exc:
        pool.drain()
        raise CampaignError(
            f"campaign aborted after {len(runner.records)} samples: {exc}",
            runner.result(),
        ) from exc
    finally:
        pool.close()
    return runner.result()


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _write_table(path: Path, records) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for r in records:
            doc = r.to_json_dict()
            writer.writerow([
                doc["id"], doc["worker"], doc["t_dispatch"], doc["t_complete"],
                json.dumps(doc["values"]), json.dumps(doc["buckets"]),
                json.dumps(doc["rho"]), json.dumps(doc["b"]),
                doc["counterexample"], doc["termination"], doc["sim_seconds"],
            ])


def write_artifacts(result: CampaignResult, out_dir) -> dict:
    """Persist a campaign: tables, record log, summary, sampler snapshot."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    _write_table(out / ERROR_CSV, result.error_table)
    _write_table(out / SAFE_CSV, result.safe_table)

    with (out / RECORDS_JSONL).open("w") as fh:
        for r in result.records:
            fh.write(json.dumps(r.to_json_dict()) + "\n")

    summary = {
        "config": result.config.describe(),
        "totals": result.totals,
        "dispatched": result.dispatched,
        "failed": result.failed,
        "maximal": [list(bits) for bits in result.maximal],
        "metric_names": list(result.config.spec.names),
    }
    (out / SUMMARY_JSON).write_text(json.dumps(summary, indent=2) + "\n")
    (out / SNAPSHOT_JSON).write_text(json.dumps(result.snapshot, indent=2) + "\n")
    return {
        "error_csv": out / ERROR_CSV,
        "safe_csv": out / SAFE_CSV,
        "records": out / RECORDS_JSONL,
        "summary": out / SUMMARY_JSON,
        "snapshot": out / SNAPSHOT_JSON,
    }


def _artifact(run_dir, name: str) -> Path:
    path = Path(run_dir) / name
    if not path.exists():
        raise ConfigError(f"no {name} in {run_dir}")
    return path


def read_records(run_dir) -> list[SampleRecord]:
    records = []
    with _artifact(run_dir, RECORDS_JSONL).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(SampleRecord.from_json_dict(json.loads(line)))
    return records


def read_summary(run_dir) -> dict:
    return json.loads(_artifact(run_dir, SUMMARY_JSON).read_text())


def read_result(run_dir) -> CampaignResult:
    """Rebuild a finished campaign's result from its artifacts."""
    from .config import parse_config  # config.py builds on this module

    summary = read_summary(run_dir)
    return CampaignResult(
        config=parse_config(summary["config"]),
        records=tuple(read_records(run_dir)),
        maximal=tuple(tuple(bits) for bits in summary["maximal"]),
        snapshot=json.loads(_artifact(run_dir, SNAPSHOT_JSON).read_text()),
        wall_seconds=summary["totals"]["wall_seconds"],
        dispatched=summary["dispatched"],
        failed=summary["failed"],
    )
