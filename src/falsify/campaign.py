"""Campaign orchestration: one runner for every worker count, plus
result persistence.

A coordinator owns the result tables and the sampler, which also keeps
the maximal set of counterexample vectors under the rulebook, and folds
each evaluated outcome back into them.  Each step is written once on
``_Runner``, and one loop (``_Pool``) runs a campaign at every W.  A
helper runs one sample at a time and answers on its own pipe with (id,
t_dispatch, sample, outcome); the coordinator, the only one that
absorbs, builds each record and applies its feedback in completion
order as it arrives.  Where a sample comes from, and who runs it,
depends on the sampler:

- a feedback-free sampler (uniform, Halton) draws sample k from the seed
  and k alone, so every worker claims its own work: each takes the next
  id from a counter they share, under a lock, and draws that sample
  itself.  The coordinator is worker 0 beside W-1 helpers: it runs the
  samples it claims, and between them absorbs, without waiting, what the
  helpers sent.  At W=1 it is the only worker, under any sampler.
- an adaptive sampler (cross-entropy, MAB) at W>1 reads the feedback
  absorbed so far, so the coordinator draws each sample and dispatches it
  to the helper that just answered, and runs none itself.

With the default simulator the helpers are forked processes, so the
interpreted kernel runs on W interpreters at once.  A ``simulate_fn``
passed in by the caller runs on helper threads in the caller's process
instead, where it may keep state; those threads overlap only while the
simulation releases the interpreter lock (a sleep).

Sample ids are dense over dispatched samples, claimed or not, and the
uniform and Halton streams do not depend on W.  The failure policy is
the same for every W.  A simulation or evaluation that raises a package
error (``FalsifyError``) is a package or config fault that would repeat
on every sample, so it aborts the campaign, as do any package error on
the coordinator and a helper process that dies: in-flight samples are
absorbed and the partial result is attached to the raised CampaignError.
A helper sends back the error's type name and message, not the error
itself, which may not survive pickling.  Any other exception marks its
sample failed: the id is logged and counted, the sample joins neither
table, and the campaign continues.  A Ctrl-C stops dispatch and claims
instead: the samples in flight finish and are absorbed, and
CampaignInterrupted, a KeyboardInterrupt, carries the partial result; a
second Ctrl-C raises at once.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import logging
import pickle
import queue
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .config import CampaignConfig, parse_config
from .errors import ConfigError, FalsifyError
from .monitor import evaluate
from .rulebook import FalsificationVector
from .samplers import SampleFeedback, make_sampler
from .scenarios import simulate_minima
from .space import SampleVector

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
class SampleRecord(SampleFeedback):
    """One completed simulation, as stored in the error/safe tables."""

    id: int
    worker: int
    t_dispatch: float
    t_complete: float
    termination: str
    sim_seconds: float

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
        """Read one record; its ``b`` and ``counterexample`` must match its rho."""
        record = cls(
            id=int(doc["id"]),
            worker=int(doc["worker"]),
            t_dispatch=float(doc["t_dispatch"]),
            t_complete=float(doc["t_complete"]),
            sample=SampleVector(
                tuple(map(float, doc["values"])),
                tuple(map(int, doc["buckets"])),
            ),
            rho=tuple(map(float, doc["rho"])),
            termination=str(doc["termination"]),
            sim_seconds=float(doc["sim_seconds"]),
        )
        if (tuple(map(bool, doc["b"])) != record.b
                or bool(doc["counterexample"]) != record.is_counterexample):
            raise ConfigError(f"record {record.id}: b and counterexample disagree with rho")
        return record


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


class CampaignInterrupted(KeyboardInterrupt):
    """Ctrl-C stopped the campaign; .partial holds every sample it finished.

    A KeyboardInterrupt, so a caller's ``except Exception`` lets it through.
    """

    def __init__(self, message: str, partial: CampaignResult):
        super().__init__(message)
        self.partial = partial


def default_simulator(config: CampaignConfig, sample: SampleVector):
    """Each agent's minimum separation for one sample, with no trajectory; a
    config ``delay`` pads the call to at least that many seconds."""
    t0 = time.perf_counter()
    minima = simulate_minima(config.scenario, sample)
    remaining = config.delay - (time.perf_counter() - t0)
    if remaining > 0:
        time.sleep(remaining)
    return minima


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
        self.failed = 0
        self.interrupted = False
        self.t0 = time.perf_counter()

    # -- budget --------------------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def may_dispatch(self) -> bool:
        if self.interrupted:
            return False
        cfg = self.config
        if cfg.max_samples is not None and self.sampler.issued >= cfg.max_samples:
            return False
        if cfg.max_wall_seconds is not None and self.elapsed() >= cfg.max_wall_seconds:
            return False
        return True

    # -- one sample: dispatch -> run -> handle -------------------------------

    def dispatch(self) -> tuple:
        """Draw the next sample, then stamp it: the task (id, t_dispatch, sample)."""
        sid = self.sampler.issued
        sample = self.sampler.next_sample()
        return sid, time.time(), sample

    def run(self, sample: SampleVector) -> tuple:
        """Simulate and evaluate one sample; returns its outcome for handle().

        The outcome is ("done", rho, termination, sim_seconds, t_complete),
        or ("failed", message) when the simulation or the monitor raised an
        exception that is not a package error.  A package error propagates.
        Called on the coordinator and on its helpers alike, so it touches
        no coordinator state.
        """
        t0 = time.perf_counter()
        try:
            traj = self.simulate_fn(self.config, sample)
            rho = evaluate(self.config.spec, traj)
        except FalsifyError:
            raise
        except Exception as exc:  # noqa: BLE001 - sample isolation boundary
            return ("failed", f"{type(exc).__name__}: {exc}")
        return ("done", tuple(float(r) for r in rho), traj.termination,
                time.perf_counter() - t0, time.time())

    def handle(self, message: tuple, worker: int) -> None:
        """Absorb a finished sample, count a failed one, or raise a worker's
        abort; ``message`` is (id, t_dispatch, sample, outcome)."""
        sid, t_dispatch, sample, outcome = message
        kind = outcome[0]
        if kind == "done":
            _, rho, termination, sim_seconds, t_complete = outcome
            self.absorb(SampleRecord(
                id=sid,
                worker=worker,
                t_dispatch=t_dispatch,
                t_complete=t_complete,
                sample=sample,
                rho=rho,
                termination=termination,
                sim_seconds=sim_seconds,
            ))
        elif kind == "failed":
            self.failed += 1
            logger.warning("sample %d failed on worker %d: %s", sid, worker, outcome[1])
        else:
            _, name, message = outcome
            raise FalsifyError(f"{name} on worker {worker}: {message}")

    def absorb(self, record: SampleRecord) -> None:
        """Fold one completed sample into sampler state and the tables."""
        self.sampler.update(record)
        self.records.append(record)

    def result(self) -> CampaignResult:
        return CampaignResult(
            config=self.config,
            records=tuple(sorted(self.records, key=lambda r: r.id)),
            maximal=tuple(self.sampler.maximal),
            snapshot=self.sampler.snapshot(),
            wall_seconds=self.elapsed(),
            dispatched=self.sampler.issued,
            failed=self.failed,
        )


def _send(conn, obj) -> None:
    """Pickle ``obj`` straight to a pipe, bypassing ForkingPickler."""
    conn.send_bytes(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def _receive(conn):
    return pickle.loads(conn.recv_bytes())


class _Pool:
    """The W workers of one campaign, each running one sample at a time.

    Where a worker's tasks come from, and whether the coordinator is one
    of the workers, depends on the sampler:

    - Claiming: under a feedback-free sampler, and under any sampler at
      W=1, each worker claims its own tasks (``_claim``).  It takes the
      next sample id from a counter that every worker shares, under a
      lock, and draws that sample itself.  The coordinator is worker 0:
      it runs each sample it claims and absorbs it with no pipe, and
      between its own samples it absorbs, without waiting, what the W-1
      helpers (workers 1 to W-1) have sent.  It waits for them only once
      its own claims run dry.  At W=1 it is the only worker, and its
      sampler has absorbed every earlier sample, so its draw may read
      feedback.
    - Fed: under an adaptive sampler at W>1, the coordinator draws each
      sample and feeds it (``_feed``) to the helper that just answered;
      W helpers (workers 0 to W-1) run them.  The coordinator runs none,
      because a helper would then wait for its next task behind the
      coordinator's own sample.

    A helper answers each task with one message on its own pipe, (id,
    t_dispatch, sample, outcome), and says None once its source runs
    dry; the coordinator absorbs messages until every helper has said
    None.  A helper is a forked process or a thread; only
    ``_start_helpers`` tells them apart.  A thread draws with, or is fed,
    the coordinator's own sampler objects, so a caller's ``simulate_fn``
    sees the very sample object the sampler issued.
    """

    # Slots of the shared block: the next sample id, the stop flag, then
    # the id of the sample each worker took last.
    NEXT, STOP, TAKEN = 0, 1, 2

    def __init__(self, runner: _Runner):
        self.runner = runner
        self.claiming = runner.sampler.feedback_free or runner.config.workers == 1
        self.conns: dict = {}  # helper index -> the coordinator's end of its pipe
        self.feeds: dict = {}  # helper index -> hand it a task (or None); fed only
        self.helpers: list = []  # Process or Thread
        self.live: dict = {}  # pipe fd -> index of a helper yet to finish
        self.reported: list[int] = []  # per worker: the last id it answered
        self.shared = None
        self.lock = None
        self.poller = None

    def start(self, forked: bool) -> None:
        """Set up the shared block, then start the helpers, if any."""
        import mmap

        count = self.runner.config.workers
        # An anonymous shared mapping: forked helpers see the coordinator's
        # pages, with none of multiprocessing.Value's ctypes imports.
        self.shared = memoryview(mmap.mmap(-1, 8 * (self.TAKEN + count))).cast("q")
        for w in range(count):
            self.shared[self.TAKEN + w] = -1
        self.reported = [-1] * count
        self.lock = threading.Lock()  # forked helpers need a process-shared one
        helpers = range(1 if self.claiming else 0, count)
        if helpers:
            self._start_helpers(helpers, forked)

    def _start_helpers(self, helpers: range, forked: bool) -> None:
        # multiprocessing.connection costs a fresh interpreter about 10 ms
        # of imports, which a W=1 campaign never needs.
        import multiprocessing
        import select

        # fork, not spawn: a helper inherits the config, the simulator and
        # any compiled kernels without pickling, and starts in milliseconds
        # where a spawned one would import numpy and the package again.
        # select.poll, below, exists only where fork does.
        ctx = multiprocessing.get_context("fork") if forked else None
        if ctx is not None:
            self.lock = ctx.Lock()
        self.poller = select.poll()
        for w in helpers:
            conn, end = multiprocessing.Pipe()
            self.conns[w] = conn
            if self.claiming:
                source = functools.partial(self._claim, w)
            elif ctx is not None:
                source = functools.partial(_receive, end)
                self.feeds[w] = functools.partial(_send, conn)
            else:
                inbox: queue.SimpleQueue = queue.SimpleQueue()
                source, self.feeds[w] = inbox.get, inbox.put
            if ctx is not None:
                helper = ctx.Process(
                    target=self._serve_forked, args=(end, source),
                    name=f"falsify-worker-{w}", daemon=True,
                )
            else:
                helper = threading.Thread(
                    target=self._serve, args=(end, source),
                    name=f"falsify-worker-{w}", daemon=True,
                )
            helper.start()
            if ctx is not None:
                end.close()  # the child holds the only copy
            self.helpers.append(helper)
            self.live[conn.fileno()] = w
            self.poller.register(conn.fileno(), select.POLLIN)

    # -- helper side ---------------------------------------------------------

    def _serve_forked(self, end, source) -> None:
        """Entry point of a forked helper."""
        import signal  # here, not at the top: it would add to every set-up

        # Ctrl-C reaches the whole process group; the coordinator handles it.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # Drop the inherited coordinator ends, so that the coordinator's
        # exit reads as EOF here and this helper's exit as EOF there.
        for conn in self.conns.values():
            conn.close()
        self._serve(end, source)

    def _serve(self, end, source) -> None:
        """Answer each task from ``source`` with its outcome, then None."""
        run = self.runner.run
        try:
            while (task := source()) is not None:
                try:
                    outcome = run(task[2])
                except FalsifyError as exc:
                    outcome = ("abort", type(exc).__name__, str(exc))
                _send(end, (*task, outcome))
            _send(end, None)
        except (EOFError, OSError):
            pass  # the coordinator is gone
        finally:
            end.close()

    def _claim(self, w: int):
        """Worker ``w``'s next task, drawn by itself, or None once the budget
        is spent or the stop flag is set.

        The lock also covers the draw: the coordinator and its thread
        helpers share one sampler, whose ``next_sample`` counts as it
        draws.  A forked helper's sampler is its own copy, brought up to
        the shared count first.
        """
        runner, sampler, shared = self.runner, self.runner.sampler, self.shared
        with self.lock:
            sampler.issued = shared[self.NEXT]
            if shared[self.STOP] or not runner.may_dispatch():
                return None
            task = runner.dispatch()
            shared[self.NEXT] = sampler.issued
            shared[self.TAKEN + w] = task[0]
        return task

    # -- coordinator side ----------------------------------------------------

    def stop(self) -> None:
        """No worker takes another task; the ones in flight still finish."""
        if self.shared is not None:
            self.shared[self.STOP] = 1

    def _feed(self, w: int) -> None:
        """Dispatch helper ``w``'s next task, or None once dispatch stopped."""
        runner = self.runner
        if self.shared[self.STOP] or not runner.may_dispatch():
            task = None
        else:
            task = runner.dispatch()
            self.shared[self.TAKEN + w] = task[0]
        try:
            self.feeds[w](task)
        except OSError as exc:
            self._finish(w)
            if task is not None:
                raise FalsifyError(f"worker {w} died before sample {task[0]}") from exc

    def _finish(self, w: int) -> None:
        fd = self.conns[w].fileno()
        self.poller.unregister(fd)
        del self.live[fd]

    def _recv(self, w: int):
        try:
            return _receive(self.conns[w])
        except (EOFError, OSError) as exc:
            self._finish(w)
            taken = self.shared[self.TAKEN + w]
            when = (f"while running sample {taken}" if taken > self.reported[w]
                    else "between samples")
            raise FalsifyError(f"worker {w} died {when}") from exc

    def _absorb_ready(self, timeout=None) -> None:
        """Absorb one answer from each helper that has sent one, waiting
        up to ``timeout`` ms (None: until one has); feed a helper that
        answered."""
        for fd, _ in self.poller.poll(timeout):
            w = self.live.get(fd)
            if w is None:
                continue  # finished while this batch was handled
            message = self._recv(w)
            if message is None:
                self._finish(w)
                continue
            self.reported[w] = message[0]
            try:
                self.runner.handle(message, w)
            except FalsifyError:
                self.stop()
                raise
            finally:
                if not self.claiming:
                    self._feed(w)

    def pipeline(self) -> None:
        """Run and absorb samples until every worker is finished.

        When claiming, the coordinator runs its own share first: it claims,
        runs and absorbs each sample, and absorbs between them whatever the
        helpers have sent.  Feedback is applied as each result lands,
        without waiting for the rest of the batch — adaptive samplers
        therefore see feedback in completion order, which is the accepted
        nondeterminism of W>1.
        """
        runner = self.runner
        if self.claiming:
            while (task := self._claim(0)) is not None:
                runner.handle((*task, runner.run(task[2])), 0)
                if self.live:
                    self._absorb_ready(0)
        else:
            for w in self.feeds:
                self._feed(w)
        while self.live:
            self._absorb_ready()
        self._settle()

    def drain(self) -> None:
        """After an abort, absorb what is still in flight.

        A fault that aborts one sample usually aborts every other sample in
        flight too, so those repeats are logged once, as a count.
        """
        self.stop()
        if not self.claiming:
            # A helper the abort left unfed would wait for a task forever;
            # None tells each to stop after the one in hand.
            for w in list(self.live.values()):
                self._feed(w)
        repeats = []
        while self.live:
            try:
                self._absorb_ready()
            except FalsifyError as exc:
                repeats.append(exc)
        self._settle()
        if repeats:
            logger.error(
                "%d more in-flight sample(s) aborted while draining; first: %s",
                len(repeats), repeats[0],
            )

    def _settle(self) -> None:
        """Claimed samples were counted by every claiming worker: take their count."""
        if self.claiming and self.shared is not None:
            self.runner.sampler.issued = self.shared[self.NEXT]

    def close(self) -> None:
        self.stop()
        for w, conn in self.conns.items():
            if not self.claiming:
                with contextlib.suppress(OSError):  # a dead process's pipe
                    self.feeds[w](None)
            conn.close()
        for helper in self.helpers:
            helper.join()


@contextlib.contextmanager
def _stop_on_ctrl_c(runner: _Runner, pool: _Pool):
    """While the campaign runs, a Ctrl-C sets ``runner.interrupted`` and
    the pool's stop flag.

    No sample is dispatched or claimed after it, and what is in flight is
    absorbed, so no sample is left half folded into the sampler.  The first Ctrl-C
    puts the default handler back, so a second one raises at once.  Only
    the main thread receives signals, and a caller who installed a SIGINT
    handler of their own keeps it.
    """
    import signal  # here, not at the top: it would add to every set-up

    if (threading.current_thread() is not threading.main_thread()
            or signal.getsignal(signal.SIGINT) is not signal.default_int_handler):
        yield
        return

    def stop(signum, frame):
        runner.interrupted = True
        pool.stop()
        signal.signal(signal.SIGINT, signal.default_int_handler)

    signal.signal(signal.SIGINT, stop)
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, signal.default_int_handler)


def run_campaign(config: CampaignConfig, simulate_fn=None) -> CampaignResult:
    """Run a campaign to its budget: sample, simulate, evaluate, update.

    One loop serves every W (see ``_Pool``).  Under a feedback-free
    sampler, and at W=1 under any sampler, the coordinator runs samples
    itself beside W-1 helpers, so W=1 forks nothing and W=2 forks one
    helper.  An adaptive sampler at W>1 feeds W helpers.  Helpers of the
    default simulator are forked processes; a caller's ``simulate_fn``
    runs on threads (see the module docstring).  A Ctrl-C ends the
    campaign early with CampaignInterrupted, which carries the partial
    result.
    """
    runner = _Runner(config, simulate_fn)
    pool = _Pool(runner)
    with _stop_on_ctrl_c(runner, pool):
        try:
            if config.workers > 1 and simulate_fn is None:
                # One run here compiles the scenario's kernel, which the
                # forked helpers then inherit instead of each compiling it
                # on its first sample.
                simulate_minima(config.scenario, [d.lo for d in config.space.dims])
            pool.start(forked=simulate_fn is None)
            pool.pipeline()
        except FalsifyError as exc:
            pool.drain()
            raise CampaignError(
                f"campaign aborted after {len(runner.records)} samples: {exc}",
                runner.result(),
            ) from exc
        finally:
            pool.close()
    if runner.interrupted:
        raise CampaignInterrupted(
            f"campaign interrupted after {len(runner.records)} samples",
            runner.result(),
        )
    return runner.result()


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


# The text each bool takes in JSON and in csv.writer's output.
_JSON_BOOL = {True: "true", False: "false"}
_CSV_BOOL = {True: "True", False: "False"}
# The characters that make csv.writer quote or escape a field.
_CSV_QUOTED = frozenset(',"\r\n')


def _json_text(x) -> str:
    """json.dumps(x) for an int, a float or a list of them: its repr,
    unless that holds nan or inf, the only numbers whose repr has an ``n``."""
    text = repr(x)
    return json.dumps(x) if "n" in text else text


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes a field that holds no quote or line
    break: quoted if it holds the delimiter."""
    return f'"{text}"' if "," in text else text


def _legacy_encoded(r: SampleRecord) -> tuple[str, str]:
    """``_encoded`` through csv.writer and json.dumps, for any field types."""
    doc = r.to_json_dict()
    row = io.StringIO()
    csv.writer(row).writerow([
        doc["id"], doc["worker"], doc["t_dispatch"], doc["t_complete"],
        json.dumps(doc["values"]), json.dumps(doc["buckets"]),
        json.dumps(doc["rho"]), json.dumps(doc["b"]),
        doc["counterexample"], doc["termination"], doc["sim_seconds"],
    ])
    return row.getvalue(), json.dumps(doc) + "\n"


def _encoded(r: SampleRecord) -> tuple[str, str]:
    """A record's CSV row and its JSONL line, each formatted directly.

    The row is what ``csv.writer`` writes for the record, with each list
    as its JSON text, and the line is ``json.dumps(r.to_json_dict())``,
    byte for byte.  A float prints as ``float.__repr__`` in both, except
    that JSON spells nan and inf its own way; those are the only floats
    whose repr holds an ``n``.  A record whose ints and floats are not
    exactly ``int`` and ``float`` (a bool id, an int where a float
    belongs), or whose termination is empty or holds a character that CSV
    quotes or escapes, goes through csv.writer and json.dumps instead.
    """
    sample, term = r.sample, r.termination
    times = (r.t_dispatch, r.t_complete, r.sim_seconds)
    if (type(r.id) is not int or type(r.worker) is not int
            or {*map(type, sample.buckets)} != {int}
            or {*map(type, (*times, *sample.values, *r.rho))} != {float}
            or type(term) is not str or not term or not _CSV_QUOTED.isdisjoint(term)):
        return _legacy_encoded(r)
    # A list's repr is its JSON text, with the same floats, and is the
    # fastest way to print them.
    lists = [_json_text(list(xs)) for xs in (sample.values, sample.buckets, r.rho)]
    lists.append("[" + ", ".join(map(_JSON_BOOL.__getitem__, r.b)) + "]")
    t_dispatch, t_complete, sim = texts = [*map(repr, times)]
    values, buckets, rho, b = map(_csv_field, lists)
    row = (f"{r.id},{r.worker},{t_dispatch},{t_complete},{values},{buckets},"
           f"{rho},{b},{_CSV_BOOL[r.is_counterexample]},{term},{sim}\r\n")
    if "n" in "".join(texts):
        t_dispatch, t_complete, sim = map(_json_text, times)
    values, buckets, rho, b = lists
    line = (f'{{"id": {r.id}, "worker": {r.worker}, "t_dispatch": {t_dispatch}, '
            f'"t_complete": {t_complete}, "values": {values}, "buckets": {buckets}, '
            f'"rho": {rho}, "b": {b}, '
            f'"counterexample": {_JSON_BOOL[r.is_counterexample]}, '
            f'"termination": {json.dumps(term)}, "sim_seconds": {sim}}}\n')
    return row, line


def write_artifacts(result: CampaignResult, out_dir) -> dict:
    """Persist a campaign: tables, record log, summary, sampler snapshot."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    header = ",".join(RECORD_FIELDS) + "\r\n"  # csv.writer's header row
    with (
        (out / ERROR_CSV).open("w", newline="") as error_fh,
        (out / SAFE_CSV).open("w", newline="") as safe_fh,
        (out / RECORDS_JSONL).open("w") as log,
    ):
        tables = {True: error_fh, False: safe_fh}
        for table in tables.values():
            table.write(header)
        for r in result.records:
            row, line = _encoded(r)
            tables[r.is_counterexample].write(row)
            log.write(line)

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


def _malformed(where, exc: Exception) -> ConfigError:
    """The error for an artifact that does not parse or lacks a key."""
    what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    return ConfigError(f"malformed {where}: {what}")


def _read_json(run_dir, name: str):
    path = _artifact(run_dir, name)
    try:
        return json.loads(path.read_text())
    except ValueError as exc:
        raise _malformed(path, exc) from exc


def read_records(run_dir) -> list[SampleRecord]:
    path = _artifact(run_dir, RECORDS_JSONL)
    records = []
    with path.open() as fh:
        for n, line in enumerate(fh, 1):
            if line.strip():
                try:
                    records.append(SampleRecord.from_json_dict(json.loads(line)))
                except (KeyError, TypeError, ValueError) as exc:
                    raise _malformed(f"{path}, line {n}", exc) from exc
    return records


def read_summary(run_dir) -> dict:
    return _read_json(run_dir, SUMMARY_JSON)


def read_result(run_dir) -> CampaignResult:
    """Rebuild a finished campaign's result from its artifacts."""
    summary = read_summary(run_dir)
    try:
        config = parse_config(summary["config"])
        maximal = tuple(tuple(bits) for bits in summary["maximal"])
        wall_seconds = float(summary["totals"]["wall_seconds"])
        dispatched = int(summary["dispatched"])
        failed = int(summary["failed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed(Path(run_dir) / SUMMARY_JSON, exc) from exc
    return CampaignResult(
        config=config,
        records=tuple(read_records(run_dir)),
        maximal=maximal,
        snapshot=_read_json(run_dir, SNAPSHOT_JSON),
        wall_seconds=wall_seconds,
        dispatched=dispatched,
        failed=failed,
    )
