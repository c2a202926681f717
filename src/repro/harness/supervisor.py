"""Supervised cell execution: timeouts, crash quarantine, retries.

The plain runner (:mod:`repro.harness.runner`) maps cells over a
``multiprocessing`` pool: one hung worker stalls the sweep forever and
one crashed worker kills it.  The fault profiles (``heavy``, ``flap``)
and the 17-hop ``experiments.internet`` path exist precisely to push
cells into pathological regimes, so the sweep needs to *survive* those
regimes and report them instead of dying.

This module runs each pending cell in its own worker process under a
per-cell wall-clock deadline — or rather each pending *group*: the
caller partitions the cells by run spec
(:func:`~repro.harness.registry.group_cells`), and the cells of a group
share one worker, one simulation and the largest of their budgets; a
failed group fails every member:

* a worker that exceeds the deadline is terminated (then killed) and
  the attempt is recorded as ``timeout``;
* a worker that raises is recorded as ``crash`` — except the typed
  failures :class:`~repro.errors.InvariantViolation`
  (``check-violation``) and :class:`~repro.errors.SimulationStalled`
  (``divergence``), which carry structured diagnostics;
* a worker that dies without reporting (segfault, ``os._exit``) is a
  ``crash`` with its exit code.

Failed attempts are retried up to ``retries`` times with a seeded
deterministic backoff (a pure function of the cell key and attempt
number — two runs of the same sweep wait the same amount).  A cell
that exhausts its attempts becomes a :class:`FailureRecord` in the
sweep's failure manifest; sibling cells are unaffected and the sweep
always completes with partial results.

Nothing here touches the result cache: quarantined cells are never
written to it, so a partial run cannot poison later sweeps.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.connection
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import InvariantViolation, SimulationStalled
from repro.harness.registry import Cell, group_budget, run_group

#: The failure taxonomy, in display order.  ``worker-lost`` is the
#: distributed backend's kind (see :mod:`repro.harness.dist`): the
#: *worker* died or went silent, not the cell's own code — distinct
#: from a cell-level ``crash`` so retry budgets and dashboards can
#: tell infrastructure failures from simulation failures.
FAILURE_KINDS = ("timeout", "crash", "divergence", "check-violation",
                 "worker-lost")

#: Default per-cell wall-clock budget (seconds).  The slowest quick
#: cell finishes in single-digit seconds on any hardware CI uses; two
#: minutes is "hung", not "slow".
DEFAULT_TIMEOUT_S = 120.0

#: Default retry budget: one re-execution before quarantine.
DEFAULT_RETRIES = 1

#: Base of the deterministic backoff schedule (seconds).
DEFAULT_BACKOFF_BASE = 0.05

#: How long a terminated worker gets to die before SIGKILL.
_TERM_GRACE_S = 2.0

#: Poll granularity of the supervision loop (seconds).
_POLL_S = 0.02


@dataclass
class SuccessRecord:
    """One completed cell with its execution provenance.

    ``worker`` is the executing worker's identity (``None`` for the
    local supervised pool), ``attempts`` counts executions including
    the successful one, and ``attempt_log`` records any failed
    attempts that preceded it — the raw material of artifact schema
    v3's per-cell attempt history.  ``shared_with`` names the leader
    whose simulation served this cell (schema v4), ``None`` for the
    leader itself.
    """

    cell: Cell
    metrics: Dict[str, Any]
    wall_clock_s: float
    worker: Optional[str] = None
    attempts: int = 1
    attempt_log: List[Dict[str, Any]] = field(default_factory=list)
    shared_with: Optional[str] = None

    @property
    def key(self) -> str:
        return self.cell.key


@dataclass
class FailureRecord:
    """One quarantined cell: the structured entry of the failure manifest."""

    key: str
    experiment: str
    kind: str                     # one of FAILURE_KINDS (final attempt)
    message: str
    attempts: int                 # executions, including the first
    wall_clock_s: float           # summed across every attempt
    detail: Dict[str, Any] = field(default_factory=dict)
    attempt_log: List[Dict[str, Any]] = field(default_factory=list)
    shared_with: Optional[str] = None     # the failed run's leader

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "experiment": self.experiment,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "wall_clock_s": self.wall_clock_s,
            "detail": self.detail,
            "attempt_log": self.attempt_log,
            "shared_with": self.shared_with,
        }


def member_records(cells: Sequence[Cell],
                   outcomes: Sequence[Tuple[Dict[str, Any], float]],
                   worker: Optional[str] = None, attempts: int = 1,
                   attempt_log: Sequence[Dict[str, Any]] = (),
                   ) -> List[SuccessRecord]:
    """One :class:`SuccessRecord` per member of a group's run.

    *outcomes* are :func:`~repro.harness.registry.run_group`'s
    ``(metrics, seconds)`` pairs; the provenance is the group's and is
    copied onto every member.
    """
    leader = cells[0].key
    return [SuccessRecord(cell=cell, metrics=metrics, wall_clock_s=wall,
                          worker=worker, attempts=attempts,
                          attempt_log=list(attempt_log),
                          shared_with=None if cell.key == leader else leader)
            for cell, (metrics, wall) in zip(cells, outcomes)]


def member_failures(cells: Sequence[Cell], kind: str, message: str,
                    attempts: int, wall_clock_s: float,
                    detail: Dict[str, Any],
                    attempt_log: List[Dict[str, Any]]) -> List[FailureRecord]:
    """One :class:`FailureRecord` per member of a quarantined group."""
    leader = cells[0].key
    return [FailureRecord(key=cell.key, experiment=cell.experiment,
                          kind=kind, message=message, attempts=attempts,
                          wall_clock_s=wall_clock_s, detail=detail,
                          attempt_log=list(attempt_log),
                          shared_with=None if cell.key == leader else leader)
            for cell in cells]


def runs_settled(successes: Sequence[SuccessRecord],
                 failures: Sequence[FailureRecord]) -> int:
    """How many group runs settled *successes* and *failures*.

    Every settled group has exactly one record with no ``shared_with``
    (its leader's), whether it succeeded or was quarantined.
    """
    return sum(1 for record in (*successes, *failures)
               if record.shared_with is None)


def progress_line(record) -> str:
    """The progress note of one settled cell (a result or success record)."""
    if record.shared_with is not None:
        return f"{record.key}: shared run of {record.shared_with}"
    note = " (retry)" if record.attempts > 1 else ""
    return f"{record.key}: {record.wall_clock_s:.2f}s{note}"


def classify_error(exc: BaseException) -> Tuple[str, str, Dict[str, Any]]:
    """Map an exception onto the failure taxonomy.

    Returns ``(kind, message, detail)``.  Order matters:
    :class:`InvariantViolation` subclasses ``SimulationError`` and must
    be tested before the broader stall/crash buckets.
    """
    message = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, InvariantViolation):
        return "check-violation", message, {
            "invariant": exc.invariant,
            "sim_time": exc.sim_time,
            "subject": exc.subject,
            "flow": str(exc.flow) if exc.flow is not None else None,
            "detail": exc.detail,
        }
    if isinstance(exc, SimulationStalled):
        return "divergence", message, {
            "reason": exc.reason,
            "sim_time": exc.sim_time,
            "stalled_for": exc.stalled_for,
            "snapshot": exc.snapshot,
        }
    tb = traceback.format_exception(type(exc), exc, exc.__traceback__)
    return "crash", message, {
        "exception": type(exc).__name__,
        "traceback": "".join(tb)[-4000:],
    }


def retry_backoff(key: str, attempt: int,
                  base: float = DEFAULT_BACKOFF_BASE) -> float:
    """Deterministic exponential backoff with seeded jitter.

    A pure function of ``(cell key, attempt)``: doubling per attempt,
    scaled by a jitter factor in ``[0.5, 1.5)`` drawn from SHA-256 of
    the pair — reproducible across runs and hosts, no shared RNG
    state, and distinct cells never thundering-herd their retries.
    """
    digest = hashlib.sha256(f"{key}#retry{attempt}".encode()).digest()
    jitter = 0.5 + int.from_bytes(digest[:4], "big") / 2 ** 32
    return base * (2 ** max(0, attempt - 1)) * jitter


def _mp_context():
    # fork inherits sys.path, loaded modules, and (crucially for the
    # tests) runtime-registered experiments; fall back to the platform
    # default elsewhere.
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _supervised_entry(send_conn, cells: Tuple[Cell, ...], checks: Any,
                      faults: Any, watchdog: Any,
                      telemetry: Optional[str] = None) -> None:
    """Worker body: run one group, report outcome through the pipe."""
    start = time.perf_counter()
    sink = None
    if telemetry is not None:
        from repro.obs.events import TelemetrySink

        sink = TelemetrySink(telemetry)
    try:
        if sink is None:
            outcomes = run_group(cells, checks=checks, faults=faults,
                                 watchdog=watchdog)
        else:
            with sink.span("cell", cell=cells[0].key,
                           shared=[cell.key for cell in cells[1:]]):
                outcomes = run_group(cells, checks=checks, faults=faults,
                                     watchdog=watchdog, telemetry=telemetry)
    except BaseException as exc:  # noqa: BLE001 - taxonomy needs everything
        kind, message, detail = classify_error(exc)
        payload = ("fail", kind, message, detail,
                   time.perf_counter() - start)
    else:
        payload = ("ok", outcomes, time.perf_counter() - start)
    finally:
        if sink is not None:
            sink.close()
    try:
        send_conn.send(payload)
    finally:
        send_conn.close()


@dataclass
class _Task:
    """Book-keeping for one group (one simulation) across its attempts."""

    cells: Tuple[Cell, ...]
    attempts: int = 0
    not_before: float = 0.0       # perf_counter() gate for retries
    wall_clock_s: float = 0.0
    attempt_log: List[Dict[str, Any]] = field(default_factory=list)
    last: Optional[Tuple[str, str, Dict[str, Any]]] = None

    @property
    def key(self) -> str:
        """The leader's key: names the run in logs and backoff."""
        return self.cells[0].key


class _Running:
    """One live worker process and its result pipe."""

    __slots__ = ("task", "process", "conn", "deadline", "budget")

    def __init__(self, task: _Task, process, conn, deadline: float,
                 budget: Optional[float]):
        self.task = task
        self.process = process
        self.conn = conn
        self.deadline = deadline
        self.budget = budget


def run_supervised(groups: Sequence[Tuple[Cell, ...]], jobs: int,
                   timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
                   retries: int = DEFAULT_RETRIES,
                   backoff_base: float = DEFAULT_BACKOFF_BASE,
                   checks: Any = False, faults: Any = None,
                   watchdog: Any = False,
                   progress: Optional[Callable[[str], None]] = None,
                   telemetry: Optional[str] = None,
                   ) -> Tuple[List[SuccessRecord], List[FailureRecord],
                              bool, int]:
    """Execute *groups* under supervision; never raises for a cell.

    Each group is a tuple of cells sharing one run spec (see
    :func:`~repro.harness.registry.group_cells`), run as one task.
    Returns ``(successes, failures, interrupted, simulations)`` where
    each success is a :class:`SuccessRecord`, each failure a finalized
    :class:`FailureRecord`, and ``simulations`` the number of groups
    whose run settled.  Every input cell appears in exactly one of
    the two lists — unless the sweep was interrupted (``SIGINT``), in
    which case in-flight and not-yet-started cells appear in neither:
    the drain path kills running workers, keeps everything already
    settled, and reports ``interrupted=True`` so callers can flush a
    partial artifact instead of dying with a raw traceback.  ``timeout_s``
    is the sweep-wide deadline; experiments that registered a
    :func:`~repro.harness.registry.register_timeout_hint` budget get
    the larger of the two (see
    :func:`~repro.harness.registry.cell_budget`), and a group of cells
    sharing one run gets its largest member budget.  With ``telemetry``
    set, retry and quarantine decisions are logged from this process
    and each worker appends its own cell span and gauges.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")
    sink = None
    if telemetry is not None:
        from repro.obs.events import TelemetrySink

        sink = TelemetrySink(telemetry, run_id="supervisor")
    ctx = _mp_context()
    ready: List[_Task] = [_Task(tuple(group)) for group in groups]
    ready.reverse()               # pop() from the end preserves order
    waiting: List[_Task] = []     # backoff gate not yet open
    running: List[_Running] = []
    successes: List[SuccessRecord] = []
    failures: List[FailureRecord] = []

    def launch(task: _Task) -> None:
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(target=_supervised_entry,
                              args=(send_conn, task.cells, checks, faults,
                                    watchdog, telemetry))
        process.daemon = True
        process.start()
        send_conn.close()         # parent keeps only the read end
        task.attempts += 1
        budget = group_budget(task.cells, timeout_s)
        deadline = (float("inf") if budget is None
                    else time.perf_counter() + budget)
        running.append(_Running(task, process, recv_conn, deadline, budget))

    def settle_attempt(task: _Task, kind: str, message: str,
                       detail: Dict[str, Any], wall: float) -> None:
        task.wall_clock_s += wall
        task.last = (kind, message, detail)
        task.attempt_log.append({"attempt": task.attempts, "kind": kind,
                                 "message": message,
                                 "wall_clock_s": round(wall, 6)})
        if task.attempts <= retries:
            backoff = retry_backoff(task.key, task.attempts, backoff_base)
            task.attempt_log[-1]["backoff_s"] = round(backoff, 6)
            task.not_before = time.perf_counter() + backoff
            waiting.append(task)
            if sink is not None:
                sink.emit("cell.retry", cell=task.key, kind=kind,
                          attempt=task.attempts, backoff_s=round(backoff, 6))
            if progress is not None:
                progress(f"{task.key}: {kind} on attempt {task.attempts}, "
                         f"retrying in {backoff:.2f}s")
        else:
            quarantined = member_failures(
                task.cells, kind, message, task.attempts, task.wall_clock_s,
                detail, task.attempt_log)
            failures.extend(quarantined)
            for failure in quarantined:
                if sink is not None:
                    sink.emit("cell.quarantine", cell=failure.key, kind=kind,
                              attempts=task.attempts, message=message)
                if progress is not None:
                    progress(f"{failure.key}: FAILED ({kind}) after "
                             f"{task.attempts} attempt(s)")

    def reap(entry: _Running) -> None:
        running.remove(entry)
        task = entry.task
        payload = None
        if entry.conn.poll():
            try:
                payload = entry.conn.recv()
            except EOFError:
                payload = None
        entry.conn.close()
        if payload is not None:
            entry.process.join()
            if payload[0] == "ok":
                _, outcomes, wall = payload
                task.wall_clock_s += wall
                settled = member_records(task.cells, outcomes,
                                         attempts=task.attempts,
                                         attempt_log=task.attempt_log)
                successes.extend(settled)
                if progress is not None:
                    for record in settled:
                        progress(progress_line(record))
            else:
                _, kind, message, detail, wall = payload
                settle_attempt(task, kind, message, detail, wall)
            return
        # No payload: the worker died before reporting.
        entry.process.join()
        code = entry.process.exitcode
        settle_attempt(task, "crash",
                       f"worker exited with code {code} before reporting",
                       {"exitcode": code}, 0.0)

    def terminate(entry: _Running) -> None:
        process = entry.process
        process.terminate()
        process.join(_TERM_GRACE_S)
        if process.is_alive():
            process.kill()
            process.join()
        entry.conn.close()

    def kill(entry: _Running) -> None:
        running.remove(entry)
        terminate(entry)
        budget = entry.budget
        settle_attempt(entry.task, "timeout",
                       f"exceeded the per-cell deadline of {budget:g}s",
                       {"timeout_s": budget},
                       budget if budget is not None else 0.0)

    interrupted = False
    try:
        _supervise_loop(ready, waiting, running, jobs, launch, reap, kill)
    except KeyboardInterrupt:
        # Graceful drain: kill in-flight workers without settling their
        # cells (they are neither successes nor failures — simply not
        # run), keep everything already settled, and hand the partial
        # outcome back so the caller can flush artifacts and the
        # failure manifest with an `interrupted` marker.
        interrupted = True
        for entry in list(running):
            running.remove(entry)
            terminate(entry)
        if sink is not None:
            sink.emit("sweep.interrupted", settled=len(successes),
                      failed=len(failures),
                      abandoned=len(ready) + len(waiting))
    finally:
        if sink is not None:
            sink.close()

    return (successes, failures, interrupted,
            runs_settled(successes, failures))


def _supervise_loop(ready, waiting, running, jobs, launch, reap, kill) -> None:
    """The supervision event loop, factored out of :func:`run_supervised`."""
    while ready or waiting or running:
        now = time.perf_counter()
        if waiting:
            still = [t for t in waiting if t.not_before > now]
            due = [t for t in waiting if t.not_before <= now]
            if due:
                waiting[:] = still
                ready[:0] = reversed(due)   # retries go to the front
        while ready and len(running) < jobs:
            launch(ready.pop())
        if not running:
            # Only backoff gates left: sleep until the earliest opens
            # (bounded by the poll granularity) and rescan.
            time.sleep(_POLL_S)
            continue
        # Block briefly on every live pipe; a timed-out worker that
        # never writes is caught by the deadline scan below.
        multiprocessing.connection.wait(
            [entry.conn for entry in running], timeout=_POLL_S)
        now = time.perf_counter()
        for entry in list(running):
            if entry.conn.poll() or not entry.process.is_alive():
                reap(entry)
            elif now >= entry.deadline:
                kill(entry)
