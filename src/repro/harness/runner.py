"""Parallel cell execution.

Every simulation is independent and deterministic — it builds its own
:class:`~repro.sim.engine.Simulator` from its own seed — so the grid
is embarrassingly parallel and the results cannot depend on worker
scheduling.  The runner therefore guarantees: for the same registry
cells, ``--jobs 1`` and ``--jobs N`` produce identical metrics, and a
populated cache short-circuits execution entirely.

Cells are views over run specs (:mod:`repro.harness.registry`): the
cells a sweep must compute are grouped by spec, and every backend runs
one task per group whose single simulation serves every member.  The
cache and the artifact stay per cell.
"""

from __future__ import annotations

import functools
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.harness.cache import ResultCache
from repro.harness.registry import (
    Cell,
    group_cells,
    resolve_faults,
    run_group,
)
from repro.harness.supervisor import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_RETRIES,
    FailureRecord,
    SuccessRecord,
    member_records,
    progress_line,
    run_supervised,
)


@dataclass
class CellResult:
    """One executed (or cache-served) cell.

    ``worker`` names the executing worker (distributed backend only),
    ``attempts`` counts executions including the successful one, and
    ``attempt_log`` carries any failed attempts that preceded it —
    together the provenance fields of artifact schema v3.  A cell
    served by another cell's simulation names that run's leader in
    ``shared_with`` (schema v4); its ``wall_clock_s`` is then only its
    own projection.
    """

    cell: Cell
    metrics: Dict[str, float]
    wall_clock_s: float
    cached: bool = False
    worker: Optional[str] = None
    attempts: int = 1
    attempt_log: List[Dict[str, Any]] = field(default_factory=list)
    shared_with: Optional[str] = None

    @property
    def key(self) -> str:
        return self.cell.key


@dataclass
class RunReport:
    """Outcome of one sweep: per-cell results plus cache accounting.

    ``failures`` is the failure manifest: cells the supervised runner
    quarantined after exhausting their retries.  Every requested cell
    lands in exactly one of ``results``/``failures`` — unless
    ``interrupted`` is set, in which case cells that never settled
    before the drain appear in neither.  ``simulations`` counts the
    distinct run specs the sweep executed: cache hits and results
    replayed from a dist journal run none.
    """

    results: List[CellResult] = field(default_factory=list)
    failures: List[FailureRecord] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    simulations: int = 0
    jobs: int = 1
    elapsed_s: float = 0.0
    interrupted: bool = False
    backend: str = "local"

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def ok(self) -> bool:
        """True when no cell was quarantined."""
        return not self.failures

    def by_experiment(self) -> Dict[str, List[CellResult]]:
        out: Dict[str, List[CellResult]] = {}
        for result in self.results:
            out.setdefault(result.cell.experiment, []).append(result)
        return out


def execute_group(cells: Sequence[Cell], checks: Any = False,
                  faults: Any = None, watchdog: Any = False,
                  telemetry: Optional[str] = None) -> List[SuccessRecord]:
    """Run the simulation *cells* share; one record per member.

    Top-level so pools can pickle it.  With ``telemetry`` set, the run
    is bracketed by a ``cell`` span (named after the leader, listing
    the members it serves) written from this (worker) process, and the
    gauge sampler is armed for the run (see
    :func:`~repro.harness.registry.run_group`).
    """
    if telemetry is None:
        outcomes = run_group(cells, checks=checks, faults=faults,
                             watchdog=watchdog)
    else:
        from repro.obs.events import TelemetrySink

        with TelemetrySink(telemetry) as sink:
            with sink.span("cell", cell=cells[0].key,
                           shared=[cell.key for cell in cells[1:]]):
                outcomes = run_group(cells, checks=checks, faults=faults,
                                     watchdog=watchdog, telemetry=telemetry)
    return member_records(cells, outcomes)


def storage_key(cell_key: str, checks: Any = False,
                faults: Any = None) -> str:
    """Cache key for one cell under a checks/faults configuration.

    Checked and faulted runs report extra metrics (and faulted runs
    produce entirely different dynamics), so each configuration gets
    its own namespace suffix; plain runs keep the bare cell key for
    compatibility with existing caches and baselines.
    """
    key = cell_key
    if checks:
        key += "#checks=collect" if checks == "collect" else "#checks"
    plan = resolve_faults(faults)
    if plan is not None:
        key += f"#faults={plan.describe()}"
    return key


def _pool_context():
    # fork inherits sys.path and loaded modules, which keeps workers
    # cheap; fall back to the platform default (spawn) elsewhere.
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_cells(cells: Sequence[Cell], jobs: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              progress: Optional[Callable[[str], None]] = None,
              checks: Any = False, faults: Any = None,
              timeout_s: Optional[float] = None,
              retries: int = DEFAULT_RETRIES,
              backoff_base: float = DEFAULT_BACKOFF_BASE,
              watchdog: Any = False,
              telemetry: Optional[str] = None,
              backend: str = "local",
              dist_options: Optional[Dict[str, Any]] = None) -> RunReport:
    """Execute *cells*, serving from *cache* where possible.

    ``jobs=None`` uses ``os.cpu_count()``.  Results come back sorted
    by cell key regardless of execution order or cache state.
    ``checks``/``faults``/``watchdog`` are forwarded to every
    :func:`~repro.harness.registry.run_cell`; cached entries are
    looked up under a per-configuration namespace (see
    :func:`storage_key`) so a checked or faulted sweep never serves a
    plain run's results.

    ``telemetry`` (a JSONL path) arms the run-scoped telemetry log:
    this process records the sweep bracket and cache hits, each worker
    appends its cell span and gauge samples, and the supervisor adds
    retry/quarantine events — all interleaved into the one file.
    Telemetry never affects metrics: sampler hooks schedule nothing,
    and the cache key is telemetry-independent.

    Pending cells are grouped by run spec once, here (see
    :func:`~repro.harness.registry.group_cells`), and every backend
    takes the groups as its work units: one task per group, one
    simulation whose projections serve every member, each member
    cached and reported as its own cell.  Each backend reports how
    many groups it ran (:attr:`RunReport.simulations`).

    A non-``None`` ``timeout_s`` selects **supervised execution** (see
    :mod:`repro.harness.supervisor`): every pending group runs in its
    own worker under that wall-clock deadline, failed groups are
    retried up to ``retries`` times with deterministic backoff, and
    cells whose group exhausts its attempts land in
    :attr:`RunReport.failures` instead of aborting the sweep.
    Quarantined cells are never written to the cache, so partial runs
    cannot poison later sweeps.

    ``backend="dist"`` hands the pending groups to the fault-tolerant
    distributed master (:mod:`repro.harness.dist`): lease-based
    assignment over worker processes, heartbeats, journal + resume.
    ``dist_options`` (workers/journal/resume/bind/...) are forwarded to
    :func:`repro.harness.dist.master.run_distributed`.  Cache serving,
    cache writing, and result ordering are identical across backends —
    which is what makes local and distributed sweeps of the same cells
    produce the same cells fingerprint.

    A ``KeyboardInterrupt`` during any backend drains instead of
    propagating: already-settled results and failures are returned
    with :attr:`RunReport.interrupted` set, so callers can flush a
    partial artifact.
    """
    if backend not in ("local", "dist"):
        raise ValueError(f"unknown backend {backend!r} "
                         "(expected 'local' or 'dist')")
    if jobs is None:
        jobs = multiprocessing.cpu_count()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    started = time.perf_counter()
    report = RunReport(jobs=jobs, backend=backend)
    faults = resolve_faults(faults)
    execute = functools.partial(execute_group, checks=checks, faults=faults,
                                watchdog=watchdog, telemetry=telemetry)
    sink = None
    if telemetry is not None:
        from repro.obs.events import TelemetrySink

        sink = TelemetrySink(telemetry, run_id="harness")
        sink.emit("sweep.start", cells=len(cells), jobs=jobs,
                  supervised=timeout_s is not None)

    pending: List[Cell] = []
    for cell in cells:
        cache_key = storage_key(cell.key, checks=checks, faults=faults)
        payload = cache.get(cache_key) if cache is not None else None
        if payload is not None:
            report.cache_hits += 1
            report.results.append(CellResult(
                cell=cell, metrics=payload["metrics"],
                wall_clock_s=payload.get("wall_clock_s", 0.0), cached=True))
            if sink is not None:
                sink.emit("cache.hit", cell=cell.key)
            if progress is not None:
                progress(f"{cell.key}: cached")
        else:
            report.cache_misses += 1
            pending.append(cell)
    # One task per distinct simulation, in every backend.
    groups = group_cells(pending)

    successes: List[SuccessRecord] = []
    if backend == "dist":
        from repro.harness.dist.master import run_distributed

        successes, failures, interrupted, report.simulations = \
            run_distributed(
                groups, timeout_s=timeout_s, retries=retries,
                backoff_base=backoff_base, checks=checks, faults=faults,
                watchdog=watchdog, progress=progress, telemetry=telemetry,
                **(dist_options or {}))
        report.failures = sorted(failures, key=lambda f: f.key)
        report.interrupted = interrupted
    elif timeout_s is not None:
        successes, failures, interrupted, report.simulations = \
            run_supervised(
                groups, jobs=jobs, timeout_s=timeout_s, retries=retries,
                backoff_base=backoff_base, checks=checks, faults=faults,
                watchdog=watchdog, progress=progress, telemetry=telemetry)
        report.failures = sorted(failures, key=lambda f: f.key)
        report.interrupted = interrupted
    elif len(groups) > 1 and jobs > 1:
        pool = _pool_context().Pool(processes=min(jobs, len(groups)))
        try:
            for records in pool.imap(execute, groups, chunksize=1):
                successes.extend(records)
                report.simulations += 1
                if progress is not None:
                    for record in records:
                        progress(progress_line(record))
            pool.close()
        except KeyboardInterrupt:
            # Same drain contract as the supervised/dist paths: keep
            # what already settled, flush a partial artifact upstream.
            report.interrupted = True
            pool.terminate()
        finally:
            pool.join()
    else:
        try:
            for group in groups:
                records = execute(group)
                successes.extend(records)
                report.simulations += 1
                if progress is not None:
                    for record in records:
                        progress(progress_line(record))
        except KeyboardInterrupt:
            report.interrupted = True
    executed = [CellResult(cell=s.cell, metrics=s.metrics,
                           wall_clock_s=s.wall_clock_s, worker=s.worker,
                           attempts=s.attempts,
                           attempt_log=list(s.attempt_log),
                           shared_with=s.shared_with)
                for s in successes]

    for result in executed:
        if cache is not None:
            cache.put(storage_key(result.key, checks=checks, faults=faults),
                      {"metrics": result.metrics,
                       "wall_clock_s": result.wall_clock_s})
        report.results.append(result)

    report.results.sort(key=lambda r: r.key)
    report.elapsed_s = time.perf_counter() - started
    if sink is not None:
        sink.emit("sweep.end", ok=len(report.results),
                  failed=len(report.failures),
                  interrupted=report.interrupted,
                  cache_hits=report.cache_hits,
                  cache_misses=report.cache_misses,
                  simulations=report.simulations,
                  elapsed_s=round(report.elapsed_s, 6))
        sink.close()
    return report
