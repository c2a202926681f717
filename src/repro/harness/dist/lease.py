"""Lease-based work assignment for the distributed master.

A **lease** is the unit of fault tolerance: a cell is never *sent* to
a worker, it is *leased* — granted with a deadline sized from the
cell's budget (per-cell timeout hints included) plus grace.  A lease
covers one simulation: a group of cells sharing a run spec (the
caller partitions them with
:func:`~repro.harness.registry.group_cells`), with the largest member
budget; a group that fails fails every member.  Whatever
happens to the worker afterwards, the master's view stays consistent:

* the worker returns a result before the deadline → the lease settles
  and the cell is done;
* the deadline passes → the lease **expires**: the cell re-queues with
  the supervisor's seeded exponential backoff and the attempt is
  recorded as ``timeout``.  A result arriving after expiry is *stale*
  and must be dropped (the cell may already be leased elsewhere) — the
  table refuses to settle a lease it no longer holds;
* the worker dies or goes silent → every lease it held is revoked at
  once and each cell re-queues with the distinct ``worker-lost`` kind.

Attempts are capped exactly as in the local supervised runner: a cell
that exhausts ``retries`` re-executions becomes a
:class:`~repro.harness.supervisor.FailureRecord` in the sweep's
failure manifest.  The backoff schedule is the same pure function of
``(cell key, attempt)``, so a distributed sweep retries on the same
schedule as a local one.

The table is plain single-threaded state — the asyncio master is the
only caller — and takes ``now`` explicitly everywhere, which is what
makes expiry/backoff behaviour unit-testable without sleeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.harness.registry import Cell, group_budget
from repro.harness.supervisor import (
    DEFAULT_BACKOFF_BASE,
    FailureRecord,
    member_failures,
    retry_backoff,
)
from repro.harness.dist.protocol import DEFAULT_LEASE_GRACE_S


@dataclass
class DistTask:
    """One group's book-keeping across grants, mirroring the local
    supervisor's ``_Task``."""

    cells: Tuple[Cell, ...]
    attempts: int = 0
    not_before: float = 0.0       # backoff gate (master's clock)
    wall_clock_s: float = 0.0
    attempt_log: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def cell(self) -> Cell:
        """The leader: the cell whose key names the run."""
        return self.cells[0]

    @property
    def key(self) -> str:
        return self.cell.key


@dataclass
class Lease:
    """One outstanding grant: a cell on a worker, with a deadline."""

    lease_id: str
    task: DistTask
    worker: str
    attempt: int
    budget_s: Optional[float]
    deadline: float               # master's clock; inf when unbounded


class LeaseTable:
    """Pending groups, outstanding leases, and the retry policy.

    The master drives it with five calls: :meth:`grant` when a worker
    is idle, :meth:`settle_ok` / :meth:`settle_fail` when messages
    arrive, :meth:`expire` on its periodic scan, and
    :meth:`revoke_worker` when a worker is lost.
    """

    def __init__(self, groups: Sequence[Tuple[Cell, ...]],
                 timeout_s: Optional[float],
                 retries: int,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 lease_grace_s: float = DEFAULT_LEASE_GRACE_S):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_base = backoff_base
        self.lease_grace_s = lease_grace_s
        # Longest-first packing: granting the biggest declared budgets
        # first keeps a 1,000-flow cell from becoming the straggler tail
        # of the sweep.  The sort is stable and keyed on the *declared*
        # budget only, so it cannot change any cell's metrics — artifact
        # fingerprints stay backend-independent (results are re-sorted
        # by key downstream).  ``None`` budgets (unsupervised runs) are
        # unbounded, so they sort first.
        def _declared(group: Tuple[Cell, ...]) -> float:
            budget = group_budget(group, timeout_s)
            return float("inf") if budget is None else budget

        self.pending: List[DistTask] = [
            DistTask(tuple(group)) for group in
            sorted(groups, key=_declared, reverse=True)]
        self.leases: Dict[str, Lease] = {}
        self.successes: List[Tuple[DistTask, Dict[str, float], float, str]] = []
        self.failures: List[FailureRecord] = []
        self._next_lease = 0
        # Counters folded into telemetry / `repro report`.
        self.expired_leases = 0
        self.stale_results = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return not self.pending and not self.leases

    def outstanding(self) -> int:
        """Groups not yet settled (pending + leased)."""
        return len(self.pending) + len(self.leases)

    def next_due(self, now: float) -> Optional[DistTask]:
        """Pop the first pending task whose backoff gate is open."""
        for index, task in enumerate(self.pending):
            if task.not_before <= now:
                return self.pending.pop(index)
        return None

    def earliest_gate(self) -> Optional[float]:
        """The soonest ``not_before`` among pending tasks, if any."""
        if not self.pending:
            return None
        return min(task.not_before for task in self.pending)

    # ------------------------------------------------------------------
    # Granting
    # ------------------------------------------------------------------
    def grant(self, worker: str, now: float) -> Optional[Lease]:
        """Lease the next due cell to *worker*, or ``None`` if none."""
        task = self.next_due(now)
        if task is None:
            return None
        task.attempts += 1
        self._next_lease += 1
        budget = group_budget(task.cells, self.timeout_s)
        deadline = (float("inf") if budget is None
                    else now + budget + self.lease_grace_s)
        lease = Lease(lease_id=f"L{self._next_lease}", task=task,
                      worker=worker, attempt=task.attempts,
                      budget_s=budget, deadline=deadline)
        self.leases[lease.lease_id] = lease
        return lease

    # ------------------------------------------------------------------
    # Settling
    # ------------------------------------------------------------------
    def _take(self, lease_id: str, worker: str) -> Optional[Lease]:
        """Claim a live lease for settling; ``None`` if stale.

        Stale = the lease expired (and was re-queued or re-granted) or
        belongs to a different worker incarnation.  Dropping stale
        settlements is the no-cache-poisoning guarantee: only the
        current holder of a live lease can file a result for its cell.
        """
        lease = self.leases.get(lease_id)
        if lease is None or lease.worker != worker:
            self.stale_results += 1
            return None
        del self.leases[lease_id]
        return lease

    def settle_ok(self, lease_id: str, worker: str,
                  metrics: Dict[str, float],
                  wall_clock_s: float) -> Optional[DistTask]:
        """A result arrived; returns the task, or ``None`` if stale."""
        lease = self._take(lease_id, worker)
        if lease is None:
            return None
        task = lease.task
        task.wall_clock_s += wall_clock_s
        self.successes.append((task, metrics, wall_clock_s, worker))
        return task

    def settle_fail(self, lease_id: str, worker: str, kind: str,
                    message: str, detail: Dict[str, Any],
                    wall_clock_s: float, now: float,
                    ) -> Optional[Tuple[DistTask, Tuple[str, float]]]:
        """A failure arrived; retry or quarantine the cell.

        Returns the task with its outcome — ``("retry", backoff_s)`` or
        ``("quarantine", 0.0)`` — or ``None`` when the lease was stale.
        """
        lease = self._take(lease_id, worker)
        if lease is None:
            return None
        outcome = self._settle_attempt(lease.task, kind, message, detail,
                                       wall_clock_s, now)
        return (lease.task, outcome)

    def _settle_attempt(self, task: DistTask, kind: str, message: str,
                        detail: Dict[str, Any], wall_clock_s: float,
                        now: float) -> Tuple[str, float]:
        task.wall_clock_s += wall_clock_s
        task.attempt_log.append({"attempt": task.attempts, "kind": kind,
                                 "message": message,
                                 "wall_clock_s": round(wall_clock_s, 6)})
        if task.attempts <= self.retries:
            backoff = retry_backoff(task.key, task.attempts,
                                    self.backoff_base)
            task.attempt_log[-1]["backoff_s"] = round(backoff, 6)
            task.not_before = now + backoff
            self.pending.append(task)
            return ("retry", backoff)
        self.failures.extend(member_failures(
            task.cells, kind, message, task.attempts, task.wall_clock_s,
            detail, task.attempt_log))
        return ("quarantine", 0.0)

    # ------------------------------------------------------------------
    # Expiry and revocation
    # ------------------------------------------------------------------
    def expired(self, now: float) -> List[Lease]:
        """Leases past their deadline (not yet revoked)."""
        return [lease for lease in self.leases.values()
                if now >= lease.deadline]

    def expire(self, lease: Lease, now: float) -> Tuple[str, float]:
        """Revoke one expired lease; the attempt settles as ``timeout``."""
        self.leases.pop(lease.lease_id, None)
        self.expired_leases += 1
        budget = lease.budget_s
        wall = budget if budget is not None else 0.0
        return self._settle_attempt(
            lease.task, "timeout",
            f"lease expired: exceeded the per-cell budget of "
            f"{budget:g}s on worker {lease.worker}",
            {"timeout_s": budget, "worker": lease.worker}, wall, now)

    def revoke_worker(self, worker: str, reason: str,
                      now: float) -> List[Tuple[Lease, Tuple[str, float]]]:
        """Revoke every lease held by *worker* (it died or went dark).

        Each revoked cell settles one ``worker-lost`` attempt — the
        infrastructure failed, not the cell — and re-queues (or
        quarantines, once attempts are exhausted).  Returns the
        revoked leases with their settle outcomes.
        """
        revoked = []
        for lease in [entry for entry in self.leases.values()
                      if entry.worker == worker]:
            del self.leases[lease.lease_id]
            outcome = self._settle_attempt(
                lease.task, "worker-lost",
                f"worker {worker} lost mid-cell ({reason})",
                {"worker": worker, "reason": reason}, 0.0, now)
            revoked.append((lease, outcome))
        return revoked
