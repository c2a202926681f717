"""Discrete-event simulation engine.

The engine is a classic event-heap scheduler.  Events are callbacks
scheduled at absolute simulated times; ties are broken by insertion
order so runs are fully deterministic.  The x-kernel simulator the
paper used worked the same way: real protocol code driven by a virtual
clock.

Typical use::

    sim = Simulator()
    sim.schedule(1.0, lambda: print("one second in"))
    sim.run(until=10.0)

Components keep a reference to their :class:`Simulator` and use
:meth:`Simulator.schedule` for everything time-related: link
transmission completions, protocol timers, application send times.

Hot path
--------

Millions of events per run means the scheduler's constant factors
dominate wall clock, so the engine:

* stores ``(time, seq, event)`` tuples in the heap (``(time, seq, fn,
  args)`` for anonymous events), so ``heapq`` compares C tuples —
  ``seq`` is unique, so the comparison never reaches the event object;
* recycles :class:`Event` objects through a free list, cutting
  allocator churn on the schedule/fire cycle;
* dispatches from a bare loop when no instrument is attached and from
  one hooked loop otherwise; both order and count events identically.

Execution order is ``(time, seq)``.  The engine differential
(``tests/test_engine_differential.py``) replays random scheduling
programs against a plain ``(time, seq)`` reference scheduler, and
``tests/test_dispatch_digest.py`` pins the dispatch sequence of two
paper cells.

Far-horizon calendar overflow
-----------------------------

A binary heap is the right structure for the dense near-term event
population (packet transmissions, deliveries), but thousand-flow runs
also carry thousands of *far* events — conversation start times and
think-time timers seconds in the future — and every one of them
inflates each ``heappush``/``heappop`` along the way.  Above a
live-event threshold the engine therefore parks far events in
calendar buckets (one unsorted list per ``_wheel_width``-second
epoch) and only heapifies a bucket when the heap drains down to it:
O(1) insertion for the far population, and the heap stays sized to
the near-term burst.

Ordering stays bit-identical to the pure heap by construction, via
two complementary rules.  An entry may *start* a bucket ``e`` only
when ``e`` lies strictly beyond both the currently loaded epoch and
``_heap_max`` — the largest timestamp ever pushed onto the heap since
it last drained — so every heap entry sorts before every parked
entry.  And once any bucket is populated, every new event at or past
the lowest nonempty bucket's boundary (``_far_bound``) *must* park
rather than enter the heap, so the heap can never leapfrog a parked
entry.  Buckets are merged back through ``heapify``, where ``(time,
seq)`` uniqueness restores the exact global order.  Below the
threshold (every quick-sweep cell) no event is ever parked and the
engine is the plain tuple heap.  :data:`WHEEL_THRESHOLD` and
:data:`WHEEL_WIDTH` fix the activation point and bucket width; the
engine differential patches the threshold to zero to cross-check the
wheel's dispatch order against the reference scheduler.

Event-handle contract: an :class:`Event` returned by ``schedule`` is
only a valid handle until it fires.  Cancelling after the callback ran
is a safe no-op, but holders that may outlive their event must null
their reference when it fires (see ``TCPConnection._pace_fire``),
because a fired event's object may be recycled for a later
``schedule`` call.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, List, Optional

from repro.checks import runtime as checks_runtime
from repro.errors import SimulationError
from repro.obs import runtime as obs_runtime
from repro.perf import runtime as perf_runtime
from repro.sim import watchdog as watchdog_runtime

#: Most recently constructed Simulator in this process; see
#: :func:`last_simulator`.
_last_simulator: Optional["Simulator"] = None

_heappush = heapq.heappush
_INF = float("inf")

#: Upper bound on the event free list.  Steady-state simulations churn
#: far fewer live events than this; the cap only bounds memory after a
#: transient burst of cancellations.
_POOL_MAX = 4096

#: Live-event count above which far events overflow into calendar
#: buckets.  Small cells (the whole quick sweep) never cross this, so
#: their scheduling is byte-for-byte the plain tuple heap.
WHEEL_THRESHOLD = 256

#: Calendar bucket width in simulated seconds.  Near events (within
#: the current epoch or below ``_heap_max``) always go to the heap,
#: so the width only tunes how coarsely the far population is binned.
WHEEL_WIDTH = 1.0


def last_simulator() -> Optional["Simulator"]:
    """Return the most recently constructed :class:`Simulator`.

    Every experiment builds exactly one simulator per run, but none of
    the experiment entry points return it.  The harness uses this hook
    to read :attr:`Simulator.events_processed` after a cell finishes,
    without threading the engine through every experiment signature.
    Only valid between one experiment's construction and the next.
    """
    return _last_simulator


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` so callers can
    cancel them.  A cancelled event stays in the heap but is skipped
    when popped (lazy deletion), which keeps cancellation O(1).

    Once the callback has fired the handle is dead: ``cancel()`` is a
    no-op (``cancelled`` is set as the event leaves the heap), and the
    object may be reused for a future ``schedule`` call, so holders
    must drop their reference when their event fires.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple,
                 sim: Optional["Simulator"] = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Back-reference for the owner's live-event counter; cleared
        # once the event leaves the heap so late cancels stay no-ops.
        self._sim = sim

    def cancel(self) -> None:
        """Mark the event so it will not fire.  No-op after it fired."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._live -= 1
                self._sim = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class Simulator:
    """Deterministic discrete-event scheduler.

    The simulator owns the virtual clock (:attr:`now`, in seconds) and
    an event heap.  ``run()`` pops events in (time, insertion-order)
    order until the heap empties or a time horizon passes.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        # (time, seq, Event) for handled events, (time, seq, fn, args)
        # for anonymous ones.
        self._heap: List[Any] = []
        self._seq: int = 0
        self._live: int = 0
        self._events_processed: int = 0
        self._running = False
        self._pool: List[Event] = []
        # Far-horizon calendar overflow (see the module docstring).
        # ``_far`` maps epoch index -> unsorted list of heap entries;
        # ``_heap_max`` is the largest timestamp pushed onto the heap
        # since it last drained, the safety bound that keeps parked
        # entries strictly after every heap entry.
        self._far: dict = {}
        self._far_count: int = 0
        self._epoch: int = 0
        self._heap_max: float = 0.0
        self._far_bound: float = _INF
        self._far_peak: int = 0
        self._wheel_threshold: int = WHEEL_THRESHOLD
        self._wheel_width: float = WHEEL_WIDTH
        # Bound at construction so the run loop pays one attribute
        # test when checking/profiling is off (see repro.checks.runtime
        # and repro.perf.runtime).
        self.checker = checks_runtime.active()
        if self.checker is not None:
            self.checker.register_simulator(self)
        self.perf = perf_runtime.active()
        if self.perf is not None:
            self.perf.register_simulator(self)
        # Liveness watchdog (repro.sim.watchdog): like the checker, its
        # hooks read state and schedule nothing, so events_processed is
        # identical with the watchdog on.
        self.watchdog = watchdog_runtime.active()
        if self.watchdog is not None:
            self.watchdog.register_simulator(self)
        # Telemetry gauges (repro.obs): read-only sampler on the same
        # contract — it never schedules, so events_processed is
        # identical with gauges armed.
        self.obs = obs_runtime.active()
        if self.obs is not None:
            self.obs.register_simulator(self)
        global _last_simulator
        _last_simulator = self

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule *fn(*args)* to run *delay* seconds from now.

        Negative delays are rejected (an event in the past would break
        the monotone-clock invariant), and so are NaN and infinite
        ones, which have no place in the ``(time, seq)`` order.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"cannot schedule event after delay "
                                  f"{delay!r}: must be finite and >= 0")
        return self._push(self.now + delay, fn, args)

    def schedule_anon(self, delay: float, fn: Callable[..., Any],
                      *args: Any) -> None:
        """Schedule *fn(*args)* with no handle (not cancellable).

        The fire-and-forget variant of :meth:`schedule` for callers
        that drop the returned handle — packet deliveries, transmission
        completions, one-shot application timers.  It pushes a bare
        ``(time, seq, fn, args)`` tuple: no :class:`Event` object, no
        free-list churn, and none of the handle-neutralising stores on
        dispatch.  Ordering is the same ``(time, seq)`` as handled
        events, so the two kinds interleave bit-identically with how
        :meth:`schedule` would have ordered them.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"cannot schedule event after delay "
                                  f"{delay!r}: must be finite and >= 0")
        time = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        entry = (time, seq, fn, args)
        if ((self._far_count or len(self._heap) > self._wheel_threshold)
                and self._park(entry)):
            return
        if time > self._heap_max:
            self._heap_max = time
        _heappush(self._heap, entry)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule *fn(*args)* at absolute simulated time *time*."""
        if not self.now <= time < _INF:
            raise SimulationError(f"cannot schedule event at t={time!r}: "
                                  f"must be finite and >= now={self.now!r}")
        return self._push(time, fn, args)

    def _push(self, time: float, fn: Callable[..., Any], args: tuple) -> Event:
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.fn = fn
            event.args = args
            event.cancelled = False
            event._sim = self
        else:
            event = Event(time, seq, fn, args, sim=self)
        entry = (time, seq, event)
        if ((self._far_count or len(self._heap) > self._wheel_threshold)
                and self._park(entry)):
            return event
        if time > self._heap_max:
            self._heap_max = time
        _heappush(self._heap, entry)
        return event

    def _park(self, entry: tuple) -> bool:
        """Park heap *entry* in its calendar bucket when order allows.

        Returns False when the entry must go to the heap instead.  An
        entry parks when it lies at or past the lowest nonempty
        bucket's boundary (it may not leapfrog a parked entry), or when
        its epoch is beyond both the loaded epoch and ``_heap_max``
        (every heap entry then sorts before it).  Only consulted while
        the wheel is engaged: buckets are populated or the heap is
        above the threshold.
        """
        time = entry[0]
        width = self._wheel_width
        epoch = int(time / width)
        if time < self._far_bound and (epoch <= self._epoch
                                       or epoch * width <= self._heap_max):
            return False
        self._far.setdefault(epoch, []).append(entry)
        count = self._far_count + 1
        self._far_count = count
        if count > self._far_peak:
            self._far_peak = count
        bound = epoch * width
        if bound < self._far_bound:
            self._far_bound = bound
        return True

    def _advance_epoch(self) -> bool:
        """Load the earliest calendar bucket into the (empty) heap.

        Returns False when no far events remain.  Entries are merged
        with ``heapify``; ``(time, seq)`` uniqueness makes the merged
        order exactly what a single global heap would have produced.
        ``_heap_max`` conservatively becomes the loaded epoch's upper
        boundary, so subsequent parking decisions stay safe.
        """
        far = self._far
        if not far:
            return False
        epoch = min(far)
        entries = far.pop(epoch)
        self._far_count -= len(entries)
        heap = self._heap
        heap.extend(entries)
        heapq.heapify(heap)
        self._epoch = epoch
        self._heap_max = (epoch + 1) * self._wheel_width
        self._far_bound = min(far) * self._wheel_width if far else _INF
        return True

    def _recycle(self, event: Event) -> None:
        # Neutralise the handle before pooling: a late cancel() on a
        # fired event must be a no-op and must not hold references.
        event.cancelled = True
        event._sim = None
        event.fn = None
        event.args = ()
        if len(self._pool) < _POOL_MAX:
            self._pool.append(event)

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel *event* if it is pending.  ``None`` is accepted as a no-op."""
        if event is not None:
            event.cancel()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> int:
        """Process events until the heap drains or the horizon passes.

        ``until`` is an inclusive time horizon: events scheduled at
        exactly ``until`` still fire.  Returns the number of events
        processed during this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        # Dispatch allocates heavily (heap tuples, packets, segments)
        # but almost everything dies by refcount; suspending the
        # cyclic collector for the duration avoids generation-0 scans
        # every ~700 allocations.  Cycles made during a run (topology,
        # connections) are long-lived anyway and are swept once the
        # collector resumes.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            processed = self._run_fast(until)
            if (until is not None and self.now < until
                    and not self._has_pending_before(until)):
                # Advance the clock to the horizon so back-to-back
                # run(until=...) calls observe monotone time.
                self.now = until
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()
        if self.checker is not None:
            self.checker.on_run_end(self)
        if self.watchdog is not None:
            self.watchdog.on_run_end(self)
        if self.obs is not None:
            self.obs.on_run_end(self)
        return processed

    def _run_fast(self, until: Optional[float]) -> int:
        """The hooked dispatch loop (probe, checker, watchdog, gauges)."""
        checker = self.checker
        perf = self.perf
        watchdog = self.watchdog
        obs = self.obs
        # Single cached test: with no instrument attached (the
        # overwhelmingly common case) dispatch runs the hook-free
        # loop, paying zero per-event hook checks.
        if (checker is None and watchdog is None and obs is None
                and perf is None):
            return self._run_fast_bare(until)
        heap = self._heap
        heappop = heapq.heappop
        pool = self._pool
        pool_append = pool.append
        horizon = _INF if until is None else until
        processed = 0
        while True:
            if not heap:
                if self._far_count and self._advance_epoch():
                    continue
                break
            entry = heappop(heap)
            if len(entry) == 4:
                # Anonymous event (time, seq, fn, args): no handle to
                # neutralise, no cancellation to test, no pool churn.
                event = None
                fn = entry[2]
                args = entry[3]
            else:
                event = entry[2]
                if event.cancelled:
                    event.fn = None
                    event.args = ()
                    if len(pool) < _POOL_MAX:
                        pool_append(event)
                    continue
                fn = event.fn
                args = event.args
            time = entry[0]
            if time > horizon:
                # Overshot the horizon: the popped event stays pending.
                heapq.heappush(heap, entry)
                break
            self._live -= 1
            if time < self.now:
                raise SimulationError("event heap yielded an event in the past")
            self.now = time
            if checker is not None:
                # Clock monotonicity plus a periodic structural
                # audit; piggybacked here (never scheduled) so
                # events_processed is identical with checks on.
                checker.on_event(self)
            if watchdog is not None:
                watchdog.on_event(self)
            if obs is not None:
                obs.on_event(self)
            if perf is not None:
                perf.on_event(fn, len(heap))
            if event is None:
                fn(*args)
            else:
                event._sim = None
                fn(*args)
                # Recycle only after dispatch: the callback may
                # legally cancel the event that invoked it (timer
                # self-stop), which must hit this dead handle, not a
                # recycled live one.
                event.cancelled = True
                event.fn = None
                event.args = ()
                if len(pool) < _POOL_MAX:
                    pool_append(event)
            processed += 1
            self._events_processed += 1
        return processed

    def _run_fast_bare(self, until: Optional[float]) -> int:
        """The no-hooks dispatch loop (no probe/checker/watchdog/gauges).

        Identical event ordering and counting to :meth:`_run_fast`;
        only the per-event hook tests are gone and the
        ``_live``/``_events_processed`` bookkeeping is batched (safe:
        nothing reads either mid-run without a hook attached).
        """
        heap = self._heap
        heappop = heapq.heappop
        pool = self._pool
        pool_append = pool.append
        horizon = _INF if until is None else until
        processed = 0
        fired = 0
        now = self.now
        try:
            while True:
                if not heap:
                    if self._far_count and self._advance_epoch():
                        continue
                    break
                entry = heappop(heap)
                if len(entry) == 4:
                    time = entry[0]
                    if time > horizon:
                        _heappush(heap, entry)
                        break
                    if time < now:
                        raise SimulationError(
                            "event heap yielded an event in the past")
                    fired += 1
                    self.now = now = time
                    entry[2](*entry[3])
                    processed += 1
                    continue
                event = entry[2]
                if event.cancelled:
                    event.fn = None
                    event.args = ()
                    if len(pool) < _POOL_MAX:
                        pool_append(event)
                    continue
                time = entry[0]
                if time > horizon:
                    _heappush(heap, entry)
                    break
                event._sim = None
                if time < now:
                    raise SimulationError(
                        "event heap yielded an event in the past")
                fired += 1
                self.now = now = time
                fn = event.fn
                args = event.args
                fn(*args)
                event.cancelled = True
                event.fn = None
                event.args = ()
                if len(pool) < _POOL_MAX:
                    pool_append(event)
                processed += 1
        finally:
            self._live -= fired
            self._events_processed += processed
        return processed

    def _has_pending_before(self, horizon: float) -> bool:
        # Pruning cancelled events off the top keeps this O(1)
        # amortised: each cancelled event is popped at most once over
        # the simulator's lifetime.  Once the top is live it is the
        # global minimum, so a single comparison answers the question.
        heap = self._heap
        while True:
            while heap and len(heap[0]) == 3 and heap[0][2].cancelled:
                self._recycle(heapq.heappop(heap)[2])
            if heap:
                return heap[0][0] <= horizon
            # Heap drained to all-cancelled: pull the next calendar
            # bucket (if any) and keep pruning.  Amortised O(1) — each
            # entry is loaded at most once ever.
            if not (self._far_count and self._advance_epoch()):
                return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still in the heap."""
        return self._live

    @property
    def events_processed(self) -> int:
        """Total events executed over the simulator's lifetime."""
        return self._events_processed

    @property
    def heap_size(self) -> int:
        """Raw heap length, including lazily-deleted cancelled events.

        Far events parked in calendar buckets are *not* counted; see
        :attr:`far_events`.
        """
        return len(self._heap)

    @property
    def far_events(self) -> int:
        """Events parked in far-horizon calendar buckets (may include
        cancelled handles, mirroring :attr:`heap_size`)."""
        return self._far_count

    @property
    def far_events_peak(self) -> int:
        """Largest number of simultaneously parked far events seen.

        Zero means the calendar wheel never engaged and the run used
        the plain tuple heap throughout.  Deterministic, so scaling
        cells can gate on it."""
        return self._far_peak

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.6f}, pending={self.pending_events})"
