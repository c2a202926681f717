"""Host-speed sampling: report times in reference seconds.

The benchmark runs on shared hosts whose speed swings by up to 2x in
phases of a second or two (other tenants on the same cores), which
moves every host timing by tens of percent from run to run.  So every
measured process runs a :class:`SpeedProbe`: a CPU-time interval timer
(``ITIMER_PROF``) that, every ``INTERVAL_S`` of the process's CPU time,
interrupts it between two bytecodes and times a fixed slice of
:func:`kernel`.  Over a measured stretch of work the probes give the
host's mean speed during exactly that stretch, and::

    reference_s = (host_s - probe_s) * REFERENCE_PROBE_S / mean_probe_s

is the time the work would have taken on a host where one probe takes
``REFERENCE_PROBE_S`` (``probe_s`` is the probes' own time, taken out).
The kernel is a tiny discrete-event network written here and importing
nothing from the program, so a change to the program cannot speed it
up or slow it down; the probes read no program state and schedule
nothing, so ``events_processed`` and every output are unchanged.  Raw
host seconds are reported beside every reference value.

A child process started with ``PERFBENCH_PROBE_DIR`` set calls
:func:`start_from_env` first thing; it then keeps a two-number record
(probes, probe seconds) in ``<dir>/<n>.rec``, re-armed in every child
it forks (the supervisor forks one per cell, in order), for the parent
to read with :func:`read_records`.  ``<n>`` numbers the processes in
fork order: 0 for the started process, 1 for its first child, and so
on.
"""

from __future__ import annotations

import atexit
import gc
import heapq
import os
import signal
import time
from collections import deque
from typing import Dict, Optional, Tuple

#: CPU seconds between probes, and kernel events per probe.
INTERVAL_S = 0.01
PROBE_EVENTS = 150

#: One probe's CPU seconds on the reference host (a 2 GHz Xeon vCPU in
#: its fast phase); this only fixes the unit.
REFERENCE_PROBE_S = 0.0004

PROBE_DIR_ENV = "PERFBENCH_PROBE_DIR"


class _Packet:
    __slots__ = ("dst", "size", "hops")

    def __init__(self, dst: int, size: int) -> None:
        self.dst = dst
        self.size = size
        self.hops = 0


class _Net:
    """A ring of nodes forwarding packets over rate-limited links."""

    def __init__(self, nodes: int) -> None:
        self.now = 0.0
        self.heap: list = []
        self.seq = 0
        self.queues = [deque() for _ in range(nodes)]
        self.busy = [False] * nodes
        self.routes = {(n, d): (n + 1) % nodes
                       for n in range(nodes) for d in range(nodes)}
        self.delivered = 0
        self.nodes = nodes

    def schedule(self, delay: float, fn, *args) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, fn, args))

    def send(self, node: int, packet: _Packet) -> None:
        queue = self.queues[node]
        if len(queue) < 20:
            queue.append(packet)
            if not self.busy[node]:
                self._transmit(node)

    def _transmit(self, node: int) -> None:
        queue = self.queues[node]
        if not queue:
            self.busy[node] = False
            return
        self.busy[node] = True
        packet = queue.popleft()
        self.schedule(packet.size * 1e-6, self._arrive, node, packet)

    def _arrive(self, node: int, packet: _Packet) -> None:
        self._transmit(node)
        nxt = self.routes[(node, packet.dst)]
        packet.hops += 1
        if nxt == packet.dst:
            self.delivered += 1
            self.schedule(0.001, self.send, packet.dst,
                          _Packet((packet.dst + 3) % self.nodes, 1000))
        else:
            self.send(nxt, packet)

    def run(self, events: int) -> int:
        heap = self.heap
        for _ in range(events):
            self.now, _, fn, args = heapq.heappop(heap)
            fn(*args)
        return self.delivered


def kernel(events: int = PROBE_EVENTS) -> int:
    """Run the fixed calibration workload; returns a checksum."""
    net = _Net(16)
    for i in range(16):
        net.send(i, _Packet((i + 5) % 16, 500 + 100 * (i % 5)))
    delivered = net.run(events)
    net.heap.clear()  # break the net <-> callback cycle: no garbage left
    return delivered


class SpeedProbe:
    """Times a kernel slice every ``INTERVAL_S`` of process CPU time."""

    def __init__(self, record: Optional[str] = None) -> None:
        self.count = 0
        self.total_s = 0.0
        self._busy = False
        self._fd = (os.open(record, os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
                    if record else None)

    def start(self) -> "SpeedProbe":
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        # SIGPROF's default action ends the process: disarm before the
        # interpreter tears its handlers down.
        atexit.register(self.stop)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def _on_signal(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.thread_time()
            kernel()
            self.total_s += time.thread_time() - start
            self.count += 1
            if self._fd is not None:
                record = f"{self.count} {self.total_s!r}\n".ljust(64)
                os.pwrite(self._fd, record.encode(), 0)
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def snapshot(self) -> Tuple[int, float]:
        return self.count, self.total_s


def factor(count: int, total_s: float) -> float:
    """Host seconds -> reference seconds, from the probes taken meanwhile."""
    if count == 0:
        raise ValueError("no speed probe fired during the measurement")
    return REFERENCE_PROBE_S * count / total_s


def start_from_env() -> Optional[SpeedProbe]:
    """Start a recording probe if ``PERFBENCH_PROBE_DIR`` is set."""
    directory = os.environ.get(PROBE_DIR_ENV)
    if not directory:
        return None

    forks = [0]

    def arm() -> SpeedProbe:
        path = os.path.join(directory, f"{forks[0]}.rec")
        return SpeedProbe(record=path).start()

    def count_fork() -> None:
        forks[0] += 1

    # A forked child inherits the handler but not the timer or the record;
    # it sees the fork count as it was when it was forked.
    os.register_at_fork(before=count_fork, after_in_child=arm)
    return arm()


def read_records(directory: str) -> Dict[int, Tuple[int, float]]:
    """Each process's (probes, probe seconds), by its fork number."""
    records = {}
    for name in os.listdir(directory):
        with open(os.path.join(directory, name)) as handle:
            fields = handle.read().split()
        records[int(name.split(".")[0])] = (
            (int(fields[0]), float(fields[1])) if fields else (0, 0.0))
    return records
