"""Committed dispatch-sequence digests for two bench cells.

A SHA-256 over ``(sim.now, callback qualname)`` for every dispatched
event pins the exact dispatch order of real protocol runs.  The probe
is passed to :func:`repro.perf.runtime.activate`; it schedules
nothing.  If a change is *meant* to alter the event schedule,
regenerate the pins with ``PYTHONPATH=src python
tests/test_dispatch_digest.py`` and say why.
"""

import hashlib

import pytest

from repro.harness.registry import Cell, run_cell
from repro.perf import runtime as perf_runtime

#: cell -> (events dispatched, SHA-256 of the dispatch sequence).
PINNED = {
    "figure6": (
        9960,
        "0a7dbc5c9dd2f97644bc15c359eb6f449c4d3f19834244357301f9967cce4af9"),
    "table2_vegas": (
        349938,
        "de53c8fe48fc4327c49897807269b69ebb60adf53581433b5cfce49dbc9346e6"),
}

CELLS = {
    "figure6": Cell.make("figure6", seed=0),
    "table2_vegas": Cell.make("table2", proto="vegas-1,3", buffers=10,
                              seed=0),
}


class DigestProbe:
    """Engine probe hashing ``(now, callback qualname)`` per dispatch."""

    def __init__(self) -> None:
        self.events = 0
        self.sim = None
        self.sha = hashlib.sha256()

    def register_simulator(self, sim) -> None:
        self.sim = sim

    def on_event(self, fn, heap_len: int) -> None:
        name = getattr(fn, "__qualname__", None) or type(fn).__qualname__
        self.sha.update(f"{self.sim.now!r} {name}\n".encode())
        self.events += 1


def dispatch_digest(cell: Cell):
    probe = DigestProbe()
    perf_runtime.activate(probe)
    try:
        metrics = run_cell(cell)
    finally:
        perf_runtime.deactivate()
    assert metrics["events_processed"] == probe.events
    return probe.events, probe.sha.hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_dispatch_sequence_matches_pin(name):
    assert dispatch_digest(CELLS[name]) == PINNED[name]


if __name__ == "__main__":
    for key in sorted(CELLS):
        print(f"    {key!r}: {dispatch_digest(CELLS[key])!r},")
