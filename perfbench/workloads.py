"""The benchmark's workloads, their seeded order and their expected outputs.

Every workload is closed-loop and serial: one client, one process
running the program at a time, the next request sent only when the
previous one has returned.  The cells of each workload are fixed (their
outputs are pinned exactly, so correctness is checked, not assumed).
``--seed`` permutes the order in which the quick sweep runs its
experiments, which never changes how much work a run measures.  The
single-cell workloads take nothing from the seed: the order of the two
tcplib cells moves the process's peak RSS by 15%, so it stays fixed.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))

#: Pinned outputs of the single-cell workloads (see ``expected_cells.json``).
EXPECTED_CELLS = os.path.join(HERE, "expected_cells.json")

#: The quick sweep's committed artifact and cell fingerprint (repo-relative).
QUICK_BASELINE = os.path.join("baselines", "expected.json")
QUICK_FINGERPRINT = ("49422f436edde9a2690a041d2c2f5be3c452580d"
                     "67ee9e28ff66e612b503ed8b")

#: The quick grid's experiments, in registry order (66 cells).
QUICK_EXPERIMENTS = ("table1", "table2", "table3", "table4", "table5",
                     "figure6", "figure7", "figure9", "sendbuf", "fairness",
                     "twoway", "telnet")

TABLE2_VEGAS = ("table2", {"proto": "vegas-1,3", "buffers": 10, "seed": 0})

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "quick_sweep": {
        "why": "the only workload through the harness: registry, forked "
               "cells, cache writes then reads, the 5 duplicate "
               "simulations and per-cell set-up of small cells",
    },
    "tcplib_background": {
        "why": "Figure-5 bottleneck with tcplib traffic and few "
               "connections: net, tcp and trafficgen on a plain heap, "
               "with harness, cache and fork bypassed",
        "cells": [("twoway", {"proto": "reno", "buffers": 10, "seed": 0}),
                  TABLE2_VEGAS],
        "options": {},
        "round_s": 6.5,
    },
    "many_flows": {
        "why": "about 1000 live connections: the only workload where "
               "calendar parking, per-connection state and conversation "
               "start-up scale",
        "cells": [("many_flows", {"flows": 1000, "seed": 0})],
        "options": {},
        "round_s": 1.15,
    },
    "instrumented": {
        "why": "checks, watchdog and faults armed on the table2 cell: the "
               "only workload where the instrument layers carry the cost",
        "cells": [TABLE2_VEGAS],
        "options": {"checks": "raise", "watchdog": True, "faults": "light"},
        "round_s": 12.5,
    },
}


def rounds(workload: str, seconds: float) -> int:
    """Rounds of a single-cell workload that best fill *seconds*.

    Counted from the round's time on the reference host (``round_s``,
    in reference seconds), not from the clock, so a run does the same
    work however fast the host is at the moment.
    """
    return max(1, round(seconds / WORKLOADS[workload]["round_s"]))


def seeded_experiments(seed: int) -> List[str]:
    """The quick grid's experiments in the execution order *seed* picks."""
    names = list(QUICK_EXPERIMENTS)
    random.Random(seed).shuffle(names)
    return names


def expected_cells() -> Dict[str, Any]:
    with open(EXPECTED_CELLS) as handle:
        return json.load(handle)


def expected_key(workload: str, key: str) -> str:
    """Where a workload's cell is pinned in ``expected_cells.json``."""
    return f"{workload}/{key}"
