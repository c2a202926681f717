"""``python -m repro`` under the benchmark's speed probe (and ledger).

Usage::

    python perfbench/probed_cli.py [--ledger DIR] run-all --quick ...

Starts the speed probe (:mod:`calibrate`, when ``PERFBENCH_PROBE_DIR``
is set) and, with ``--ledger``, installs the per-layer ledger
(:mod:`ledger`) before the CLI builds anything; then runs the CLI
unchanged.  Under ``--ledger`` every cell the supervisor forks writes
its ledger and coarse spans to ``DIR/cell-<pid>-<n>.json`` when it
finishes, since a forked child's counters die with it.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402


def install_ledger(out_dir: str) -> None:
    from ledger import Ledger
    from repro.harness import registry, runner, supervisor

    tracer = Ledger().install()
    original = registry.run_cell
    written = [0]

    def traced_run_cell(cell, *args, **kwargs):
        tracer.reset()
        tracer.spans.clear()
        try:
            return tracer.cell(cell.key, original, cell, *args, **kwargs)
        finally:
            written[0] += 1
            path = os.path.join(out_dir,
                                f"cell-{os.getpid()}-{written[0]}.json")
            with open(path, "w") as handle:
                json.dump({"key": cell.key, "ledger": tracer.snapshot(),
                           "spans": tracer.spans}, handle)

    for module in (registry, runner, supervisor):
        module.run_cell = traced_run_cell


def main(argv) -> int:
    calibrate.start_from_env()
    from repro import cli

    if argv[:1] == ["--ledger"]:
        install_ledger(argv[1])
        argv = argv[2:]
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
