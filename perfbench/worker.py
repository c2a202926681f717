"""Child-process side of the benchmark (one mode per invocation).

``setup WORKLOAD SEED``
    Build the workload's first cell and print ``time.monotonic()`` at the
    first ``Simulator.run`` entry, then exit at once.  The parent notes
    the clock before spawning, so the difference is the host time from
    process start to the first simulated event: imports plus grid and
    topology build.

``run WORKLOAD SEED SECONDS TRACE OUT``
    Run a single-cell workload closed-loop in this process for as many
    rounds as fill SECONDS on the reference host, and write every
    round's timings and outputs to OUT.  With TRACE=1 the untraced
    rounds are followed by traced ones, which carry the per-layer
    ledger.  The last round's outputs are stored in a result cache
    under OUT's directory for ``replay``.

``replay WORKLOAD CACHE_DIR``
    Serve the workload's cells from the warm result cache through the
    harness and print the results as JSON.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402


def _cells(workload):
    from repro.harness.registry import Cell

    return [Cell.make(exp, **params)
            for exp, params in workloads.WORKLOADS[workload]["cells"]]


def setup(workload: str, seed: int) -> int:
    from repro.sim.engine import Simulator

    def first_run(sim, *args, **kwargs):
        sys.stdout.write(f"{time.monotonic()!r}\n")
        sys.stdout.flush()
        os._exit(0)

    if workload == "quick_sweep":
        # What `python -m repro run-all --quick` does before its first
        # cell runs: import the CLI, hash the source, build the grid.
        from repro import cli  # noqa: F401
        from repro.harness import cache, registry

        cache.compute_src_hash()
        cell = registry.all_cells(
            quick=True, experiments=workloads.seeded_experiments(seed))[0]
        options = {}
    else:
        from repro.harness import registry

        cell = _cells(workload)[0]
        options = workloads.WORKLOADS[workload]["options"]
    Simulator.run = first_run
    registry.run_cell(cell, **options)
    return 1  # the simulation never started


def _round(cells, options, probe, ledger=None):
    """Run every cell once; return the round's timings and outputs.

    Each cell's times are reported in host seconds and, from the speed
    probes that fired during it, in reference seconds.
    """
    from repro.harness.registry import run_cell
    from repro.sim import engine

    gc.collect()
    out = []
    start = time.perf_counter()
    for cell in cells:
        count0, probe0 = probe.snapshot()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if ledger is None:
            metrics = run_cell(cell, **options)
        else:
            metrics = ledger.cell(cell.key, run_cell, cell, **options)
        cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
        count, probe_s = probe.snapshot()
        count, probe_s = count - count0, probe_s - probe0
        factor = calibrate.factor(count, probe_s)
        out.append({"key": cell.key, "metrics": metrics,
                    "far_peak": engine.last_simulator().far_events_peak,
                    "host_wall_s": wall, "host_cpu_s": cpu,
                    "wall_s": (wall - probe_s) * factor,
                    "cpu_s": (cpu - probe_s) * factor})
    totals = {key: sum(c[key] for c in out)
              for key in ("host_wall_s", "host_cpu_s", "wall_s", "cpu_s")}
    # The round's time outside the cells: the loop driving run_cell
    # (the harness is bypassed here), in host seconds.
    totals["loop_s"] = time.perf_counter() - start - totals["host_wall_s"]
    totals["cells"] = out
    return totals


def _rounds(cells, options, count, probe, ledger=None):
    rounds = []
    for _ in range(count):
        if ledger is not None:
            ledger.reset()
        result = _round(cells, options, probe, ledger)
        if ledger is not None:
            result["ledger"] = ledger.snapshot()
        rounds.append(result)
    return rounds


def run(workload: str, seed: int, seconds: float, trace: bool, out: str,
        probe: calibrate.SpeedProbe) -> int:
    import importlib

    from repro.harness import registry

    cells = _cells(workload)
    options = workloads.WORKLOADS[workload]["options"]
    # Lazy imports (experiments, fault plans, the watchdog) are set-up,
    # measured by `setup`; keep them out of the timed rounds.
    for name in ("background", "twoway", "many_flows"):
        importlib.import_module(f"repro.experiments.{name}")
    registry.resolve_faults(options.get("faults"))
    registry.resolve_watchdog(options.get("watchdog"))

    count = workloads.rounds(workload, seconds / 2 if trace else seconds)
    doc = {"rounds": _rounds(cells, options, count, probe)}
    doc["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        from ledger import Ledger

        tracer = Ledger().install()
        root = tracer.open("workload", workload=workload, seed=seed)
        # Two traced rounds at least, so the counts can be seen to repeat.
        doc["traced_rounds"] = _rounds(cells, options, max(2, count), probe,
                                       tracer)
        tracer.close(root["name"])
        tracer.uninstall()
        doc["spans"] = tracer.spans
    _store(cells, options, doc["rounds"][-1],
           os.path.join(os.path.dirname(out), "cache"))
    with open(out, "w") as handle:
        json.dump(doc, handle)
    return 0


def _store(cells, options, last_round, cache_dir) -> None:
    """Write the round's outputs as the harness's result-cache entries."""
    from repro.harness.cache import ResultCache, compute_src_hash
    from repro.harness.runner import storage_key

    cache = ResultCache(cache_dir, compute_src_hash())
    for cell, result in zip(cells, last_round["cells"]):
        cache.put(storage_key(cell.key, checks=options.get("checks", False),
                              faults=options.get("faults")),
                  {"metrics": result["metrics"],
                   "wall_clock_s": result["host_wall_s"]})


def replay(workload: str, cache_dir: str) -> int:
    from repro.harness.cache import ResultCache, compute_src_hash
    from repro.harness.runner import run_cells

    options = workloads.WORKLOADS[workload]["options"]
    report = run_cells(_cells(workload), jobs=1,
                       cache=ResultCache(cache_dir, compute_src_hash()),
                       checks=options.get("checks", False),
                       faults=options.get("faults"),
                       watchdog=options.get("watchdog", False),
                       timeout_s=None)
    json.dump({"hits": report.cache_hits,
               "results": {r.key: r.metrics for r in report.results}},
              sys.stdout)
    return 0


def main(argv) -> int:
    # First thing, so the probes cover the imports measured by `setup`.
    probe = calibrate.start_from_env() or calibrate.SpeedProbe().start()
    mode, workload, rest = argv[0], argv[1], argv[2:]
    if mode == "setup":
        return setup(workload, int(rest[0]))
    if mode == "run":
        return run(workload, int(rest[0]), float(rest[1]), rest[2] == "1",
                   rest[3], probe)
    if mode == "replay":
        return replay(workload, rest[0])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
