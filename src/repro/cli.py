"""Command-line interface: regenerate any of the paper's artifacts.

``python -m repro <cmd>`` is the single documented entry point.
Usage::

    python -m repro list
    python -m repro figure6
    python -m repro figure7 --seed 3
    python -m repro table1 --quick
    python -m repro table2 --seeds 4
    python -m repro table4
    python -m repro table5
    python -m repro sendbuf
    python -m repro fairness
    python -m repro telnet
    python -m repro solo --cc vegas-1,3 --size-kb 512 --buffers 15
    python -m repro run-all --quick --jobs 4 --json results.json
    python -m repro run-all --quick --watchdog --retries 2
    python -m repro run-all --only table4/proto=reno/seed=0 --no-timeout
    python -m repro run-all --quick --json r.json --telemetry run.jsonl
    python -m repro run-all --quick --backend dist --workers 4
    python -m repro dist run --quick --journal run.journal --json r.json
    python -m repro dist run --journal run.journal --resume --json r.json
    python -m repro dist worker --connect 127.0.0.1:7077
    python -m repro dist journal run.journal
    python -m repro check r.json baselines/expected.json --tolerance 0.15
    python -m repro report r.json --telemetry run.jsonl
    python -m repro arena --quick --json arena.json --out league.md
    python -m repro search --objective vegas_regret --strategy genetic --budget 40 --seed 1
    python -m repro search --objective fairness_cliff --quick --budget 6 --json search.json
    python -m repro traces
    python -m repro traces --scenario lte --seed 0
    python -m repro traces --scenario steps --export steps.trace
    python -m repro traces --load steps.trace
    python -m repro bench --rounds 3
    python -m repro profile table2_background --sort tottime

(``python -m repro.cli ...`` remains an equivalent legacy spelling.)

Each subcommand prints the regenerated table or trace summary, with
the paper's numbers alongside where the paper gives them.  ``run-all``
sweeps every experiment's cell grid in parallel (see
:mod:`repro.harness`), caching per-cell results under
``.repro-cache/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError


def _cmd_list(args) -> int:
    from repro.core.registry import available

    print("Available congestion-control algorithms:")
    for name in available():
        print(f"  {name}")
    # Derived from the parser so this can never drift as commands are
    # added (see build_parser, which stashes the subparser action).
    print("\nSubcommands: " + ", ".join(args._subcommands))
    return 0


def _cmd_solo(args) -> int:
    from repro.experiments.transfers import run_solo_transfer
    from repro.units import kb

    result = run_solo_transfer(args.cc, size=kb(args.size_kb),
                               buffers=args.buffers, seed=args.seed)
    print(f"{args.cc}: {result.throughput_kbps:.1f} KB/s, "
          f"{result.retransmitted_kb:.1f} KB retransmitted, "
          f"{result.coarse_timeouts} coarse timeouts "
          f"({args.size_kb} KB over the Figure-5 bottleneck, "
          f"{args.buffers} buffers)")
    return 0


def _cmd_figure6(args) -> int:
    from repro.experiments.traces import figure6
    from repro.trace.ascii_plot import render_rate_panel, render_windows_panel

    graph, result = figure6(seed=args.seed)
    print("Figure 6 — Reno, no other traffic (paper: 105 KB/s)")
    print(f"measured: {result.throughput_kbps:.1f} KB/s, "
          f"{result.retransmitted_kb:.1f} KB retransmitted, "
          f"{result.coarse_timeouts} timeouts, "
          f"{graph.losses()} segments lost\n")
    print(render_windows_panel(graph))
    print(render_rate_panel(graph))
    return 0


def _cmd_figure7(args) -> int:
    from repro.experiments.traces import figure7
    from repro.trace.ascii_plot import render_cam_panel, render_windows_panel

    graph, result = figure7(seed=args.seed)
    print("Figure 7 — Vegas, no other traffic (paper: 169 KB/s)")
    print(f"measured: {result.throughput_kbps:.1f} KB/s, "
          f"{result.retransmitted_kb:.1f} KB retransmitted, "
          f"{result.coarse_timeouts} timeouts\n")
    print(render_windows_panel(graph))
    print(render_cam_panel(graph))
    return 0


def _cmd_figure9(args) -> int:
    from repro.experiments.traces import figure9
    from repro.trace.ascii_plot import render_cam_panel, render_windows_panel

    graph, result = figure9(seed=args.seed)
    print("Figure 9 — Vegas with tcplib background traffic")
    print(f"measured: {result.throughput_kbps:.1f} KB/s, "
          f"{result.retransmitted_kb:.1f} KB retransmitted\n")
    print(render_windows_panel(graph))
    print(render_cam_panel(graph))
    return 0


def _cmd_table1(args) -> int:
    from repro.experiments.one_on_one import PAPER_TABLE1, table1
    from repro.metrics.tables import format_table

    delays = (0.0, 1.0, 2.0) if args.quick else (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
    table, _ = table1(buffers=(15, 20), delays=delays, seed=args.seed)
    print(format_table("Table 1: one-on-one transfers", table,
                       ratios_for={"Small throughput (KB/s)": "reno/reno",
                                   "Large throughput (KB/s)": "reno/reno"},
                       paper=PAPER_TABLE1))
    return 0


def _cmd_table2(args) -> int:
    from repro.experiments.background import PAPER_TABLE2, table2
    from repro.metrics.tables import format_table

    table, _ = table2(seeds=range(args.seeds), buffers=(10, 15, 20))
    print(format_table("Table 2: 1MB transfer vs tcplib background",
                       table,
                       ratios_for={"Throughput (KB/s)": "reno",
                                   "Retransmissions (KB)": "reno"},
                       paper=PAPER_TABLE2))
    return 0


def _cmd_table3(args) -> int:
    from repro.experiments.background import PAPER_TABLE3, table3

    results = table3(seeds=range(args.seeds), buffers=(10, 15, 20))
    print("Table 3: background throughput (KB/s)")
    print("background CC | transfer CC | measured | paper")
    for (bg, xfer), value in sorted(results.items()):
        print(f"{bg:>13} | {xfer:>11} | {value:8.1f} | "
              f"{PAPER_TABLE3[(bg, xfer)]:5.0f}")
    return 0


def _cmd_table4(args) -> int:
    from repro.experiments.internet import PAPER_TABLE4, table4
    from repro.metrics.tables import format_table

    table = table4(seeds=range(args.seeds))
    print(format_table("Table 4: 1MB over the emulated UA->NIH path",
                       table,
                       ratios_for={"Throughput (KB/s)": "reno",
                                   "Retransmissions (KB)": "reno"},
                       paper=PAPER_TABLE4))
    return 0


def _cmd_table5(args) -> int:
    from repro.experiments.internet import PAPER_TABLE5, table5
    from repro.metrics.tables import format_table

    tables = table5(seeds=range(args.seeds))
    for size in sorted(tables, reverse=True):
        print(format_table(f"Table 5 — {size // 1024} KB transfers",
                           tables[size],
                           ratios_for={"Throughput (KB/s)": "reno",
                                       "Retransmissions (KB)": "reno"},
                           paper=PAPER_TABLE5[size]))
        print()
    return 0


def _cmd_sendbuf(args) -> int:
    from repro.experiments.sendbuf import DEFAULT_SIZES_KB, sendbuf_sweep

    print("§4.3 send-buffer sweep (1 MB solo transfers)")
    print("sndbuf | Reno KB/s (retx) | Vegas KB/s (retx)")
    reno = sendbuf_sweep("reno", sizes_kb=DEFAULT_SIZES_KB, seeds=(args.seed,))
    vegas = sendbuf_sweep("vegas", sizes_kb=DEFAULT_SIZES_KB,
                          seeds=(args.seed,))
    for size in DEFAULT_SIZES_KB:
        print(f"{size:4d}KB | {reno[size].throughput_kbps:8.1f} "
              f"({reno[size].retransmitted_kb:5.1f}) | "
              f"{vegas[size].throughput_kbps:8.1f} "
              f"({vegas[size].retransmitted_kb:5.1f})")
    return 0


def _cmd_fairness(args) -> int:
    from repro.experiments.fairness_exp import run_competing_connections
    from repro.units import kb, mb

    print("§4.3 multiple competing connections (Jain index)")
    for count in (2, 4, 16):
        size = mb(2) if count <= 4 else kb(512)
        for cc in ("reno", "vegas"):
            for mixed in (False, True):
                result = run_competing_connections(
                    cc, count, transfer_bytes=size, mixed_delays=mixed,
                    buffers=20, seed=args.seed)
                delays = "2:1" if mixed else "equal"
                print(f"{count:3d} conns, {delays:5s} delays, {cc:5s}: "
                      f"Jain {result.fairness_index:.3f}, "
                      f"{result.coarse_timeouts} timeouts")
    return 0


def _cmd_twoway(args) -> int:
    from repro.experiments.twoway import table_twoway
    from repro.metrics.tables import format_table

    table, _ = table_twoway(seeds=range(args.seeds), buffers=(10, 15, 20))
    print(format_table("§4.3 two-way background traffic", table,
                       ratios_for={"Throughput (KB/s)": "reno",
                                   "Retransmissions (KB)": "reno"}))
    return 0


def _cmd_telnet(args) -> int:
    from repro.experiments.telnet_response import response_time_comparison

    means = response_time_comparison(seeds=range(args.seeds),
                                     arrival_mean=0.22, duration=120.0)
    reno, vegas = means["reno"], means["vegas"]
    speedup = (reno - vegas) / reno * 100 if reno else 0.0
    print("§6 TELNET response time (all-Reno vs all-Vegas world)")
    print(f"all-Reno : {reno * 1000:7.1f} ms mean")
    print(f"all-Vegas: {vegas * 1000:7.1f} ms mean "
          f"({speedup:+.1f}% vs Reno; paper: ~25% faster)")
    return 0


def _cmd_run_all(args) -> int:
    from repro.harness import aggregate, artifacts, cache as cache_mod
    from repro.harness import registry, runner

    experiments = None
    if args.experiments:
        experiments = [name.strip() for name in args.experiments.split(",")
                       if name.strip()]
    try:
        cells = registry.all_cells(quick=args.quick, experiments=experiments)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.only:
        wanted = [sel.strip() for sel in args.only.split(",") if sel.strip()]
        cells = [cell for cell in cells
                 if any(cell.key == sel or cell.key.startswith(sel + "/")
                        for sel in wanted)]
        if not cells:
            print(f"error: --only {args.only!r} matches no cell "
                  "(keys look like 'table2/buffers=10/proto=reno/seed=0')",
                  file=sys.stderr)
            return 2
    if args.jobs is not None and args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if args.retries < 0:
        print(f"error: --retries must be >= 0, got {args.retries}",
              file=sys.stderr)
        return 2
    timeout_s = None if args.no_timeout else args.timeout
    if timeout_s is not None and timeout_s <= 0:
        print(f"error: --timeout must be positive, got {timeout_s}",
              file=sys.stderr)
        return 2
    try:
        faults = registry.resolve_faults(args.faults)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    backend = getattr(args, "backend", "local")
    if backend != "dist" and (getattr(args, "journal", None)
                              or getattr(args, "resume", False)):
        print("error: --journal/--resume require --backend dist",
              file=sys.stderr)
        return 2

    src_hash = cache_mod.compute_src_hash()
    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir or cache_mod.default_cache_dir()
        cache = cache_mod.ResultCache(cache_dir, src_hash)

    dist_options = None
    if backend == "dist":
        if args.workers < 0:
            print(f"error: --workers must be >= 0, got {args.workers}",
                  file=sys.stderr)
            return 2
        dist_options = {"workers": args.workers, "journal": args.journal,
                        "resume": args.resume, "src_hash": src_hash,
                        "preload": args.preload,
                        "chaos_kill_after": args.chaos_kill_after}
        if args.bind:
            dist_options["bind"] = args.bind

    total = len(cells)
    done = [0]
    # Dist lifecycle notices (worker loss, chaos, resume/degrade
    # banners) don't settle a cell either.
    informational = ("worker ", "chaos:", "resume:", "warning:",
                     "dist master")

    def progress(line: str) -> None:
        # Retry notices don't settle a cell; only count terminal lines
        # so the counter ends at exactly total.
        if "retrying in" not in line and not line.startswith(informational):
            done[0] += 1
        print(f"[{done[0]}/{total}] {line}", file=sys.stderr)

    try:
        report = runner.run_cells(cells, jobs=args.jobs, cache=cache,
                                  progress=progress, checks=args.checks,
                                  faults=faults, timeout_s=timeout_s,
                                  retries=args.retries,
                                  watchdog=args.watchdog,
                                  telemetry=args.telemetry,
                                  backend=backend,
                                  dist_options=dist_options)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = artifacts.build_document(
        report, mode="quick" if args.quick else "full", src_hash=src_hash,
        telemetry=args.telemetry)
    if args.json:
        artifacts.write_document(args.json, doc)

    print(aggregate.summarize(doc["cells"]))
    print()
    print(f"{total} cells ({report.simulations} simulations run), "
          f"jobs={report.jobs}, {report.elapsed_s:.1f}s elapsed "
          f"(cell wall clock {doc['run']['cell_wall_clock_s']:.1f}s); "
          f"cache: {report.cache_hits} hits / {report.cache_misses} misses")
    print(f"cell fingerprint: {artifacts.cells_fingerprint(doc)}")
    if report.failures:
        print(f"\nFAILED: {len(report.failures)} cell(s) quarantined "
              "(exit 3; reproduce with `run-all --only <key> --no-timeout`):")
        for failure in report.failures:
            print(f"  {failure.key} [{failure.kind}] "
                  f"after {failure.attempts} attempt(s): {failure.message}")
    if args.checks:
        violations = sum(int(r.metrics.get("invariant_violations", 0.0))
                         for r in report.results)
        print(f"invariant violations: {violations}")
        if violations and not report.failures:
            return 1
    if args.json:
        print(f"JSON artifact: {args.json}")
    if args.telemetry:
        print(f"telemetry: {args.telemetry}")
    if report.interrupted:
        settled = len(report.results) + len(report.failures)
        print(f"\nINTERRUPTED: sweep drained with {settled}/{total} cells "
              "settled; partial artifact and failure manifest flushed "
              "(exit 130)")
        if getattr(args, "journal", None):
            print(f"resume with: repro dist run --journal {args.journal} "
                  "--resume ...")
        return 130
    return 3 if report.failures else 0


def _cmd_check(args) -> int:
    from repro.harness import check as check_mod

    argv = [args.results, args.expected, "--tolerance", str(args.tolerance)]
    if args.telemetry:
        argv.extend(["--telemetry", args.telemetry])
    return check_mod.main(argv)


def _cmd_report(args) -> int:
    from repro.obs import report as report_mod

    argv = [args.results, "--top", str(args.top)]
    if args.telemetry:
        argv.extend(["--telemetry", args.telemetry])
    if args.out:
        argv.extend(["--out", args.out])
    return report_mod.main(argv)


_SPARK = "▁▂▃▄▅▆▇█"


def _trace_profile(trace, width: int = 64) -> str:
    """One-line sparkline of the rate profile over one cycle."""
    span = trace.period if trace.period is not None \
        else max(trace.times[-1], 1.0)
    top = trace.max_rate or 1.0
    cells = []
    for i in range(width):
        rate = trace.rate_at(i * span / width)
        cells.append(_SPARK[min(len(_SPARK) - 1,
                                int(rate / top * (len(_SPARK) - 1) + 0.5))])
    return "".join(cells)


def _trace_summary(trace) -> str:
    cyc = (f"cyclic, period {trace.period:g} s" if trace.period is not None
           else "non-cyclic")
    return (f"{len(trace.rates)} segment(s), {cyc}; "
            f"mean {trace.mean_rate / 1024:.1f} KB/s, "
            f"min {trace.min_rate / 1024:.1f}, "
            f"max {trace.max_rate / 1024:.1f}")


def _cmd_traces(args) -> int:
    from repro.arena.scenarios import SCENARIOS, get_scenario
    from repro.net.traces import load_mahimahi, save_mahimahi
    from repro.sim.rng import RngRegistry

    if args.load:
        trace = load_mahimahi(args.load)
        print(f"{args.load}: {_trace_summary(trace)}")
        print(f"  {_trace_profile(trace)}")
        return 0

    if not args.scenario:
        print("Time-varying arena scenarios "
              "(inspect one with --scenario NAME):")
        for name in sorted(SCENARIOS):
            spec = SCENARIOS[name]
            if not spec.time_varying:
                continue
            loss = f", loss {spec.loss:.1%}" if spec.loss else ""
            print(f"  {name:7s} {spec.trace.describe()}{loss}")
        return 0

    spec = get_scenario(args.scenario)
    if spec.trace is None:
        print(f"error: scenario {args.scenario!r} has a static "
              "bottleneck (no trace)", file=sys.stderr)
        return 2
    trace = spec.trace.build(RngRegistry(args.seed).stream("link-trace"))
    loss = f", loss {spec.loss:.1%}" if spec.loss else ""
    print(f"{args.scenario} (seed {args.seed}): "
          f"{spec.trace.describe()}{loss}")
    print(f"  {_trace_summary(trace)}")
    print(f"  {_trace_profile(trace)}")
    if args.export:
        written = save_mahimahi(trace, args.export,
                                duration=args.duration)
        print(f"  wrote {written} delivery opportunities "
              f"(mahimahi format) to {args.export}")
    return 0


def _cmd_bench(args) -> int:
    from repro.perf import bench

    argv = ["--rounds", str(args.rounds), "--json", args.json,
            "--baseline", args.baseline,
            "--max-regression", str(args.max_regression)]
    if args.no_baseline:
        argv.append("--no-baseline")
    if args.no_timing_gate:
        argv.append("--no-timing-gate")
    if args.update_baseline:
        argv.append("--update-baseline")
    if args.force:
        argv.append("--force")
    if args.cells:
        argv.extend(["--cells", args.cells])
    return bench.main(argv)


def _cmd_profile(args) -> int:
    from repro.perf import profile

    argv = [args.cell, "--sort", args.sort, "--limit", str(args.limit)]
    if args.out:
        argv.extend(["--out", args.out])
    return profile.main(argv)


def _cmd_dist_worker(args) -> int:
    from repro.harness.dist import worker as worker_mod

    argv = ["--connect", args.connect, "--heartbeat", str(args.heartbeat)]
    if args.worker_id:
        argv.extend(["--worker-id", args.worker_id])
    for module in args.preload:
        argv.extend(["--preload", module])
    return worker_mod.main(argv)


def _cmd_dist_journal(args) -> int:
    from repro.harness.dist import journal as journal_mod

    try:
        state = journal_mod.replay(args.journal)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    torn = " (torn trailing line dropped)" if state.truncated else ""
    print(f"journal: {args.journal}")
    print(f"records: {state.records}{torn}")
    print(f"src hash: {state.src_hash}")
    print(f"results: {len(state.results)}")
    print(f"quarantined: {len(state.failures)}")
    for key, failure in sorted(state.failures.items()):
        print(f"  {key} [{failure.get('kind')}] after "
              f"{failure.get('attempts')} attempt(s)")
    return 0


def _add_sweep_options(cmd, supervisor_mod) -> None:
    """The shared run-all/dist-run flag set (one sweep, any backend)."""
    cmd.add_argument("--quick", action="store_true",
                     help="reduced grids (the CI smoke configuration)")
    cmd.add_argument("--jobs", type=int, default=None,
                     help="worker processes (default: cpu count)")
    cmd.add_argument("--json", metavar="PATH",
                     help="write the sweep as a JSON artifact")
    cmd.add_argument("--experiments", metavar="A,B,...",
                     help="comma-separated subset (default: all)")
    cmd.add_argument("--no-cache", action="store_true",
                     help="ignore and do not update .repro-cache/")
    cmd.add_argument("--cache-dir", metavar="DIR", default=None,
                     help="cache location (default: $REPRO_CACHE_DIR "
                          "or .repro-cache)")
    cmd.add_argument("--checks", nargs="?", const="raise",
                     choices=("raise", "collect"), default=False,
                     help="run with the runtime invariant checker "
                          "('raise' aborts a cell on the first "
                          "violation; 'collect' records them as the "
                          "invariant_violations metric)")
    cmd.add_argument("--faults", metavar="SPEC", default=None,
                     help="inject faults: a profile name "
                          "(light/heavy/flap) or 'drop=0.01,dup=...' "
                          "(see repro.faults.FaultPlan.parse)")
    cmd.add_argument("--only", metavar="KEY[,KEY...]", default=None,
                     help="run only the cells whose key equals (or is "
                          "prefixed by) a selector — the way to "
                          "reproduce one quarantined cell")
    cmd.add_argument("--timeout", type=float, metavar="SECONDS",
                     default=supervisor_mod.DEFAULT_TIMEOUT_S,
                     help="per-cell wall-clock deadline under the "
                          "supervised runner (default "
                          f"{supervisor_mod.DEFAULT_TIMEOUT_S:g}s); a "
                          "timed-out worker is killed, retried, and "
                          "finally quarantined into the failure "
                          "manifest; experiments with a registered "
                          "timeout hint get the larger of the two")
    cmd.add_argument("--no-timeout", action="store_true",
                     help="run unsupervised in-process (no deadline, no "
                          "quarantine) — crashes and hangs propagate "
                          "raw, for debugging a quarantined cell")
    cmd.add_argument("--retries", type=int, metavar="N",
                     default=supervisor_mod.DEFAULT_RETRIES,
                     help="re-executions of a failed cell before it is "
                          "quarantined (default "
                          f"{supervisor_mod.DEFAULT_RETRIES}; seeded "
                          "deterministic backoff between attempts)")
    cmd.add_argument("--watchdog", nargs="?", type=float,
                     metavar="STALL_SECONDS", const=True, default=False,
                     help="arm the simulation liveness watchdog: raise "
                          "a typed SimulationStalled (quarantined as "
                          "'divergence') when a cell makes zero "
                          "connection progress for STALL_SECONDS of "
                          "simulated time (default 30) or drains its "
                          "event queue mid-transfer")
    cmd.add_argument("--telemetry", metavar="PATH", default=None,
                     help="append a structured JSONL telemetry log: "
                          "sweep/cell spans, cache hits, retry and "
                          "quarantine events, plus periodic engine "
                          "gauges (cwnd/flight/queue depth); render "
                          "it with `repro report`")
    cmd.add_argument("--backend", choices=("local", "dist"),
                     default="local",
                     help="execution backend: 'local' runs cells in this "
                          "process's pool; 'dist' runs them on the "
                          "fault-tolerant distributed master (leases, "
                          "heartbeats, journal + resume)")
    cmd.add_argument("--workers", type=int, default=2, metavar="N",
                     help="[dist] local worker processes to spawn "
                          "(default 2; 0 = attach-only, wait for "
                          "`repro dist worker --connect` peers)")
    cmd.add_argument("--bind", metavar="HOST:PORT", default=None,
                     help="[dist] master listen address "
                          "(default 127.0.0.1 on an ephemeral port)")
    cmd.add_argument("--journal", metavar="PATH", default=None,
                     help="[dist] append every grant/result/failure to "
                          "this run journal; required for --resume")
    cmd.add_argument("--resume", action="store_true",
                     help="[dist] replay --journal and execute only the "
                          "cells it has not settled")
    cmd.add_argument("--preload", action="append", default=[],
                     metavar="MODULE",
                     help="[dist] import MODULE in every spawned worker "
                          "(runtime-registered experiments don't cross "
                          "the spawn boundary otherwise)")
    # CI fault injection: SIGKILL a busy worker after N results.
    cmd.add_argument("--chaos-kill-after", type=int, default=None,
                     help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    from repro.harness import supervisor as supervisor_mod
    from repro.harness.dist import protocol as protocol_mod

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artifacts from the TCP Vegas paper "
                    "(Brakmo, O'Malley & Peterson, SIGCOMM 1994).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, seeds=False, quick=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--seed", type=int, default=0,
                         help="root random seed")
        if seeds:
            cmd.add_argument("--seeds", type=int, default=3,
                             help="number of per-condition runs")
        if quick:
            cmd.add_argument("--quick", action="store_true",
                             help="fewer grid points")
        cmd.set_defaults(fn=fn)
        return cmd

    add("list", _cmd_list, "list algorithms and subcommands")
    solo = add("solo", _cmd_solo, "one transfer on the Figure-5 network")
    solo.add_argument("--cc", default="vegas",
                      help="congestion control (see `list`)")
    solo.add_argument("--size-kb", type=int, default=1024)
    solo.add_argument("--buffers", type=int, default=10)
    add("figure6", _cmd_figure6, "Reno solo trace")
    add("figure7", _cmd_figure7, "Vegas solo trace")
    add("figure9", _cmd_figure9, "Vegas + tcplib background trace")
    add("table1", _cmd_table1, "one-on-one transfers", quick=True)
    add("table2", _cmd_table2, "transfer vs background traffic", seeds=True)
    add("table3", _cmd_table3, "background throughput", seeds=True)
    add("table4", _cmd_table4, "Internet 1MB transfers", seeds=True)
    add("table5", _cmd_table5, "Internet transfer-size sweep", seeds=True)
    add("sendbuf", _cmd_sendbuf, "send-buffer sweep")
    add("fairness", _cmd_fairness, "competing connections")
    add("twoway", _cmd_twoway, "two-way background traffic", seeds=True)
    add("telnet", _cmd_telnet, "TELNET response time", seeds=True)

    run_all = sub.add_parser(
        "run-all",
        help="run every experiment's cell grid in parallel, with caching")
    _add_sweep_options(run_all, supervisor_mod)
    run_all.set_defaults(fn=_cmd_run_all)

    dist_cmd = sub.add_parser(
        "dist",
        help="distributed sweep backend: run a sweep across worker "
             "processes, attach a worker, or inspect a run journal")
    dist_sub = dist_cmd.add_subparsers(dest="dist_command", required=True)
    dist_run = dist_sub.add_parser(
        "run",
        help="run-all on the distributed backend "
             "(shorthand for `run-all --backend dist`)")
    _add_sweep_options(dist_run, supervisor_mod)
    dist_run.set_defaults(fn=_cmd_run_all, backend="dist")
    dist_worker = dist_sub.add_parser(
        "worker",
        help="attach one worker process to a listening dist master")
    dist_worker.add_argument("--connect", required=True,
                             metavar="HOST:PORT",
                             help="master address (a `dist run --workers 0 "
                                  "--bind ...` master prints it)")
    dist_worker.add_argument("--worker-id", default=None,
                             help="identity announced to the master "
                                  "(default: pid-derived)")
    dist_worker.add_argument(
        "--heartbeat", type=float, metavar="SECONDS",
        default=protocol_mod.DEFAULT_HEARTBEAT_INTERVAL_S,
        help="heartbeat interval (default "
             f"{protocol_mod.DEFAULT_HEARTBEAT_INTERVAL_S:g}s)")
    dist_worker.add_argument("--preload", action="append", default=[],
                             metavar="MODULE",
                             help="import MODULE before serving")
    dist_worker.set_defaults(fn=_cmd_dist_worker)
    dist_journal = dist_sub.add_parser(
        "journal",
        help="summarize a dist run journal: settled results, "
             "quarantines, resumability")
    dist_journal.add_argument("journal", help="journal file from "
                                              "`dist run --journal`")
    dist_journal.set_defaults(fn=_cmd_dist_journal)

    from repro.arena import command as arena_command

    arena_command.configure_parser(sub)

    from repro.search import command as search_command

    search_command.configure_parser(sub)

    check_cmd = sub.add_parser(
        "check",
        help="gate a run-all/arena JSON artifact against a committed "
             "baseline (exit 1 = drift, 3 = quarantined cells)")
    check_cmd.add_argument("results", help="artifact from run-all/arena "
                                           "--json")
    check_cmd.add_argument("expected", help="committed baseline artifact")
    check_cmd.add_argument("--tolerance", type=float, default=0.15,
                           help="relative tolerance per metric "
                                "(default 0.15)")
    check_cmd.add_argument("--telemetry", metavar="PATH", default=None,
                           help="append the gate verdict to this telemetry "
                                "JSONL")
    check_cmd.set_defaults(fn=_cmd_check)

    report_cmd = sub.add_parser(
        "report",
        help="render a Markdown run report from a run-all JSON artifact "
             "(plus optional --telemetry JSONL)")
    report_cmd.add_argument("results", help="artifact from run-all --json")
    report_cmd.add_argument("--telemetry", metavar="PATH", default=None,
                            help="telemetry JSONL from run-all --telemetry")
    report_cmd.add_argument("--top", type=int, default=10,
                            help="slowest cells to list (default 10)")
    report_cmd.add_argument("--out", metavar="PATH", default=None,
                            help="write the report to a file")
    report_cmd.set_defaults(fn=_cmd_report)

    traces_cmd = sub.add_parser(
        "traces",
        help="inspect the time-varying scenarios' bandwidth traces; "
             "export/import mahimahi delivery-opportunity files")
    traces_cmd.add_argument("--scenario", metavar="NAME", default=None,
                            help="build and summarize one scenario's trace "
                                 "(default: list the time-varying scenarios)")
    traces_cmd.add_argument("--seed", type=int, default=0,
                            help="root seed for stochastic trace kinds")
    traces_cmd.add_argument("--export", metavar="PATH", default=None,
                            help="write the built trace as a mahimahi "
                                 "delivery-opportunity file")
    traces_cmd.add_argument("--duration", type=float, default=None,
                            help="seconds of trace to export "
                                 "(default: one cycle)")
    traces_cmd.add_argument("--load", metavar="PATH", default=None,
                            help="summarize a mahimahi file instead")
    traces_cmd.set_defaults(fn=_cmd_traces)

    bench = sub.add_parser(
        "bench",
        help="run the engine benchmark suite; write BENCH_engine.json "
             "and gate against the committed baseline")
    bench.add_argument("--rounds", type=int, default=3,
                       help="runs per cell, median reported (default 3)")
    bench.add_argument("--json", metavar="PATH", default="BENCH_engine.json",
                       help="artifact path (default BENCH_engine.json)")
    bench.add_argument("--baseline", metavar="PATH",
                       default="baselines/bench_baseline.json",
                       help="committed bench baseline")
    bench.add_argument("--no-baseline", action="store_true",
                       help="skip the baseline comparison")
    bench.add_argument("--no-timing-gate", action="store_true",
                       help="gate only on bit-identical determinism "
                            "(events, peak_heap), not events/sec")
    bench.add_argument("--max-regression", type=float, default=0.25,
                       help="events/sec drop that fails the timing gate")
    bench.add_argument("--update-baseline", action="store_true",
                       help="write this run as the new baseline (refused "
                            "from a dirty tree unless --force)")
    bench.add_argument("--force", action="store_true",
                       help="allow --update-baseline from a dirty tree")
    bench.add_argument("--cells", metavar="A,B,...", default=None,
                       help="run only these suite cells; the gate then "
                            "covers just the selection")
    bench.set_defaults(fn=_cmd_bench)

    profile_cmd = sub.add_parser(
        "profile",
        help="cProfile one cell (bench name or experiment/k=v/... key) "
             "and print hotspots plus per-component event counts")
    profile_cmd.add_argument("cell",
                             help="bench cell name (table2_background, "
                                  "many_flows_1000, ...) or full cell key")
    profile_cmd.add_argument("--sort", choices=("tottime", "cumulative",
                                                "ncalls"),
                             default="tottime", help="pstats sort key")
    profile_cmd.add_argument("--limit", type=int, default=25,
                             help="rows of profile output")
    profile_cmd.add_argument("--out", metavar="PATH", default=None,
                             help="dump raw pstats data to PATH")
    profile_cmd.set_defaults(fn=_cmd_profile)

    parser.set_defaults(_subcommands=tuple(sub.choices))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
