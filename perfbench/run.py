"""Repository benchmark: closed-loop workloads driven from outside ``src/``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload quick_sweep --seed 0 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload all --record   # + traced runs, trajectory row

``--trace 0`` reports the end-to-end metrics of an untraced run;
``--trace 1`` reports the per-layer ledger of a traced run (see
``ledger.py``) and the tracing overhead.  Every output is checked; a
table goes to stderr and the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Times are reported
in reference seconds (see ``calibrate.py``); the table shows the raw
host seconds beside them.  See ``README.md`` for the definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402

#: Fresh set-up processes per run (median reported) and warm replays.
SETUP_SAMPLES = 5
REPLAYS = 7

#: Per-child wall-clock limit, so a hung program cannot hang the run.
CHILD_TIMEOUT_S = 170.0

#: Layers whose dispatches are reported by name; the rest is ``other``.
DISPATCH_LAYERS = ("net", "tcp", "trafficgen", "apps", "faults")
#: Layers whose self time is reported (``apps`` is absent: it reads
#: exactly 0 on many_flows, which never uses it).
SELF_TIME_LAYERS = ("sim", "net", "tcp", "core", "trafficgen", "trace",
                    "checks", "watchdog", "faults")
COUNTS = ("net.calls", "net.drops", "tcp.segments", "tcp.outputs",
          "tcp.retransmits", "core.acks", "core.dupacks", "core.timeouts",
          "trafficgen.conversations")

#: The quick-sweep experiment re-run untraced to price the tracing.
OVERHEAD_EXPERIMENT = "table2"

#: ROADMAP's cProfile self-time ranking on the table2 background cell.
CPROFILE_RANKING = ("tcp", "net", "sim", "core")


class Outcome:
    """Outputs attempted and failed in one run, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("REPRO_CACHE_DIR", None)
    return env


def spawn(argv: List[str], work: str, tag: str) -> Dict[str, Any]:
    """Run *argv* to completion; return its output and resource usage.

    CPU time and peak RSS come from ``wait4``, so they include every
    descendant the child waited for (the supervisor's forked cells).
    The child gets its own session so a timeout kills the whole tree.
    Its speed probes (see ``calibrate.py``) give ``probe_s``, the
    probes' own seconds, and ``scale``, which turns the child's host
    seconds into reference seconds with the probe time taken out.
    """
    out_path = os.path.join(work, f"{tag}.out")
    err_path = os.path.join(work, f"{tag}.err")
    probes = os.path.join(work, f"{tag}.probes")
    os.makedirs(probes)
    env = _env()
    env[calibrate.PROBE_DIR_ENV] = probes
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=env, start_new_session=True)
        killer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(err_path) as handle:
            tail = handle.read()[-2000:]
        raise RuntimeError(f"{tag} exited {proc.returncode}:\n{tail}")
    with open(out_path) as handle:
        stdout = handle.read()
    cpu = usage.ru_utime + usage.ru_stime
    records = calibrate.read_records(probes)
    count = sum(n for n, _ in records.values())
    probe_s = sum(s for _, s in records.values())
    return {"stdout": stdout, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "probe_s": probe_s,
            "scale": calibrate.factor(count, probe_s) * (1 - probe_s / cpu),
            "records": records}


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _worker(mode: str, *args: Any) -> List[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), mode,
            *map(str, args)]


def _repro(*args: str) -> List[str]:
    """``python -m repro ARGS``, with the speed probe running."""
    return [sys.executable, os.path.join(HERE, "probed_cli.py"), *args]


def setup_time(workload: str, seed: int, work: str,
               host: Dict[str, float]) -> float:
    """Median seconds from process start to the first simulated event."""
    samples, raw = [], []
    for i in range(SETUP_SAMPLES):
        start = time.monotonic()
        result = spawn(_worker("setup", workload, seed), work, f"setup{i}")
        elapsed = float(result["stdout"].split()[-1]) - start
        raw.append(elapsed)
        samples.append(elapsed * result["scale"])
    host["setup_s"] = statistics.median(raw)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def p50_p80(values: List[float]) -> Tuple[float, float]:
    """Median and 80th percentile (the highest with >= 10 of 66 cells
    beyond it on the quick sweep)."""
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=5)[-1]


def distinct_ratio(outputs: List[Dict[str, Any]]) -> float:
    """Distinct simulations among the cells run, judged by their outputs.

    Two cells are one simulation when they processed the same number of
    events and report a throughput (``*_kbps``) in common: ``figure9``,
    ``table2 vegas-2,4`` and ``table3 reno/vegas`` name their metrics
    differently but share the values.
    """
    groups: List[Tuple[Any, set]] = []
    for metrics in outputs:
        rates = {v for k, v in metrics.items() if k.endswith("_kbps")}
        for events, seen in groups:
            if events == metrics["events_processed"] and rates & seen:
                seen |= rates
                break
        else:
            groups.append((metrics["events_processed"], rates))
    return len(groups) / len(outputs)


def _load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# quick_sweep
# ----------------------------------------------------------------------

def _sweep_argv(seed: int, work: str, name: str,
                cache: str = "cache") -> List[str]:
    return ["run-all", "--quick", "--jobs", "1", "--experiments",
            ",".join(workloads.seeded_experiments(seed)),
            "--cache-dir", os.path.join(work, cache),
            "--json", os.path.join(work, f"{name}.json")]


def _check_sweep(doc: Dict[str, Any], expected: Dict[str, Dict[str, Any]],
                 outcome: Outcome, what: str) -> None:
    got = {cell["key"]: cell["metrics"] for cell in doc["cells"]}
    for key, metrics in expected.items():
        outcome.check(got.get(key) == metrics, f"{what}: {key} differs")
    outcome.check(set(got) == set(expected), f"{what}: cell set differs")


def _quick_expected() -> Dict[str, Dict[str, Any]]:
    doc = _load(os.path.join(ROOT, workloads.QUICK_BASELINE))
    return {cell["key"]: cell["metrics"] for cell in doc["cells"]}


def _cold_sweep(seed: int, work: str, outcome: Outcome, expected,
                name: str, traced: bool = False):
    """One cold ``run-all --quick --jobs 1``, its outputs checked."""
    from repro.harness.artifacts import cells_fingerprint

    # The traced sweep fills its own cache, so an untraced sweep later
    # in the same run is cold too.
    argv = _sweep_argv(seed, work, name, "cache-traced" if traced else "cache")
    if traced:
        ledger_dir = os.path.join(work, "ledger")
        os.makedirs(ledger_dir)
        argv = ["--ledger", ledger_dir, *argv]
    result = spawn(_repro(*argv), work, name)
    doc = _load(os.path.join(work, f"{name}.json"))
    _check_sweep(doc, expected, outcome, name)
    outcome.check(cells_fingerprint(doc) == workloads.QUICK_FINGERPRINT,
                  f"{name}: cell fingerprint differs")
    outcome.check(doc["run"]["cache_misses"] == len(expected),
                  f"{name}: not a cold sweep")
    # The committed gate, exactly as a user runs it (exit 1 on drift).
    check = subprocess.run(
        [sys.executable, "-m", "repro", "check",
         os.path.join(work, f"{name}.json"), workloads.QUICK_BASELINE,
         "--tolerance", "0"],
        cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    outcome.check(check.returncode == 0
                  and f"OK: {len(expected)} cell(s)" in check.stdout,
                  f"{name}: `repro check --tolerance 0` failed")
    return result, doc


def _warm_replay(seed: int, work: str, outcome: Outcome, expected,
                 i: int, cache: str = "cache") -> Tuple[Dict[str, Any], int]:
    result = spawn(_repro(*_sweep_argv(seed, work, f"warm{i}", cache)), work,
                   f"warm{i}")
    doc = _load(os.path.join(work, f"warm{i}.json"))
    _check_sweep(doc, expected, outcome, f"warm{i}")
    hits = doc["run"]["cache_hits"]
    outcome.check(hits == len(expected), f"warm{i}: {hits} cache hits")
    return result, hits


def quick_sweep(seed: int, seconds: float, trace: bool, work: str,
                outcome: Outcome, host: Dict[str, float]) -> Dict[str, float]:
    expected = _quick_expected()
    if trace:
        return quick_sweep_traced(seed, work, outcome, expected)
    cold, doc = _cold_sweep(seed, work, outcome, expected, "cold")
    replays = [_warm_replay(seed, work, outcome, expected, i)[0]
               for i in range(REPLAYS)]
    scale = cold["scale"]
    events = sum(c["metrics"]["events_processed"] for c in doc["cells"])
    host_p50, host_p80 = p50_p80([c["wall_clock_s"] for c in doc["cells"]])
    p50, p80 = p50_p80(_cell_walls(doc, cold, seed))
    host.update(wall_s=cold["wall_s"], cpu_s=cold["cpu_s"],
                replay_s=statistics.median(r["wall_s"] for r in replays),
                cell_s_p50=host_p50, cell_s_p80=host_p80)
    return {
        "setup_s": setup_time("quick_sweep", seed, work, host),
        "wall_s": cold["wall_s"] * scale,
        "cpu_s": cold["cpu_s"] * scale,
        "events_per_cpu_s": events / (cold["cpu_s"] * scale),
        "peak_rss_mb": cold["peak_rss_mb"],
        "replay_s": statistics.median(r["wall_s"] * r["scale"]
                                      for r in replays),
        "cell_s_p50": p50,
        "cell_s_p80": p80,
    }


def _cell_walls(doc: Dict[str, Any], sweep: Dict[str, Any],
                seed: int) -> List[float]:
    """Each cell's wall time in reference seconds, from its own probes.

    With ``--jobs 1`` the supervisor forks one child per cell in grid
    order, so the probe record of fork *n* belongs to the *n*-th cell.
    """
    from repro.harness.registry import all_cells

    order = [cell.key for cell in all_cells(
        quick=True, experiments=workloads.seeded_experiments(seed))]
    walls = {c["key"]: c["wall_clock_s"] for c in doc["cells"]}
    records = sweep["records"]
    if sorted(records) != list(range(len(order) + 1)):
        # A retried cell forks twice: fall back to the sweep's scale.
        return [wall * sweep["scale"] for wall in walls.values()]
    out = []
    for n, key in enumerate(order, start=1):
        count, probe_s = records[n]
        wall = walls[key]
        out.append((wall - probe_s) * calibrate.factor(count, probe_s)
                   if count else wall * sweep["scale"])
    return out


def quick_sweep_traced(seed: int, work: str, outcome: Outcome,
                       expected) -> Dict[str, float]:
    from ledger import merge

    traced, doc = _cold_sweep(seed, work, outcome, expected, "traced",
                              traced=True)
    ledger_dir = os.path.join(work, "ledger")
    cells = [_load(os.path.join(ledger_dir, name))
             for name in sorted(os.listdir(ledger_dir))]
    outcome.check(len(cells) == len(expected),
                  f"traced: {len(cells)} cell ledgers")
    by_key = {c["key"]: c["ledger"] for c in cells}
    for cell in doc["cells"]:
        snap = by_key.get(cell["key"])
        outcome.check(
            snap is not None
            and snap["events"] == cell["metrics"]["events_processed"]
            and sum(snap["dispatches"].values()) == snap["events"],
            f"traced: {cell['key']} dispatches != events_processed")
    ledger = merge(list(by_key.values()))
    ledger["self_s"] = {layer: t * traced["scale"]
                        for layer, t in ledger["self_s"].items()}
    _, hits = _warm_replay(seed, work, outcome, expected, 0, "cache-traced")
    run = doc["run"]
    extra = {
        "harness.overhead_s": (run["elapsed_s"] - run["cell_wall_clock_s"])
        * traced["scale"],
        "harness.cache_hit_ratio": hits / len(expected),
        "harness.cells_run": float(run["cache_misses"]),
        "harness.distinct_ratio": distinct_ratio(
            [c["metrics"] for c in doc["cells"]]),
        "tracing.overhead": _sweep_overhead(doc, traced, work, outcome,
                                            expected),
    }
    spans = [span for c in cells for span in c["spans"]]
    _write_trace_artifact("quick_sweep", seed, ledger, spans)
    return per_layer(ledger, [c["metrics"] for c in doc["cells"]], extra)


def _sweep_overhead(doc: Dict[str, Any], traced: Dict[str, Any], work: str,
                    outcome: Outcome, expected) -> float:
    """Traced / untraced time of the sweep's table2 cells.

    A second full cold sweep would take a traced run close to its time
    limit, so the untraced side re-runs only the table2 experiment (the
    tcplib cells that carry most of the sweep's time) and compares
    those cells' times in reference seconds.
    """
    argv = ["run-all", "--quick", "--jobs", "1", "--experiments",
            OVERHEAD_EXPERIMENT, "--cache-dir", os.path.join(work, "cache"),
            "--json", os.path.join(work, "untraced.json")]
    untraced = spawn(_repro(*argv), work, "untraced")
    sub = _load(os.path.join(work, "untraced.json"))
    for cell in sub["cells"]:
        outcome.check(cell["metrics"] == expected.get(cell["key"]),
                      f"untraced: {cell['key']} differs")
    keys = {cell["key"] for cell in sub["cells"]}
    traced_s = sum(c["wall_clock_s"] for c in doc["cells"] if c["key"] in keys)
    untraced_s = sum(c["wall_clock_s"] for c in sub["cells"])
    return (traced_s * traced["scale"]) / (untraced_s * untraced["scale"])


# ----------------------------------------------------------------------
# Single-cell workloads
# ----------------------------------------------------------------------

def _check_round(workload: str, rnd: Dict[str, Any], expected,
                 outcome: Outcome, what: str) -> None:
    for cell in rnd["cells"]:
        want = expected[workloads.expected_key(workload, cell["key"])]
        outcome.check(cell["metrics"] == want["metrics"],
                      f"{what}: {cell['key']} metrics differ")
        outcome.check(cell["far_peak"] == want["far_peak"],
                      f"{what}: {cell['key']} far_events_peak differs")


def _replay_cells(workload: str, work: str, expected, outcome: Outcome,
                  i: int) -> Tuple[Dict[str, Any], int]:
    result = spawn(_worker("replay", workload, os.path.join(work, "cache")),
                   work, f"replay{i}")
    doc = json.loads(result["stdout"])
    cells = workloads.WORKLOADS[workload]["cells"]
    outcome.check(doc["hits"] == len(cells),
                  f"replay{i}: {doc['hits']} cache hits")
    for key, metrics in doc["results"].items():
        want = expected[workloads.expected_key(workload, key)]["metrics"]
        outcome.check(metrics == want, f"replay{i}: {key} differs")
    return result, doc["hits"]


def single(workload: str, seed: int, seconds: float, trace: bool, work: str,
           outcome: Outcome, host: Dict[str, float]) -> Dict[str, float]:
    expected = workloads.expected_cells()
    out = os.path.join(work, "rounds.json")
    spawn(_worker("run", workload, seed, seconds, int(trace), out), work,
          "rounds")
    doc = _load(out)
    rounds = doc["rounds"]
    for i, rnd in enumerate(rounds):
        _check_round(workload, rnd, expected, outcome, f"round{i}")
    if trace:
        return single_traced(workload, seed, work, doc, expected, outcome)
    replays = [_replay_cells(workload, work, expected, outcome, i)[0]
               for i in range(REPLAYS)]
    cells = [c for r in rounds for c in r["cells"]]
    events = sum(c["metrics"]["events_processed"] for c in rounds[0]["cells"])
    cpu = statistics.median(r["cpu_s"] for r in rounds)
    p50, p80 = p50_p80([c["wall_s"] for c in cells])
    host_p50, host_p80 = p50_p80([c["host_wall_s"] for c in cells])
    host.update(wall_s=statistics.median(r["host_wall_s"] for r in rounds),
                cpu_s=statistics.median(r["host_cpu_s"] for r in rounds),
                replay_s=statistics.median(r["wall_s"] for r in replays),
                cell_s_p50=host_p50, cell_s_p80=host_p80)
    return {
        "setup_s": setup_time(workload, seed, work, host),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cpu_s": cpu,
        "events_per_cpu_s": events / cpu,
        "peak_rss_mb": doc["peak_rss_mb"],
        "replay_s": statistics.median(r["wall_s"] * r["scale"]
                                      for r in replays),
        "cell_s_p50": p50,
        "cell_s_p80": p80,
    }


def single_traced(workload: str, seed: int, work: str, doc, expected,
                  outcome: Outcome) -> Dict[str, float]:
    traced = doc["traced_rounds"]
    first = traced[0]["ledger"]
    for i, rnd in enumerate(traced):
        _check_round(workload, rnd, expected, outcome, f"traced{i}")
        ledger = rnd["ledger"]
        events = sum(c["metrics"]["events_processed"] for c in rnd["cells"])
        outcome.check(ledger["events"] == events
                      and sum(ledger["dispatches"].values()) == events,
                      f"traced{i}: dispatches != events_processed")
        peak = max(expected[workloads.expected_key(workload, c["key"])]
                   ["peak_heap"] for c in rnd["cells"])
        outcome.check(ledger["peak_heap"] == peak,
                      f"traced{i}: peak_heap {ledger['peak_heap']} != {peak}")
        outcome.check((ledger["counts"], ledger["dispatches"])
                      == (first["counts"], first["dispatches"]),
                      f"traced{i}: layer counts differ from traced0")
    _, hits = _replay_cells(workload, work, expected, outcome, 0)
    ledger = dict(first)
    # Each round's self times in reference seconds, then the median.
    ledger["self_s"] = {
        layer: statistics.median(
            r["ledger"]["self_s"][layer] * r["cpu_s"] / r["host_cpu_s"]
            for r in traced)
        for layer in first["self_s"]}
    cells = traced[0]["cells"]
    extra = {
        "harness.overhead_s": statistics.median(r["loop_s"] for r in traced),
        "harness.cache_hit_ratio": hits / len(cells),
        "harness.cells_run": float(len(cells)),
        "harness.distinct_ratio": distinct_ratio(
            [c["metrics"] for c in cells]),
        "tracing.overhead": (statistics.median(r["cpu_s"] for r in traced)
                             / statistics.median(r["cpu_s"]
                                                 for r in doc["rounds"])),
    }
    _write_trace_artifact(workload, seed, ledger, doc["spans"])
    return per_layer(ledger, [c["metrics"] for c in cells], extra)


# ----------------------------------------------------------------------
# Per-layer report
# ----------------------------------------------------------------------

def per_layer(ledger: Dict[str, Any], outputs: List[Dict[str, Any]],
              extra: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced run, by their benchmark names."""
    dispatches = ledger["dispatches"]
    metrics: Dict[str, float] = {
        "sim.events": float(ledger["events"]),
        "sim.peak_heap": float(ledger["peak_heap"]),
        "sim.far_peak": float(ledger["far_peak"]),
    }
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = float(ledger["self_s"].get(layer, 0.0))
    for layer in DISPATCH_LAYERS:
        metrics[f"{layer}.dispatches"] = float(dispatches.get(layer, 0))
    metrics["other.dispatches"] = float(sum(
        n for layer, n in dispatches.items() if layer not in DISPATCH_LAYERS))
    for name in COUNTS:
        metrics[name] = float(ledger["counts"].get(name, 0))
    metrics["checks.violations"] = float(sum(
        m.get("invariant_violations", 0.0) for m in outputs))
    metrics["faults.injected"] = float(sum(
        v for m in outputs for k, v in m.items() if k.startswith("fault_")))
    metrics.update(extra)
    return metrics


def layer_shares(self_s: Dict[str, float]) -> List[Tuple[str, float]]:
    """Layers by self time, with their share of the traced total."""
    total = sum(self_s.values()) or 1.0
    return sorted(((layer, t / total) for layer, t in self_s.items()),
                  key=lambda item: -item[1])


def _write_trace_artifact(workload: str, seed: int, ledger, spans) -> None:
    """Keep the full ledger and coarse spans of a traced run."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": seed, "ledger": ledger,
                   "spans": spans}, handle, indent=1, sort_keys=True)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool):
    """One run of one workload in a scratch directory inside the checkout.

    Returns the outcome, the metrics, and the raw host seconds of the
    calibrated time metrics.
    """
    scratch = os.path.join(HERE, ".work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    outcome = Outcome()
    host: Dict[str, float] = {}
    try:
        if workload == "quick_sweep":
            metrics = quick_sweep(seed, seconds, trace, work, outcome, host)
        else:
            metrics = single(workload, seed, seconds, trace, work, outcome,
                             host)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return outcome, metrics, host


def _spec() -> Dict[str, Any]:
    return _load(os.path.join(ROOT, "BENCHMARK.json"))


def _units(trace: bool) -> Dict[str, str]:
    return {m["name"]: m["unit"]
            for m in _spec()["per_layer" if trace else "end_to_end"]}


def print_table(workload: str, metrics: Dict[str, float],
                host: Dict[str, float], units: Dict[str, str],
                stream) -> None:
    print(f"== {workload}", file=stream)
    for name, unit in units.items():
        raw = f"  (host {host[name]:.6g} s)" if name in host else ""
        print(f"  {name:26s} {metrics[name]:>14.6g} {unit:6s}{raw}",
              file=stream)
    if "sim.self_s" in metrics:
        shares = layer_shares({layer: metrics[f"{layer}.self_s"]
                               for layer in SELF_TIME_LAYERS})
        print("  layer self-time shares: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares if share > 0),
            file=stream)
        order = [layer for layer, _ in shares if layer in CPROFILE_RANKING]
        verdict = "same" if tuple(order) == CPROFILE_RANKING else "differs"
        print(f"  ranking {' > '.join(order)} vs ROADMAP cProfile "
              f"{' > '.join(CPROFILE_RANKING)}: {verdict}", file=stream)


def environment() -> Dict[str, Any]:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model,
            "note": "shared host: other tenants' load moves host timings "
                    "by tens of percent; times are in reference seconds"}


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_all(seed: int, seconds: float, record: bool) -> int:
    """Every workload untraced (and traced with --record); one table."""
    rows: Dict[str, Any] = {}
    ok = True
    for trace in (False, True) if record else (False,):
        units = _units(trace)
        for workload in workloads.WORKLOADS:
            outcome, metrics, host = measure(workload, seed, seconds, trace)
            ok = ok and outcome.failed == 0
            print_table(workload, metrics, host, units, sys.stdout)
            print(f"  fail_rate {outcome.failed}/{outcome.attempted}")
            row = rows.setdefault(workload, {"attempted": 0, "failed": 0})
            row["attempted"] += outcome.attempted
            row["failed"] += outcome.failed
            row["per_layer" if trace else "end_to_end"] = metrics
            if not trace:
                row["host_s"] = host
    if record:
        entry = {"commit": _commit(), "date": time.strftime("%Y-%m-%d"),
                 "seed": seed, "seconds": seconds,
                 "environment": environment(), "workloads": rows}
        with open(os.path.join(HERE, "trajectory.jsonl"), "a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="with --workload all: also run traced and "
                             "append a row to trajectory.jsonl")
    args = parser.parse_args(argv)
    for needed in ("src/repro/__init__.py", workloads.QUICK_BASELINE):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found: run from a checkout of the "
                  "repository", file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    if args.seconds is None:
        args.seconds = float(_spec()["run_seconds"])
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.record)
    trace = bool(args.trace)
    outcome, metrics, host = measure(args.workload, args.seed, args.seconds,
                                     trace)
    units = _units(trace)
    print_table(args.workload, metrics, host, units, sys.stderr)
    for reason in outcome.reasons:
        print(f"  FAILED: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
