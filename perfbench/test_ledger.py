"""Self-tests of the benchmark's traced ledger.

Run from the repository root (about a minute)::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402
from ledger import Ledger, layer_of_module, merge  # noqa: E402


def cells_of(workload):
    from repro.harness.registry import Cell

    return [Cell.make(e, **p) for e, p in workloads.WORKLOADS[workload]["cells"]]


def traced(workload):
    """Run the workload's cells once under a fresh ledger."""
    from repro.harness.registry import run_cell

    options = workloads.WORKLOADS[workload]["options"]
    tracer = Ledger().install()
    try:
        outputs = [tracer.cell(cell.key, run_cell, cell, **options)
                   for cell in cells_of(workload)]
    finally:
        tracer.uninstall()
    return tracer.snapshot(), outputs


@pytest.fixture(scope="module")
def expected():
    return workloads.expected_cells()


@pytest.mark.parametrize("workload",
                         ["tcplib_background", "many_flows", "instrumented"])
def test_dispatches_sum_to_events_and_outputs_unchanged(workload, expected):
    snap, outputs = traced(workload)
    events = sum(m["events_processed"] for m in outputs)
    assert sum(snap["dispatches"].values()) == snap["events"] == events
    pinned = [expected[workloads.expected_key(workload, cell.key)]
              for cell in cells_of(workload)]
    # Tracing changes no output, events_processed included.
    assert outputs == [want["metrics"] for want in pinned]
    assert snap["peak_heap"] == max(want["peak_heap"] for want in pinned)


def test_layer_counts_repeat_exactly():
    first, _ = traced("many_flows")
    second, _ = traced("many_flows")
    for table in ("counts", "dispatches"):
        assert first[table] == second[table]
    assert (first["events"], first["peak_heap"], first["far_peak"]) == (
        second["events"], second["peak_heap"], second["far_peak"])


def test_quick_sweep_cells_dispatch_sum(tmp_path):
    """The forked cells of a traced ``run-all`` each balance exactly."""
    ledger_dir = tmp_path / "ledger"
    ledger_dir.mkdir()
    artifact = tmp_path / "sweep.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(
        [sys.executable, os.path.join(HERE, "probed_cli.py"), "--ledger",
         str(ledger_dir), "run-all", "--quick", "--jobs", "1", "--experiments",
         "figure6,figure7,sendbuf", "--cache-dir", str(tmp_path / "cache"),
         "--json", str(artifact)],
        cwd=ROOT, env=env, check=True, capture_output=True)
    doc = json.loads(artifact.read_text())
    base = bench._quick_expected()
    cells = [json.loads(p.read_text()) for p in sorted(ledger_dir.iterdir())]
    assert len(cells) == len(doc["cells"]) == 8
    by_key = {c["key"]: c["ledger"] for c in cells}
    for cell in doc["cells"]:
        snap = by_key[cell["key"]]
        assert sum(snap["dispatches"].values()) == snap["events"]
        assert snap["events"] == cell["metrics"]["events_processed"]
        assert cell["metrics"] == base[cell["key"]]
    total = merge(list(by_key.values()))
    assert total["self_s"]["trace"] > 0  # figure cells record traces
    assert total["counts"]["tcp.segments"] > 0


def test_self_time_excludes_nested_spans():
    tracer = Ledger()
    clock = iter([0.0, 1.0, 3.0, 10.0]).__next__
    import ledger as ledger_mod

    real = ledger_mod.time.perf_counter
    ledger_mod.time.perf_counter = clock
    try:
        inner = tracer._span("net", "net.calls", lambda: None)
        outer = tracer._span("tcp", "tcp.outputs", inner)
        outer()
    finally:
        ledger_mod.time.perf_counter = real
    # tcp span 0..10 encloses a net span 1..3.
    assert tracer.self_s == {"tcp": 8.0, "net": 2.0}
    # A span nested in one of the same counter counts once.
    assert tracer.counts == {"net.calls": 1, "tcp.outputs": 1}


def test_uninstall_restores_every_attribute():
    from repro.net.link import Channel
    from repro.sim.engine import Simulator

    before = (Simulator.schedule_anon, Simulator.run, Channel.send)
    tracer = Ledger().install()
    assert Simulator.run is not before[1]
    tracer.uninstall()
    assert (Simulator.schedule_anon, Simulator.run, Channel.send) == before


def test_layers_follow_module_names():
    assert layer_of_module("repro.net.link") == "net"
    assert layer_of_module("repro.sim.watchdog") == "watchdog"
    assert layer_of_module("repro.sim.engine") == "sim"
    assert layer_of_module("builtins") == "other"


def test_seed_permutes_sweep_order_only():
    a = workloads.seeded_experiments(1)
    assert a == workloads.seeded_experiments(1)
    assert a != workloads.seeded_experiments(2)
    assert sorted(a) == sorted(workloads.QUICK_EXPERIMENTS)


def test_p80_leaves_ten_of_66_cells_beyond():
    values = [float(i) for i in range(66)]
    p50, p80 = bench.p50_p80(values)
    assert p50 == 32.5
    assert sum(v > p80 for v in values) >= 10


def test_refuses_to_run_outside_a_checkout(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench_dir / name).write_bytes(open(os.path.join(HERE, name),
                                                "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(
        open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many_flows",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": os.environ.get("PATH", "")})
    assert result.returncode != 0
    assert result.stdout == ""


def test_speed_probe_fires_and_changes_no_output(expected):
    """Probes interrupt the run between bytecodes and touch nothing."""
    import calibrate
    from repro.harness.registry import Cell, run_cell

    probe = calibrate.SpeedProbe().start()
    try:
        metrics = run_cell(Cell.make("many_flows", flows=1000, seed=0))
    finally:
        probe.stop()
    count, probe_s = probe.snapshot()
    assert count > 10 and 0 < probe_s
    assert calibrate.factor(count, probe_s) > 0
    key = workloads.expected_key("many_flows",
                                 "many_flows/flows=1000/seed=0")
    assert metrics == expected[key]["metrics"]


def test_probe_records_cover_forked_children(tmp_path, monkeypatch):
    import calibrate

    monkeypatch.setenv(calibrate.PROBE_DIR_ENV, str(tmp_path))
    code = ("import os, sys, time; sys.path.insert(0, %r); import calibrate;"
            "calibrate.start_from_env();"
            "burn = lambda: [sum(range(1000)) for _ in range(3000)];"
            "pid = os.fork();"
            "burn();"
            "os._exit(0) if pid == 0 else os.waitpid(pid, 0)" % HERE)
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
    records = calibrate.read_records(str(tmp_path))
    assert sorted(records) == [0, 1]  # the parent, then its first fork
    for count, probe_s in records.values():
        assert count > 0 and probe_s > 0
