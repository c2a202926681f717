"""Tests for the fault-tolerant distributed sweep backend.

Covers the robustness contracts of :mod:`repro.harness.dist`: leases
expire and re-queue, dead workers are declared ``worker-lost`` and
their cells retried on respawned workers, stale results never settle
(no cache poisoning), the journal replays a killed master's run, the
drain path flushes partial results, zero reachable workers degrades to
the local supervised pool — and a distributed sweep's artifact carries
the same cells fingerprint as a local one.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import ReproError
from repro.harness import build_document, cells_fingerprint, run_cells
from repro.harness.cache import ResultCache
from repro.harness.dist import journal as journal_mod
from repro.harness.dist import protocol
from repro.harness.dist.chaos import CHAOS_EXPERIMENT
from repro.harness.dist.lease import LeaseTable
from repro.harness.dist.master import run_distributed
from repro.harness.registry import (
    Cell,
    cell_budget,
    group_cells,
    register_timeout_hint,
    timeout_hint,
)
from repro.harness.runner import storage_key
from repro.harness.supervisor import retry_backoff, run_supervised

posix_only = pytest.mark.skipif(
    os.name != "posix", reason="dist worker-failure tests use signals")

PRELOAD = ["repro.harness.dist.chaos"]

#: Fast master tuning shared by the integration tests.
FAST = dict(heartbeat_interval_s=0.1, heartbeat_misses=4,
            backoff_base=0.01, lease_grace_s=0.3)

#: The same tuning as ``dist_options`` for run_cells, which forwards
#: ``backoff_base`` itself.
FAST_OPTS = {k: v for k, v in FAST.items() if k != "backoff_base"}


def chaos(mode, **params):
    return Cell.make(CHAOS_EXPERIMENT, mode=mode, **params)


def _src_dir():
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_src_dir()] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                        else []))
    return env


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------

class TestProtocol:
    def test_round_trip(self):
        msg = protocol.result("w1", "L3", "k", {"m": 1.5}, 0.25)
        assert protocol.decode(protocol.encode(msg)) == msg

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b'{"no": "type"}\n')

    def test_encode_is_wire_safe_for_arbitrary_detail(self):
        # Failure detail may carry arbitrary diagnostic objects.
        msg = protocol.fail("w1", "L1", "k", "crash", "boom",
                            {"obj": object()}, 0.0)
        assert b"crash" in protocol.encode(msg)

    def test_grant_cell_round_trip(self):
        cell = Cell.make("table2", proto="reno", buffers=10, seed=0)
        msg = protocol.decode(protocol.encode(
            protocol.grant("L1", cell, 1, 60.0)))
        assert protocol.cell_from_grant(msg) == cell

    def test_grant_carries_the_shared_group(self):
        leader = Cell.make("figure6", seed=0)
        member = Cell.make("sendbuf", cc="reno", size_kb=50, seed=0)
        msg = protocol.decode(protocol.encode(
            protocol.grant("L1", leader, 1, 60.0, shared=[member])))
        assert protocol.cell_from_grant(msg) == leader
        assert protocol.group_from_grant(msg) == (leader, member)

    def test_result_must_cover_the_leased_group(self):
        leader = Cell.make("figure6", seed=0)
        member = Cell.make("sendbuf", cc="reno", size_kb=50, seed=0)
        msg = protocol.decode(protocol.encode(protocol.result(
            "w1", "L1", leader.key, {"m": 1.0}, 0.5,
            shared=[(member.key, {"m": 2.0}, 0.01)])))
        assert protocol.outcomes_from_result(msg, (leader, member)) == [
            ({"m": 1.0}, 0.5), ({"m": 2.0}, 0.01)]
        with pytest.raises(protocol.ProtocolError):
            protocol.outcomes_from_result(msg, (leader,))

    def test_hello_version_gate(self):
        ok = protocol.hello("w9", 123)
        assert protocol.check_hello(ok) == "w9"
        stale = dict(ok, version="repro-dist/v0")
        with pytest.raises(protocol.ProtocolError, match="mixed checkouts"):
            protocol.check_hello(stale)
        with pytest.raises(protocol.ProtocolError):
            protocol.check_hello(dict(ok, worker_id=""))


# ----------------------------------------------------------------------
# Lease table (pure state machine, fake clock, no processes)
# ----------------------------------------------------------------------

class TestLeaseTable:
    def _table(self, cells=2, timeout_s=10.0, retries=1, **kw):
        cs = [chaos("ok", seed=i) for i in range(cells)]
        return LeaseTable(group_cells(cs), timeout_s=timeout_s,
                          retries=retries, backoff_base=0.05,
                          lease_grace_s=1.0, **kw)

    def test_grants_longest_declared_budget_first(self):
        # Longest-first packing: a 1,000-flow cell granted FIFO-last
        # was the straggler tail of every dist sweep (ROADMAP PR 9
        # headroom).  The pending queue orders by declared cell_budget
        # descending, so the big cells lease out first.
        small = [chaos("ok", seed=i) for i in range(2)]      # 10s default
        big = Cell.make("many_flows", flows=1000, seed=0)     # 1200s hint
        medium = Cell.make("many_flows", flows=200, seed=0)   # 240s hint
        table = LeaseTable(group_cells(small + [medium, big]),
                           timeout_s=10.0, retries=0, lease_grace_s=1.0)
        granted = [table.grant(f"w{i}", now=0.0).task.cell
                   for i in range(4)]
        assert granted[0] == big
        assert granted[1] == medium
        # Equal budgets keep their submission order (stable sort).
        assert granted[2:] == small

    def test_unsupervised_queue_keeps_submission_order(self):
        cells = [chaos("ok", seed=i) for i in range(3)]
        table = LeaseTable(group_cells(cells), timeout_s=None, retries=0)
        assert [t.cell for t in table.pending] == cells

    def test_grant_sizes_deadline_from_budget_plus_grace(self):
        table = self._table(timeout_s=10.0)
        lease = table.grant("w1", now=100.0)
        assert lease.budget_s == 10.0
        assert lease.deadline == pytest.approx(111.0)  # budget + grace

    def test_settle_ok_completes_the_cell(self):
        table = self._table(cells=1)
        lease = table.grant("w1", now=0.0)
        task = table.settle_ok(lease.lease_id, "w1", {"m": 1.0}, 0.5)
        assert task is not None and task.attempts == 1
        assert table.done and len(table.successes) == 1

    def test_fail_retries_with_deterministic_backoff_then_quarantines(self):
        table = self._table(cells=1, retries=1)
        lease = table.grant("w1", now=0.0)
        settled = table.settle_fail(lease.lease_id, "w1", "crash", "boom",
                                    {}, 0.1, now=5.0)
        task, (action, backoff) = settled
        assert action == "retry"
        assert backoff == pytest.approx(retry_backoff(task.key, 1, 0.05))
        assert task.not_before == pytest.approx(5.0 + backoff)
        # Second failure exhausts the retry budget.
        lease = table.grant("w2", now=task.not_before + 0.01)
        _, (action, _) = table.settle_fail(lease.lease_id, "w2", "crash",
                                           "boom again", {}, 0.1, now=6.0)
        assert action == "quarantine"
        assert table.failures[0].kind == "crash"
        assert table.failures[0].attempts == 2
        assert len(table.failures[0].attempt_log) == 2

    def test_backoff_gates_the_queue(self):
        table = self._table(cells=1, retries=2)
        lease = table.grant("w1", now=0.0)
        task, _ = table.settle_fail(lease.lease_id, "w1", "crash", "x",
                                    {}, 0.0, now=10.0)
        assert table.next_due(now=10.0) is None       # gate closed
        assert table.earliest_gate() == task.not_before
        assert table.next_due(now=task.not_before) is task

    def test_expiry_requeues_as_timeout_and_stale_result_is_dropped(self):
        table = self._table(cells=1, timeout_s=5.0, retries=1)
        lease = table.grant("w1", now=0.0)
        assert table.expired(now=5.9) == []           # inside grace
        assert table.expired(now=6.1) == [lease]
        action, _ = table.expire(lease, now=6.1)
        assert action == "retry"
        assert table.expired_leases == 1
        assert lease.task.attempt_log[0]["kind"] == "timeout"
        # The worker finishes late: its result must NOT settle the cell
        # (the cell may already be running elsewhere) — this is the
        # no-cache-poisoning guarantee at the lease layer.
        assert table.settle_ok(lease.lease_id, "w1", {"m": 1.0}, 9.0) is None
        assert table.stale_results == 1
        assert not table.successes

    def test_result_from_wrong_worker_is_stale(self):
        table = self._table(cells=1)
        lease = table.grant("w1", now=0.0)
        assert table.settle_ok(lease.lease_id, "w2", {"m": 1.0}, 0.1) is None
        assert table.stale_results == 1
        # The true holder still settles fine.
        assert table.settle_ok(lease.lease_id, "w1", {"m": 1.0}, 0.1)

    def test_revoke_worker_uses_worker_lost_kind(self):
        table = self._table(cells=2, retries=0)
        l1 = table.grant("w1", now=0.0)
        l2 = table.grant("w1", now=0.0)
        revoked = table.revoke_worker("w1", "heartbeat silence", now=1.0)
        assert {lease.lease_id for lease, _ in revoked} == {l1.lease_id,
                                                            l2.lease_id}
        assert all(kind == "quarantine" for _, (kind, _) in revoked)
        assert {f.kind for f in table.failures} == {"worker-lost"}
        assert not table.leases

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LeaseTable([], timeout_s=10.0, retries=-1)
        with pytest.raises(ValueError):
            LeaseTable([], timeout_s=0.0, retries=1)


# ----------------------------------------------------------------------
# Per-cell timeout hints (satellite: registry budgets size leases)
# ----------------------------------------------------------------------

class TestTimeoutHints:
    def test_many_flows_declares_its_own_budget(self):
        big = Cell.make("many_flows", flows=1000, seed=0)
        small = Cell.make("many_flows", flows=10, seed=0)
        assert timeout_hint(big) == pytest.approx(1200.0)
        assert cell_budget(big, 120.0) == pytest.approx(1200.0)
        # Hints only widen: the quick cell keeps the sweep deadline.
        assert cell_budget(small, 120.0) == 180.0
        assert cell_budget(big, None) is None

    def test_hint_never_shrinks_the_global_timeout(self):
        cell = Cell.make("many_flows", flows=10, seed=0)
        assert cell_budget(cell, 500.0) == 500.0

    def test_lease_budget_uses_the_hint(self):
        table = LeaseTable([(Cell.make("many_flows", flows=1000, seed=0),)],
                           timeout_s=120.0, retries=0, lease_grace_s=2.0)
        lease = table.grant("w1", now=0.0)
        assert lease.budget_s == pytest.approx(1200.0)
        assert lease.deadline == pytest.approx(1202.0)

    def test_runtime_registration_round_trip(self):
        from repro.harness.registry import (
            _TIMEOUT_HINTS,
            register_experiment,
            unregister_experiment,
        )

        register_experiment("hintx", lambda seed: {"m": 0.0})
        register_timeout_hint("hintx", 77.0)
        try:
            assert cell_budget(Cell.make("hintx", seed=0), 10.0) == 77.0
        finally:
            unregister_experiment("hintx")
        assert "hintx" not in _TIMEOUT_HINTS  # unregister cleans hints

    @pytest.mark.parametrize("hint, match", [
        (lambda params: 1 / 0, "raised ZeroDivisionError"),
        (lambda params: float("nan"), "invalid budget"),
        (lambda params: -5.0, "invalid budget"),
        (0.0, "invalid budget"),
        (lambda params: "soon", "non-numeric budget"),
    ])
    def test_bad_hints_raise_a_clear_error_naming_the_experiment(
            self, hint, match):
        # A raising / negative / NaN hint used to pass through
        # unvalidated and crash the supervisor or dist master
        # mid-sweep; now it's a typed ReproError at use time.
        from repro.harness.registry import (
            register_experiment,
            unregister_experiment,
        )

        register_experiment("badhint", lambda seed: {"m": 0.0})
        register_timeout_hint("badhint", hint)
        cell = Cell.make("badhint", seed=0)
        try:
            with pytest.raises(ReproError, match=match) as excinfo:
                cell_budget(cell, 10.0)
            assert "badhint" in str(excinfo.value)
        finally:
            unregister_experiment("badhint")

    def test_bad_hint_fails_fast_when_building_the_lease_table(self):
        from repro.harness.registry import (
            register_experiment,
            unregister_experiment,
        )

        register_experiment("badhint2", lambda seed: {"m": 0.0})
        register_timeout_hint("badhint2", lambda params: float("nan"))
        try:
            with pytest.raises(ReproError, match="badhint2"):
                LeaseTable([(Cell.make("badhint2", seed=0),)],
                           timeout_s=10.0, retries=0)
        finally:
            unregister_experiment("badhint2")


# ----------------------------------------------------------------------
# Journal + replay
# ----------------------------------------------------------------------

class TestJournal:
    def test_write_replay_round_trip(self, tmp_path):
        path = str(tmp_path / "run.journal")
        with journal_mod.RunJournal(path) as journal:
            journal.record("run.start", src_hash="abc", cells=2)
            journal.record("grant", key="k1", worker="w1")
            journal.record("result", key="k1", metrics={"m": 1.0},
                           wall_clock_s=0.5, worker="w1", attempts=1,
                           attempt_log=[])
            journal.record("quarantine",
                           failure={"key": "k2", "experiment": "x",
                                    "kind": "crash", "message": "boom",
                                    "attempts": 2, "wall_clock_s": 0.1})
        state = journal_mod.replay(path, src_hash="abc")
        assert state.src_hash == "abc"
        assert state.results["k1"]["metrics"] == {"m": 1.0}
        assert state.failures["k2"]["kind"] == "crash"
        assert state.settled == 2 and not state.truncated

    def test_result_supersedes_quarantine(self, tmp_path):
        path = str(tmp_path / "run.journal")
        with journal_mod.RunJournal(path) as journal:
            journal.record("quarantine", failure={"key": "k1",
                                                  "kind": "timeout"})
            journal.record("result", key="k1", metrics={"m": 2.0})
        state = journal_mod.replay(path)
        assert "k1" in state.results and not state.failures

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "run.journal")
        with journal_mod.RunJournal(path) as journal:
            journal.record("run.start", src_hash="abc")
            journal.record("result", key="k1", metrics={})
        with open(path, "a") as handle:
            handle.write('{"rec": "result", "key": "k2", "metr')  # torn
        state = journal_mod.replay(path)
        assert state.truncated and "k1" in state.results
        assert "k2" not in state.results

    def test_malformed_mid_file_raises(self, tmp_path):
        path = str(tmp_path / "run.journal")
        with open(path, "w") as handle:
            handle.write("garbage line\n")
            handle.write('{"rec": "result", "key": "k1", "metrics": {}}\n')
        with pytest.raises(ReproError, match="malformed"):
            journal_mod.replay(path)

    def test_src_hash_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "run.journal")
        with journal_mod.RunJournal(path) as journal:
            journal.record("run.start", src_hash="a" * 20)
        with pytest.raises(ReproError, match="different"):
            journal_mod.replay(path, src_hash="b" * 20)

    def test_existing_journal_refused_without_resume(self, tmp_path):
        path = str(tmp_path / "run.journal")
        journal_mod.RunJournal(path).close()
        with pytest.raises(ReproError, match="resume"):
            journal_mod.RunJournal(path)
        journal_mod.RunJournal(path, resume=True).close()  # resume appends


# ----------------------------------------------------------------------
# End-to-end worker-failure modes (chaos cells, real processes)
# ----------------------------------------------------------------------

@posix_only
class TestDistExecution:
    def test_clean_sweep_records_worker_provenance(self):
        cells = [chaos("ok", seed=s) for s in range(4)]
        ok, fail, interrupted, _ = run_distributed(
            group_cells(cells), timeout_s=30.0, retries=1, workers=2,
            preload=PRELOAD, **FAST)
        assert not fail and not interrupted
        assert sorted(r.key for r in ok) == sorted(c.key for c in cells)
        assert all(r.worker for r in ok)
        assert all(r.attempts == 1 and not r.attempt_log for r in ok)

    def test_os_exit_mid_cell_is_worker_lost_and_siblings_complete(self):
        cells = [chaos("exit", seed=0), chaos("ok", seed=1)]
        ok, fail, _, _ = run_distributed(
            group_cells(cells), timeout_s=30.0, retries=1, workers=2,
            preload=PRELOAD, **FAST)
        assert [r.key for r in ok] == [chaos("ok", seed=1).key]
        (failure,) = fail
        assert failure.kind == "worker-lost"
        assert failure.attempts == 2          # retried on a respawn first
        assert all(e["kind"] == "worker-lost" for e in failure.attempt_log)

    def test_flaky_cell_retries_on_deterministic_backoff(self, tmp_path):
        cell = chaos("flaky", seed=0, scratch=str(tmp_path))
        ok, fail, _, _ = run_distributed(
            group_cells([cell]), timeout_s=30.0, retries=1, workers=1,
            preload=PRELOAD, **FAST)
        assert not fail
        (record,) = ok
        assert record.attempts == 2
        (first,) = record.attempt_log
        assert first["kind"] == "crash"
        assert first["backoff_s"] == round(
            retry_backoff(cell.key, 1, FAST["backoff_base"]), 6)

    def test_sleep_past_lease_budget_expires_as_timeout(self):
        cells = [chaos("sleep", delay=30.0, seed=0)]
        ok, fail, _, _ = run_distributed(
            group_cells(cells), timeout_s=0.5, retries=0, workers=1,
            preload=PRELOAD, **FAST)
        assert not ok
        (failure,) = fail
        assert failure.kind == "timeout"
        assert "lease expired" in failure.message

    def test_heartbeat_silence_is_worker_lost(self):
        cells = [chaos("stop", seed=0)]                # SIGSTOPs itself
        started = time.monotonic()
        ok, fail, _, _ = run_distributed(
            group_cells(cells), timeout_s=60.0, retries=0, workers=1,
            preload=PRELOAD, **FAST)
        assert not ok
        (failure,) = fail
        assert failure.kind == "worker-lost"
        assert "heartbeat" in failure.message
        # Detected by beat silence (~0.4s), not the 60s cell budget.
        assert time.monotonic() - started < 30.0

    def test_quarantined_cells_never_reach_the_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), "hash")
        cells = [chaos("crash", seed=0), chaos("ok", seed=1)]
        report = run_cells(cells, jobs=1, cache=cache, backend="dist",
                           timeout_s=30.0, retries=0,
                           dist_options=dict(workers=1, preload=PRELOAD,
                                             **FAST_OPTS))
        assert [f.kind for f in report.failures] == ["crash"]
        assert cache.get(storage_key(chaos("crash", seed=0).key)) is None
        assert cache.get(storage_key(chaos("ok", seed=1).key)) is not None

    def test_degrades_to_local_pool_when_no_worker_reachable(self):
        cells = [chaos("ok", seed=s) for s in range(2)]
        ok, fail, interrupted, _ = run_distributed(
            group_cells(cells), timeout_s=30.0, retries=0, workers=0,
            connect_timeout_s=0.3, fallback_jobs=2)
        assert not fail and not interrupted
        assert sorted(r.key for r in ok) == sorted(c.key for c in cells)
        assert all(r.worker is None for r in ok)      # ran locally

    def test_dist_metrics_and_fingerprint_match_local(self, tmp_path):
        cells = [Cell.make("sendbuf", cc="reno", size_kb=5, seed=0),
                 Cell.make("sendbuf", cc="vegas", size_kb=5, seed=0)]
        local = run_cells(cells, jobs=1, timeout_s=60.0)
        dist = run_cells(cells, jobs=1, backend="dist", timeout_s=60.0,
                         dist_options=dict(workers=2, **FAST_OPTS))
        doc_local = build_document(local, mode="quick", src_hash="h")
        doc_dist = build_document(dist, mode="quick", src_hash="h")
        assert cells_fingerprint(doc_local) == cells_fingerprint(doc_dist)
        assert doc_dist["run"]["backend"] == "dist"
        assert all(c["worker"] for c in doc_dist["cells"])

    def test_one_lease_serves_every_member_of_a_shared_run(self):
        figure6 = Cell.make("figure6", seed=0)
        sendbuf = Cell.make("sendbuf", cc="reno", size_kb=50, seed=0)
        local = run_cells([sendbuf, figure6], jobs=1)
        dist = run_cells([sendbuf, figure6], jobs=1, backend="dist",
                         timeout_s=60.0,
                         dist_options=dict(workers=2, **FAST_OPTS))
        assert dist.ok and dist.simulations == 1
        assert ([r.metrics for r in dist.results]
                == [r.metrics for r in local.results])
        # The first cell listed leads the run.
        assert {r.key: r.shared_with for r in dist.results} == {
            sendbuf.key: None, figure6.key: sendbuf.key}
        assert len({r.worker for r in dist.results}) == 1


# ----------------------------------------------------------------------
# Master kill + resume, and SIGINT drain (the acceptance scenarios)
# ----------------------------------------------------------------------

_KILL_DRIVER = """\
import sys
from repro.harness.registry import Cell, group_cells
from repro.harness.dist.master import run_distributed

cells = [Cell.make("dist_chaos", mode="ok", delay=0.4, seed=s)
         for s in range(8)]
ok, fail, interrupted, _ = run_distributed(
    group_cells(cells), timeout_s=30.0, retries=1, workers=1,
    journal=sys.argv[1], src_hash="kill-test",
    preload=["repro.harness.dist.chaos"],
    heartbeat_interval_s=0.1, heartbeat_misses=4, backoff_base=0.01)
print(f"DONE ok={len(ok)} fail={len(fail)} intr={interrupted}", flush=True)
"""


def _count_results(journal_path):
    if not os.path.exists(journal_path):
        return 0
    count = 0
    with open(journal_path) as handle:
        for line in handle:
            try:
                if json.loads(line).get("rec") == "result":
                    count += 1
            except ValueError:
                pass
    return count


@posix_only
class TestKillAndResume:
    def test_master_sigkill_then_resume_completes_the_run(self, tmp_path):
        journal = str(tmp_path / "run.journal")
        driver = tmp_path / "driver.py"
        driver.write_text(_KILL_DRIVER)
        proc = subprocess.Popen([sys.executable, str(driver), journal],
                                env=_env(), stdout=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 60.0
            while _count_results(journal) < 2:
                assert proc.poll() is None, "driver finished before kill"
                assert time.monotonic() < deadline, "no results in time"
                time.sleep(0.05)
        finally:
            proc.kill()
            proc.wait()

        state = journal_mod.replay(journal, src_hash="kill-test")
        replayed = len(state.results)
        assert 2 <= replayed < 8

        cells = [chaos("ok", delay=0.4, seed=s) for s in range(8)]
        ok, fail, interrupted, runs = run_distributed(
            group_cells(cells), timeout_s=30.0, retries=1, workers=1,
            journal=journal, resume=True, src_hash="kill-test",
            preload=PRELOAD, **FAST)
        assert not fail and not interrupted
        # Journal-served results ran nothing in this call.
        assert runs == 8 - replayed
        assert sorted(r.key for r in ok) == sorted(c.key for c in cells)
        # Metrics are identical whether served from the journal or
        # recomputed — the resumed run is indistinguishable.
        for record in ok:
            assert record.metrics["value"] == float(
                record.cell.as_dict()["seed"])
        # Resuming again serves everything from the journal.
        ok2, fail2, _, runs2 = run_distributed(
            group_cells(cells), timeout_s=30.0, retries=1, workers=1,
            journal=journal, resume=True, src_hash="kill-test",
            preload=PRELOAD, **FAST)
        assert len(ok2) == 8 and not fail2 and runs2 == 0

    def test_resume_refuses_wrong_src_hash(self, tmp_path):
        journal = str(tmp_path / "run.journal")
        with journal_mod.RunJournal(journal) as handle:
            handle.record("run.start", src_hash="other-tree")
        with pytest.raises(ReproError, match="different"):
            run_distributed(group_cells([chaos("ok", seed=0)]),
                            timeout_s=5.0, retries=0, workers=0,
                            journal=journal, resume=True,
                            src_hash="this-tree")

    def test_resume_requires_existing_journal(self, tmp_path):
        with pytest.raises(ReproError, match="does not exist"):
            run_distributed(group_cells([chaos("ok", seed=0)]),
                            timeout_s=5.0, retries=0, workers=0,
                            journal=str(tmp_path / "missing.journal"),
                            resume=True)


_SIGINT_DRIVER = """\
from repro.harness.registry import Cell, group_cells
from repro.harness.dist.master import run_distributed

cells = [Cell.make("dist_chaos", mode="ok", delay=0.4, seed=s)
         for s in range(20)]
ok, fail, interrupted, _ = run_distributed(
    group_cells(cells), timeout_s=30.0, retries=1, workers=1,
    preload=["repro.harness.dist.chaos"],
    heartbeat_interval_s=0.1, heartbeat_misses=4, backoff_base=0.01,
    progress=lambda line: print("P " + line, flush=True))
print(f"DONE ok={len(ok)} fail={len(fail)} intr={interrupted}", flush=True)
"""


@posix_only
class TestDrain:
    def test_sigint_drains_with_partial_results(self, tmp_path):
        driver = tmp_path / "driver.py"
        driver.write_text(_SIGINT_DRIVER)
        proc = subprocess.Popen([sys.executable, str(driver)], env=_env(),
                                stdout=subprocess.PIPE, text=True)
        settle = re.compile(r": \d+\.\d+s")
        interrupted_sent = False
        final = ""
        deadline = time.monotonic() + 60.0
        try:
            for line in proc.stdout:
                if (not interrupted_sent and line.startswith("P ")
                        and settle.search(line)):
                    interrupted_sent = True
                    proc.send_signal(signal.SIGINT)
                if line.startswith("DONE"):
                    final = line
                    break
                assert time.monotonic() < deadline
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        assert "intr=True" in final
        done = int(final.split("ok=")[1].split()[0])
        assert 1 <= done < 20                 # partial, not all, not none

    def test_local_supervised_drain_keeps_settled_cells(self):
        # The same drain contract on the local pool (satellite 2): a
        # KeyboardInterrupt mid-sweep keeps what settled and reports
        # interrupted instead of dying with a traceback.
        cells = [Cell.make("sendbuf", cc="reno", size_kb=5, seed=0),
                 Cell.make("sendbuf", cc="vegas", size_kb=5, seed=0),
                 Cell.make("sendbuf", cc="reno", size_kb=20, seed=0)]
        fired = []

        def interrupt_once(line):
            if not fired:
                fired.append(line)
                raise KeyboardInterrupt

        ok, fail, interrupted, _ = run_supervised(
            group_cells(cells), jobs=1, timeout_s=60.0, retries=0,
            progress=interrupt_once)
        assert interrupted and not fail
        assert 1 <= len(ok) < len(cells)

    def test_serial_runner_drain_sets_interrupted(self):
        cells = [Cell.make("sendbuf", cc="reno", size_kb=5, seed=0),
                 Cell.make("sendbuf", cc="vegas", size_kb=5, seed=0)]
        fired = []

        def interrupt_once(line):
            if not fired:
                fired.append(line)
                raise KeyboardInterrupt

        report = run_cells(cells, jobs=1, progress=interrupt_once)
        assert report.interrupted
        assert 1 <= len(report.results) < len(cells)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------

class TestDistCLI:
    def test_journal_subcommand_summarizes(self, tmp_path, capsys):
        from repro import cli

        path = str(tmp_path / "run.journal")
        with journal_mod.RunJournal(path) as journal:
            journal.record("run.start", src_hash="abc123" * 8)
            journal.record("result", key="k1", metrics={"m": 1.0})
            journal.record("quarantine",
                           failure={"key": "k2", "kind": "worker-lost",
                                    "attempts": 2})
        assert cli.main(["dist", "journal", path]) == 0
        out = capsys.readouterr().out
        assert "results: 1" in out
        assert "quarantined: 1" in out
        assert "worker-lost" in out

    def test_journal_subcommand_rejects_missing_file(self, tmp_path):
        from repro import cli

        assert cli.main(["dist", "journal",
                         str(tmp_path / "nope.journal")]) == 2

    def test_run_all_rejects_journal_without_dist_backend(self, capsys):
        from repro import cli

        code = cli.main(["run-all", "--quick", "--journal", "x.journal"])
        assert code == 2
        assert "--backend dist" in capsys.readouterr().err

    def test_dist_run_resume_without_journal_is_an_error(self, capsys):
        from repro import cli

        code = cli.main(["dist", "run", "--quick",
                         "--experiments", "figure6", "--no-cache",
                         "--resume"])
        assert code == 2
        assert "--resume requires --journal" in capsys.readouterr().err
