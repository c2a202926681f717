"""The distributed sweep worker process.

One worker = one process = one lease at a time.  It connects to the
master, introduces itself with ``hello``, then loops: read a ``grant``,
run the leased group's one simulation through the exact same
:func:`~repro.harness.registry.run_group` path as every other backend,
and report every member's ``result`` or one ``fail`` using the
supervisor's failure taxonomy.  A daemon thread heartbeats on the
same socket (serialised by a lock) so the master can tell "busy on a
long cell" from "dead" — the execution thread never has to come up for
air.

The worker is deliberately expendable: it holds no state the master
cannot reconstruct.  Whatever kills it — ``SIGKILL``, ``os._exit`` in
a cell, a dropped connection — the master revokes its lease and
re-queues the cell.  On master EOF or ``shutdown`` the worker simply
exits; a result it could not deliver is recomputed elsewhere.

Spawned workers are fresh interpreters (not forks), so experiments
registered at runtime in the master's process do not exist here unless
re-imported: ``--preload mod`` imports *mod* before serving, which is
how the chaos test family (:mod:`repro.harness.dist.chaos`) and any
extension experiments reach remote workers.

Run directly::

    python -m repro.harness.dist.worker --connect HOST:PORT \
        [--worker-id ID] [--preload MODULE]...
"""

from __future__ import annotations

import argparse
import importlib
import os
import socket
import threading
import time
from typing import Any, Callable, Dict, Optional, Sequence

from repro.harness.dist import protocol
from repro.harness.registry import run_group
from repro.harness.supervisor import classify_error


def _run_grant(send: Callable[[Dict[str, Any]], None], worker_id: str,
               message: Dict[str, Any]) -> None:
    """Execute one granted group and report its outcome."""
    cells = protocol.group_from_grant(message)
    key = cells[0].key
    options = {"checks": message.get("checks", False),
               "faults": message.get("faults"),
               "watchdog": message.get("watchdog", False)}
    telemetry = message.get("telemetry")
    start = time.perf_counter()
    sink = None
    if telemetry is not None:
        from repro.obs.events import TelemetrySink

        sink = TelemetrySink(telemetry)
    try:
        if sink is None:
            outcomes = run_group(cells, **options)
        else:
            with sink.span("cell", cell=key, worker=worker_id,
                           shared=[cell.key for cell in cells[1:]]):
                outcomes = run_group(cells, telemetry=telemetry, **options)
    except BaseException as exc:  # noqa: BLE001 - taxonomy needs everything
        kind, text, detail = classify_error(exc)
        send(protocol.fail(worker_id, message["lease_id"], key,
                           kind, text, detail,
                           time.perf_counter() - start))
    else:
        (metrics, wall), *shared = outcomes
        send(protocol.result(
            worker_id, message["lease_id"], key, metrics, wall,
            shared=[(cell.key, values, seconds) for cell, (values, seconds)
                    in zip(cells[1:], shared)]))
    finally:
        if sink is not None:
            sink.close()


def serve(connect: str, worker_id: str,
          heartbeat_interval_s: float =
          protocol.DEFAULT_HEARTBEAT_INTERVAL_S,
          preload: Sequence[str] = ()) -> None:
    """Connect to the master at ``host:port`` and serve until shutdown."""
    for module in preload:
        importlib.import_module(module)
    host, _, port = connect.rpartition(":")
    sock = socket.create_connection((host or "127.0.0.1", int(port)))
    reader = sock.makefile("rb")
    write_lock = threading.Lock()

    def send(message: Dict[str, Any]) -> None:
        data = protocol.encode(message)
        with write_lock:
            sock.sendall(data)

    send(protocol.hello(worker_id, os.getpid(), socket.gethostname()))
    stop = threading.Event()

    def beat() -> None:
        seq = 0
        while not stop.wait(heartbeat_interval_s):
            seq += 1
            try:
                send(protocol.heartbeat(worker_id, seq))
            except OSError:
                return             # master gone; main loop sees EOF
    threading.Thread(target=beat, daemon=True,
                     name=f"{worker_id}-heartbeat").start()
    try:
        while True:
            line = reader.readline()
            if not line:
                break              # master gone
            message = protocol.decode(line)
            if message["type"] == "shutdown":
                break
            if message["type"] == "grant":
                _run_grant(send, worker_id, message)
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:  # pragma: no cover - close rarely fails
            pass


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.dist.worker",
        description="Worker process of the distributed sweep backend.")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="master address to attach to")
    parser.add_argument("--worker-id", default=None,
                        help="identity announced to the master "
                        "(default: pid-derived)")
    parser.add_argument("--heartbeat", type=float,
                        default=protocol.DEFAULT_HEARTBEAT_INTERVAL_S,
                        metavar="SECONDS", help="heartbeat interval")
    parser.add_argument("--preload", action="append", default=[],
                        metavar="MODULE",
                        help="import MODULE before serving (repeatable); "
                        "how runtime-registered experiments reach a "
                        "spawned worker")
    args = parser.parse_args(argv)
    worker_id = args.worker_id or f"pid{os.getpid()}"
    serve(args.connect, worker_id, heartbeat_interval_s=args.heartbeat,
          preload=args.preload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
