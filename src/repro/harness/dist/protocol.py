"""Wire protocol of the distributed sweep backend.

Masters and workers speak newline-delimited JSON over a byte stream
(a TCP socket in practice): one message per line, every message a flat
object carrying a ``type`` field.  The format is deliberately boring —
debuggable with ``nc`` and greppable in a journal — and versioned so a
stale worker from an older checkout is rejected at handshake instead
of corrupting a sweep.

Message types
-------------

Worker -> master:

``hello``       first message after connect: ``worker_id``, ``pid``,
                ``host``, and the protocol ``version``.
``heartbeat``   periodic liveness beacon (``seq`` monotonically
                increasing).  A worker that misses enough beats is
                declared dead and its leases are revoked.
``result``      a completed cell: ``lease_id``, ``key``, ``metrics``,
                ``wall_clock_s``, plus ``shared``: the same three
                fields for every other member of the leased group.
``fail``        a cell whose execution raised: ``lease_id``, ``key``,
                plus the supervisor taxonomy fields ``kind`` /
                ``message`` / ``detail`` and ``wall_clock_s``.

Master -> worker:

``grant``       a lease: the leading cell (``experiment`` +
                ``params``), the other cells that share its run
                (``shared``: ``experiment`` + ``params`` + ``key``
                each), the ``lease_id``, the ``attempt`` number, the
                lease ``budget_s``, and the run configuration the
                worker must apply (``checks``/``faults``/
                ``watchdog``/``telemetry``).
``shutdown``    no more work (or an immediate drain): exit now.

Cells cross the wire as ``(experiment, params)`` and are rebuilt with
:meth:`repro.harness.registry.Cell.make`, so a grant round-trips to
the exact same cell keys the master leased.  A lease covers one
simulation: the group of cells sharing a run spec (see
:func:`repro.harness.registry.group_cells`), led by its first cell.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.harness.registry import Cell

#: Bump on any incompatible message change; checked at ``hello``.
PROTOCOL_VERSION = "repro-dist/v2"

#: Seconds between worker heartbeats.
DEFAULT_HEARTBEAT_INTERVAL_S = 0.5

#: Missed beats before a worker is declared dead.
DEFAULT_HEARTBEAT_MISSES = 6

#: Grace the master adds on top of a cell's budget when sizing its
#: lease: result messages need time to cross the wire, and a worker
#: importing heavy experiment modules pays a one-off warmup.
DEFAULT_LEASE_GRACE_S = 5.0


class ProtocolError(ReproError):
    """A malformed or out-of-order message on a dist connection."""


def encode(message: Dict[str, Any]) -> bytes:
    """Serialize one message to its wire form (one line, ``\\n``).

    ``default=str`` keeps failure ``detail`` payloads (which may carry
    arbitrary diagnostic objects) wire-safe rather than crashing the
    reporting path.
    """
    return (json.dumps(message, sort_keys=True, separators=(",", ":"),
                       default=str) + "\n").encode()


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a message dict, validating shape."""
    try:
        message = json.loads(line.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed dist message: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(
            f"dist message has no 'type' field: {message!r}")
    return message


# ----------------------------------------------------------------------
# Message constructors: one function per type keeps field names in one
# place for both ends of the wire.
# ----------------------------------------------------------------------

def hello(worker_id: str, pid: int, host: str = "") -> Dict[str, Any]:
    return {"type": "hello", "version": PROTOCOL_VERSION,
            "worker_id": worker_id, "pid": pid, "host": host}


def heartbeat(worker_id: str, seq: int) -> Dict[str, Any]:
    return {"type": "heartbeat", "worker_id": worker_id, "seq": seq}


def _wire_cell(cell: Cell) -> Dict[str, Any]:
    return {"experiment": cell.experiment, "params": cell.as_dict(),
            "key": cell.key}


def grant(lease_id: str, cell: Cell, attempt: int,
          budget_s: Optional[float], checks: Any = False,
          faults: Optional[str] = None, watchdog: Any = False,
          telemetry: Optional[str] = None,
          shared: Sequence[Cell] = ()) -> Dict[str, Any]:
    return dict(_wire_cell(cell), type="grant", lease_id=lease_id,
                attempt=attempt, budget_s=budget_s, checks=checks,
                faults=faults, watchdog=watchdog, telemetry=telemetry,
                shared=[_wire_cell(member) for member in shared])


def result(worker_id: str, lease_id: str, key: str,
           metrics: Dict[str, float], wall_clock_s: float,
           shared: Sequence[Tuple[str, Dict[str, float], float]] = (),
           ) -> Dict[str, Any]:
    return {"type": "result", "worker_id": worker_id, "lease_id": lease_id,
            "key": key, "metrics": metrics, "wall_clock_s": wall_clock_s,
            "shared": [{"key": member, "metrics": values,
                        "wall_clock_s": wall}
                       for member, values, wall in shared]}


def fail(worker_id: str, lease_id: str, key: str, kind: str,
         message: str, detail: Dict[str, Any],
         wall_clock_s: float) -> Dict[str, Any]:
    return {"type": "fail", "worker_id": worker_id, "lease_id": lease_id,
            "key": key, "kind": kind, "message": message, "detail": detail,
            "wall_clock_s": wall_clock_s}


def shutdown(reason: str = "done") -> Dict[str, Any]:
    return {"type": "shutdown", "reason": reason}


def cell_from_grant(message: Dict[str, Any]) -> Cell:
    """Rebuild the leased cell from a ``grant`` message.

    Verifies the round-tripped key matches what the master leased —
    a mismatch means JSON mangled a parameter value (or the two ends
    run different registry code) and the result could be filed under
    the wrong cache key.
    """
    cell = Cell.make(message["experiment"], **message["params"])
    if cell.key != message["key"]:
        raise ProtocolError(
            f"grant round-trip changed the cell key: leased "
            f"{message['key']!r}, rebuilt {cell.key!r}")
    return cell


def group_from_grant(message: Dict[str, Any]) -> Tuple[Cell, ...]:
    """Rebuild every cell a ``grant`` covers, leader first."""
    return tuple(cell_from_grant(entry)
                 for entry in [message, *message.get("shared", ())])


def outcomes_from_result(message: Dict[str, Any], cells: Sequence[Cell],
                         ) -> List[Tuple[Dict[str, float], float]]:
    """Each member's ``(metrics, seconds)`` from a ``result``, in order.

    The keys must be the leased group's: a result for other cells
    could otherwise be filed under the wrong cache keys.
    """
    entries = [message, *message.get("shared", ())]
    keys = [entry["key"] for entry in entries]
    if keys != [cell.key for cell in cells]:
        raise ProtocolError(
            f"result covers {keys!r}, lease covers "
            f"{[cell.key for cell in cells]!r}")
    return [(entry["metrics"], entry["wall_clock_s"]) for entry in entries]


def check_hello(message: Dict[str, Any]) -> str:
    """Validate a ``hello`` and return the worker id."""
    if message.get("type") != "hello":
        raise ProtocolError(
            f"expected hello, got {message.get('type')!r}")
    version = message.get("version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"worker speaks {version!r}, master speaks "
            f"{PROTOCOL_VERSION!r} — mixed checkouts?")
    worker_id = message.get("worker_id")
    if not isinstance(worker_id, str) or not worker_id:
        raise ProtocolError(f"hello carries no worker_id: {message!r}")
    return worker_id
