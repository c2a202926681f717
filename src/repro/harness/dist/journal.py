"""Run journal: the master's crash-safe record of a sweep.

The master appends one JSON line per decision — run start, every
grant, every result (metrics included), every failed attempt,
quarantine, worker join/loss, and run end — flushed per line, so a
``SIGKILL``-ed master leaves a journal that is complete up to its last
whole line.

``--resume`` replays that journal: cells with a recorded ``result``
are served from the journal (and re-enter the result cache), cells
with a recorded ``quarantine`` stay quarantined, and only the
remainder is executed.  Replay composes with the content-hash cache —
whichever of the two knows a cell first wins, and both are keyed to
the source tree: a journal written by different source is refused
(the results it holds describe a different program).

A torn final line (the master died mid-write) is tolerated and
dropped; anything malformed *before* the end is an error, because it
means the file is not one of ours.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import ReproError

#: Stamped on every journal's first record.
JOURNAL_SCHEMA = "repro-dist-journal/v1"


@dataclass
class JournalState:
    """What a journal replay recovered."""

    src_hash: Optional[str] = None
    #: key -> {"metrics", "wall_clock_s", "worker", "attempts",
    #:         "attempt_log"}
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: key -> FailureRecord-shaped dict
    failures: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    records: int = 0
    truncated: bool = False       # a torn trailing line was dropped

    @property
    def settled(self) -> int:
        return len(self.results) + len(self.failures)


class RunJournal:
    """Append-only journal writer for one master run.

    Open with ``resume=True`` to append to an existing journal (the
    resume path); otherwise an existing file is refused — a journal is
    a run's history and silently appending a second run to it would
    make replay ambiguous.  Writes never raise into the master: like
    the telemetry sink, a journal that cannot be written disables
    itself after recording ``last_error``.
    """

    def __init__(self, path: str, resume: bool = False, clock=time.time):
        self.path = path
        self._clock = clock
        self.last_error: Optional[str] = None
        self.records_written = 0
        if not resume and os.path.exists(path):
            raise ReproError(
                f"journal {path!r} already exists — pass --resume to "
                "continue that run, or point --journal elsewhere")
        try:
            self._file = open(path, "a", buffering=1)
        except OSError as exc:
            self._file = None
            self.last_error = str(exc)

    @property
    def enabled(self) -> bool:
        return self._file is not None

    def record(self, rec: str, **fields: Any) -> None:
        """Append one record; never raises."""
        if self._file is None:
            return
        entry: Dict[str, Any] = {"rec": rec, "ts": self._clock()}
        if self.records_written == 0:
            entry["schema"] = JOURNAL_SCHEMA
        entry.update(fields)
        try:
            self._file.write(
                json.dumps(entry, sort_keys=True, default=str) + "\n")
            self.records_written += 1
        except (OSError, ValueError) as exc:
            self.last_error = str(exc)
            self.close()

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError as exc:  # pragma: no cover - close rarely fails
                self.last_error = str(exc)
            self._file = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def replay(path: str, src_hash: Optional[str] = None) -> JournalState:
    """Rebuild a :class:`JournalState` from a journal file.

    *src_hash*, when given, is checked against the journal's recorded
    hash: results computed from different source are refused rather
    than replayed into a sweep they do not describe.

    Later records win: a cell granted again after a lease expiry and
    finally completed has exactly one ``result`` record; a cell that
    was quarantined and (in a later resumed run) re-executed to
    success moves from ``failures`` to ``results``.
    """
    state = JournalState()
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ReproError(f"cannot read journal {path!r}: {exc}") from exc
    lines = raw.split(b"\n")
    # A file that ends mid-record has a non-empty final fragment with
    # no trailing newline; anything malformed earlier is a real error.
    tail_fragment = lines[-1]
    body = lines[:-1]
    for lineno, line in enumerate(body, 1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise ReproError(
                f"{path}:{lineno}: malformed journal record: {exc}") from exc
        if not isinstance(entry, dict) or "rec" not in entry:
            raise ReproError(
                f"{path}:{lineno}: journal record has no 'rec' field")
        state.records += 1
        rec = entry["rec"]
        if rec == "run.start":
            state.src_hash = entry.get("src_hash")
        elif rec == "result":
            key = entry["key"]
            state.results[key] = {
                "metrics": entry["metrics"],
                "wall_clock_s": entry.get("wall_clock_s", 0.0),
                "worker": entry.get("worker"),
                "attempts": entry.get("attempts", 1),
                "attempt_log": entry.get("attempt_log", []),
                "shared_with": entry.get("shared_with"),
            }
            state.failures.pop(key, None)
        elif rec == "quarantine":
            failure = entry.get("failure", {})
            key = failure.get("key")
            if key and key not in state.results:
                state.failures[key] = failure
    if tail_fragment.strip():
        state.truncated = True
    if (src_hash is not None and state.src_hash is not None
            and state.src_hash != src_hash):
        raise ReproError(
            f"journal {path!r} was written by source "
            f"{state.src_hash[:16]}..., current tree is "
            f"{src_hash[:16]}... — its results describe a different "
            "program; start a fresh journal")
    return state
