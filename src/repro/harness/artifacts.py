"""Schema-versioned JSON artifacts for harness sweeps.

The artifact is the machine-readable record of a sweep: one entry per
cell with its parameters and metrics, plus run metadata (job count,
cache accounting, wall clock).  Determinism contract: for the same
source tree and cells, the ``cells`` array is byte-identical across
``--jobs`` settings, across cached/uncached runs, **and across
execution backends** (local pool vs the distributed master) except for
the ``wall_clock_s``/``cached`` bookkeeping and the provenance fields
(v3's ``worker``/``attempts``/``attempt_log``, v4's ``shared_with``),
which is why
:func:`cells_fingerprint` — the hash CI compares — covers only the
deterministic fields.

Since v2 the document also carries a ``failures`` array — the
supervised runner's quarantine manifest (see
:mod:`repro.harness.supervisor`): one structured record per cell that
timed out, crashed, diverged or violated an invariant after its
retries were exhausted.  Failures never enter the fingerprint; they
describe what could *not* be computed.

Since v4 cells are views over run specs: a cell whose metrics were
projected from another cell's simulation records that run's leader in
``shared_with``, and its ``wall_clock_s`` is only its own projection,
so ``elapsed_s`` minus the summed cell wall clock is still the
harness overhead.  ``run.simulations`` counts the distinct specs the
sweep executed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

from repro.errors import ReproError

#: Bump on any change to the document layout or cell key format.
#: v2 added the ``failures`` section (the supervised runner's
#: quarantine manifest); v3 adds per-cell execution provenance —
#: ``worker`` (the executing distributed worker, ``null`` locally),
#: ``attempts`` and ``attempt_log`` (retry history) — plus the run's
#: ``backend`` and ``interrupted`` markers; v4 adds per-cell
#: ``shared_with`` (the leader whose simulation served the cell) and
#: the run's ``simulations`` count.  Older documents are still
#: readable; they simply predate those fields.
SCHEMA_VERSION = "repro-harness/v4"

#: Versions :func:`load_document` accepts.
COMPATIBLE_VERSIONS = ("repro-harness/v1", "repro-harness/v2",
                       "repro-harness/v3", "repro-harness/v4")


def build_document(report, mode: str, src_hash: str,
                   telemetry: str = None) -> Dict[str, Any]:
    """Render a :class:`~repro.harness.runner.RunReport` as an artifact.

    ``telemetry`` records the path of the sweep's telemetry JSONL (when
    one was written) in the run metadata, so ``repro report`` and CI
    can pair the two files.  It never enters the cells fingerprint.
    """
    cells: List[Dict[str, Any]] = []
    for result in sorted(report.results, key=lambda r: r.key):
        cells.append({
            "key": result.key,
            "experiment": result.cell.experiment,
            "params": result.cell.as_dict(),
            "metrics": dict(sorted(result.metrics.items())),
            "wall_clock_s": result.wall_clock_s,
            "cached": result.cached,
            "worker": getattr(result, "worker", None),
            "attempts": getattr(result, "attempts", 1),
            "attempt_log": list(getattr(result, "attempt_log", ()) or ()),
            "shared_with": getattr(result, "shared_with", None),
        })
    failures = [f.as_dict() for f in
                sorted(getattr(report, "failures", ()) or (),
                       key=lambda f: f.key)]
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "src_hash": src_hash,
        "run": {
            "jobs": report.jobs,
            "backend": getattr(report, "backend", "local"),
            "interrupted": getattr(report, "interrupted", False),
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "simulations": getattr(report, "simulations", 0),
            "cells": len(cells),
            "failed": len(failures),
            "elapsed_s": report.elapsed_s,
            "cell_wall_clock_s": sum(c["wall_clock_s"] for c in cells),
            "telemetry": telemetry,
        },
        "cells": cells,
        "failures": failures,
    }


def cells_fingerprint(doc: Dict[str, Any]) -> str:
    """Hash of the deterministic part of a document's cells.

    Two sweeps of the same code and grid have equal fingerprints no
    matter how many jobs ran them or what was cached.
    """
    stable = [{"key": c["key"], "experiment": c["experiment"],
               "params": c["params"], "metrics": c["metrics"]}
              for c in sorted(doc["cells"], key=lambda c: c["key"])]
    blob = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def write_document(path: str, doc: Dict[str, Any]) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_document(path: str) -> Dict[str, Any]:
    """Load and validate an artifact written by :func:`write_document`."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read harness artifact {path!r}: {exc}") from exc
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version not in COMPATIBLE_VERSIONS:
        raise ReproError(
            f"{path!r}: unsupported schema {version!r} "
            f"(expected one of {', '.join(COMPATIBLE_VERSIONS)})")
    if not isinstance(doc.get("cells"), list):
        raise ReproError(f"{path!r}: artifact has no cells array")
    if not isinstance(doc.get("failures", []), list):
        raise ReproError(f"{path!r}: artifact failures section is not a list")
    return doc
