"""Parallel experiment harness.

The paper's evaluation is a grid: every table and figure is a mean
over independent simulation runs — ``(experiment, protocol, buffers,
delay, seed, ...)`` combinations that share nothing but code.  This
package decomposes each experiment into those **cells** and runs them
through one pipeline:

- :mod:`repro.harness.registry` — the scenario registry: every
  experiment's quick/full grids as :class:`~repro.harness.registry.Cell`
  objects with stable string keys, each a view over the
  :class:`~repro.harness.registry.RunSpec` of the simulation it needs.
- :mod:`repro.harness.runner` — groups the cells to compute by run
  spec and executes one simulation per group, serially or on a
  ``multiprocessing`` pool; results are bit-identical either way
  because each run builds its own :class:`~repro.sim.engine.Simulator`
  from its own seed.
- :mod:`repro.harness.supervisor` — supervised execution: per-cell
  wall-clock deadlines, crash quarantine, deterministic retries, and
  the failure manifest that lets a sweep survive pathological cells.
- :mod:`repro.harness.cache` — an on-disk result cache under
  ``.repro-cache/`` keyed by cell key plus a content hash of
  ``src/repro``, so unchanged code never re-simulates.
- :mod:`repro.harness.artifacts` — schema-versioned JSON documents of
  every cell's metrics.
- :mod:`repro.harness.dist` — the fault-tolerant distributed backend:
  lease-based work assignment over worker processes, heartbeats,
  journal + resume, graceful degradation to the local pool.
- :mod:`repro.harness.check` — the regression gate CI runs against
  ``baselines/expected.json``.
- :mod:`repro.harness.aggregate` — re-assembles cells into the
  paper-style tables the individual CLI subcommands print.

The CLI front end is ``python -m repro.cli run-all``.
"""

from repro.harness.artifacts import (
    SCHEMA_VERSION,
    build_document,
    cells_fingerprint,
    load_document,
    write_document,
)
from repro.harness.cache import ResultCache, compute_src_hash
from repro.harness.registry import (
    Cell,
    RunSpec,
    View,
    all_cells,
    cell_budget,
    cell_spec,
    cells_for,
    group_cells,
    register_experiment,
    register_scenario,
    register_timeout_hint,
    run_cell,
    run_group,
    timeout_hint,
    unregister_experiment,
    unregister_scenario,
)
from repro.harness.runner import CellResult, RunReport, run_cells
from repro.harness.supervisor import (
    FAILURE_KINDS,
    FailureRecord,
    SuccessRecord,
    retry_backoff,
    run_supervised,
)

__all__ = [
    "FAILURE_KINDS",
    "SCHEMA_VERSION",
    "Cell",
    "CellResult",
    "FailureRecord",
    "ResultCache",
    "RunReport",
    "RunSpec",
    "SuccessRecord",
    "View",
    "all_cells",
    "build_document",
    "cell_budget",
    "cell_spec",
    "cells_fingerprint",
    "cells_for",
    "compute_src_hash",
    "group_cells",
    "load_document",
    "register_experiment",
    "register_scenario",
    "register_timeout_hint",
    "retry_backoff",
    "run_cell",
    "run_cells",
    "run_group",
    "run_supervised",
    "timeout_hint",
    "unregister_experiment",
    "unregister_scenario",
    "write_document",
]
