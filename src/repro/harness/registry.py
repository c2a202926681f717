"""Scenario registry: every paper artifact decomposed into cells.

A **cell** is one grid point of the evaluation — the atom of caching,
artifacts and the regression baseline.  ``table2`` is 27 cells (3
protocols x 3 buffer counts x 3 seeds); ``figure7`` is a single
traced run.  Cells carry a stable string key
(``table2/buffers=10/proto=reno/seed=0``), so the key format is a
compatibility contract: changing it invalidates every cached and
committed result.

A cell is a *view* over a **run spec** (:class:`RunSpec`): the frozen,
hashable description of the simulation it needs.  Each experiment
registers a grid (quick and full variants) and a :class:`View` — a
pure ``spec(params)`` and a ``project(result, params)`` returning a
flat ``{metric: number}`` dict.  Different cells often need the same
simulation (Figure 9 is a Table 2 run; Figure 6 is the 50 KB sendbuf
run), so a sweep partitions its cells with :func:`group_cells` and
runs each spec once (:func:`run_group`).  Seeds are part of the cell
parameters — never derived from worker identity — which is what makes
``--jobs 1`` and ``--jobs N`` bit-identical by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError

#: Metric key every runner gets for free (see :func:`run_cell`).
EVENTS_METRIC = "events_processed"


def _fmt(value: Any) -> str:
    """Render one parameter value for a cell key, stably."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


@dataclass(frozen=True)
class Cell:
    """One grid point: an experiment name plus its parameters.

    ``params`` is a key-sorted tuple of pairs so cells are hashable,
    picklable, and render to the same key however they were built.
    """

    experiment: str
    params: Tuple[Tuple[str, Any], ...]

    @classmethod
    def make(cls, experiment: str, **params: Any) -> "Cell":
        return cls(experiment, tuple(sorted(params.items())))

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def key(self) -> str:
        parts = [self.experiment]
        parts.extend(f"{k}={_fmt(v)}" for k, v in self.params)
        return "/".join(parts)

    def __str__(self) -> str:
        return self.key


# ----------------------------------------------------------------------
# Run specs: one per distinct simulation.  Every experiment is a *view*
# over them — a spec function naming the simulation a cell needs and a
# projection reading the cell's metrics off that simulation's result —
# so cells that need the same simulation share one run.  Imports are
# deferred so pool workers only load what their cells use.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One distinct simulation: everything its outcome depends on.

    ``scenario`` names the simulation function (see
    :func:`register_scenario`); ``ccs`` are its congestion controls in
    canonical spelling (:func:`repro.core.registry.canonical_name`, so
    ``vegas`` and ``vegas-2,4`` are one protocol); ``shape`` holds any
    further scenario parameters as sorted pairs.  Cells with equal
    specs run the same simulation whatever their experiments call
    them: ``figure9/seed=0``,
    ``table2/buffers=10/proto=vegas-2,4/seed=0`` and
    ``table3/background=reno/buffers=10/seed=0/transfer=vegas`` are
    one run.
    """

    scenario: str
    ccs: Tuple[str, ...] = ()
    buffers: Optional[int] = None
    sndbuf: Optional[int] = None
    seed: int = 0
    two_way: bool = False
    shape: Tuple[Tuple[str, Any], ...] = ()


@dataclass(frozen=True)
class View:
    """How one experiment reads its cells off run specs.

    ``spec(**params)`` is pure: it names the simulation a cell needs.
    ``project(result, **params)`` turns that simulation's result into
    a fresh flat metrics dict.  ``traced`` asks for the run to carry a
    connection tracer; tracing never changes a run, so a traced and an
    untraced cell of one spec still share it.
    """

    spec: Callable[..., RunSpec]
    project: Callable[..., Dict[str, float]]
    traced: bool = False


def _canon(*names: str) -> Tuple[str, ...]:
    from repro.core.registry import canonical_name

    return tuple(canonical_name(name) for name in names)


# Scenarios: spec -> result.  ``traced`` arms a ConnectionTracer on the
# measured transfer; the result then carries it.

def _simulate_solo(spec: RunSpec, traced: bool):
    from repro.experiments.transfers import run_solo_transfer
    from repro.trace.tracer import ConnectionTracer

    (cc,) = spec.ccs
    tracer = ConnectionTracer(cc) if traced else None
    result = run_solo_transfer(cc, buffers=spec.buffers, seed=spec.seed,
                               sndbuf=spec.sndbuf, tracer=tracer)
    return tracer, result


def _simulate_background(spec: RunSpec, traced: bool):
    from repro.experiments.background import run_with_background
    from repro.trace.tracer import ConnectionTracer

    transfer, background = spec.ccs
    tracer = ConnectionTracer(transfer) if traced else None
    run = run_with_background(transfer, background_cc=background,
                              buffers=spec.buffers, seed=spec.seed,
                              two_way=spec.two_way, tracer=tracer)
    return tracer, run


def _simulate_internet(spec: RunSpec, traced: bool):
    from repro.experiments.internet import run_internet_transfer

    (cc,) = spec.ccs
    return run_internet_transfer(cc, size=dict(spec.shape)["size"],
                                 seed=spec.seed)


# Specs: cell params -> RunSpec.

def _solo_spec(cc: str, seed: int, size_kb: Optional[int] = None) -> RunSpec:
    from repro.experiments import defaults as DFLT
    from repro.units import kb

    sndbuf = DFLT.SOCKBUF if size_kb is None else kb(size_kb)
    return RunSpec("solo", _canon(cc), buffers=DFLT.DEFAULT_BUFFERS,
                   sndbuf=sndbuf, seed=seed)


def _background_spec(transfer: str, background: str, buffers: int,
                     seed: int, two_way: bool = False) -> RunSpec:
    return RunSpec("background", _canon(transfer, background),
                   buffers=buffers, seed=seed, two_way=two_way)


def _internet_spec(proto: str, seed: int, size_kb: int = 1024) -> RunSpec:
    from repro.units import kb

    return RunSpec("internet", _canon(proto), seed=seed,
                   shape=(("size", kb(size_kb)),))


def _table2_spec(proto: str, buffers: int, seed: int) -> RunSpec:
    return _background_spec(proto, "reno", buffers, seed)


def _twoway_spec(proto: str, buffers: int, seed: int) -> RunSpec:
    return _background_spec(proto, "reno", buffers, seed, two_way=True)


def _figure6_spec(seed: int) -> RunSpec:
    return _solo_spec("reno", seed)


def _figure7_spec(seed: int) -> RunSpec:
    return _solo_spec("vegas", seed)


def _figure9_spec(seed: int) -> RunSpec:
    from repro.experiments.defaults import DEFAULT_BUFFERS

    return _background_spec("vegas", "reno", DEFAULT_BUFFERS, seed)


# Projections: (result, **params) -> metrics.

def _transfer_metrics(result) -> Dict[str, float]:
    return {
        "throughput_kbps": result.throughput_kbps,
        "retransmit_kb": result.retransmitted_kb,
        "coarse_timeouts": result.coarse_timeouts,
    }


def _traced_metrics(tracer, result) -> Dict[str, float]:
    from repro.trace.series import loss_lines

    # TraceGraph.losses() without building the other panels.
    metrics = _transfer_metrics(result)
    metrics["segments_lost"] = len(loss_lines(tracer))
    return metrics


def _table2_metrics(result, **params) -> Dict[str, float]:
    _, run = result
    metrics = _transfer_metrics(run.transfer)
    metrics["background_throughput_kbps"] = run.background_throughput_kbps
    return metrics


def _table3_metrics(result, **params) -> Dict[str, float]:
    _, run = result
    return {
        "background_throughput_kbps": run.background_throughput_kbps,
        "transfer_throughput_kbps": run.transfer.throughput_kbps,
    }


def _twoway_metrics(result, **params) -> Dict[str, float]:
    return _transfer_metrics(result[1].transfer)


def _figure9_metrics(result, **params) -> Dict[str, float]:
    tracer, run = result
    return _traced_metrics(tracer, run.transfer)


def _figure_metrics(result, **params) -> Dict[str, float]:
    return _traced_metrics(*result)


def _solo_metrics(result, **params) -> Dict[str, float]:
    return _transfer_metrics(result[1])


def _internet_metrics(result, **params) -> Dict[str, float]:
    return _transfer_metrics(result)


# Runners that already return flat metrics, and runtime-registered
# ones, are *opaque* views: their own scenario keyed by every cell
# parameter, so they never share a run with another experiment.

def _table1_cell(small: str, large: str, buffers: int, delay: float,
                 seed: int) -> Dict[str, float]:
    from repro.experiments.one_on_one import run_one_on_one

    result = run_one_on_one(small, large, delay, buffers, seed=seed)
    return {
        "small_throughput_kbps": result.small.throughput_kbps,
        "small_retransmit_kb": result.small.retransmitted_kb,
        "small_coarse_timeouts": result.small.coarse_timeouts,
        "large_throughput_kbps": result.large.throughput_kbps,
        "large_retransmit_kb": result.large.retransmitted_kb,
        "large_coarse_timeouts": result.large.coarse_timeouts,
    }


def _fairness_cell(cc: str, count: int, mixed: bool,
                   seed: int) -> Dict[str, float]:
    from repro.experiments.fairness_exp import run_competing_connections
    from repro.units import kb, mb

    # The CLI's grid: 2 MB transfers for 2/4 connections, 512 KB for 16.
    size = mb(2) if count <= 4 else kb(512)
    result = run_competing_connections(cc, count, transfer_bytes=size,
                                       mixed_delays=mixed, buffers=20,
                                       seed=seed)
    return {
        "fairness_index": result.fairness_index,
        "aggregate_throughput_kbps": result.aggregate_throughput,
        "retransmit_kb": result.total_retransmit_kb,
        "coarse_timeouts": result.coarse_timeouts,
    }


def _telnet_cell(cc: str, seed: int) -> Dict[str, float]:
    from repro.experiments.telnet_response import run_telnet_response

    result = run_telnet_response(cc, seed=seed, arrival_mean=0.22,
                                 duration=120.0)
    return {
        "mean_response_s": result.mean,
        "median_response_s": result.median,
        "p95_response_s": result.p95,
        "n_samples": len(result.samples),
    }


def _many_flows_cell(flows: int, seed: int) -> Dict[str, float]:
    from repro.experiments.many_flows import many_flows_metrics

    return many_flows_metrics(flows, seed)


# Arena matchup cells (see repro.arena): registered as built-in views
# so worker processes resolve them by name under any multiprocessing
# start method, but with *no* fixed grid — their cells come from the
# parameterized ``arena`` family (family_cells) instead of the run-all
# sweep.

def _arena_solo_cell(scheme: str, scenario: str, seed: int) -> Dict[str, float]:
    from repro.arena.cells import arena_solo

    return arena_solo(scheme, scenario, seed)


def _arena_duel_cell(a: str, b: str, scenario: str,
                     seed: int) -> Dict[str, float]:
    from repro.arena.cells import arena_duel

    return arena_duel(a, b, scenario, seed)


def _arena_mix_cell(scheme: str, cross: str, n_cross: int, scenario: str,
                    seed: int) -> Dict[str, float]:
    from repro.arena.cells import arena_mix

    return arena_mix(scheme, cross, n_cross, scenario, seed)


def _search_cohort_cell(schemes: str, bw_kbps: float, delay_ms: float,
                        buffers: int, size_kb: int, loss: float,
                        seed: int) -> Dict[str, float]:
    from repro.search.cells import run_search_cohort

    return run_search_cohort(schemes=schemes, bw_kbps=bw_kbps,
                             delay_ms=delay_ms, buffers=buffers,
                             size_kb=size_kb, loss=loss, seed=seed)


def _opaque(name: str, runner: Callable[..., Dict[str, float]]) -> View:
    """Register *runner* as scenario *name*; return its view."""
    _SCENARIOS[name] = lambda spec, traced: runner(**dict(spec.shape))
    return View(spec=lambda **params: RunSpec(
                    name, shape=tuple(sorted(params.items()))),
                project=lambda result, **params: dict(result))


#: scenario name -> simulate(spec, traced) -> result.
_SCENARIOS: Dict[str, Callable[[RunSpec, bool], Any]] = {
    "solo": _simulate_solo,
    "background": _simulate_background,
    "internet": _simulate_internet,
}

_VIEWS: Dict[str, View] = {
    "table1": _opaque("table1", _table1_cell),
    "table2": View(_table2_spec, _table2_metrics),
    "table3": View(_background_spec, _table3_metrics),
    "table4": View(_internet_spec, _internet_metrics),
    "table5": View(_internet_spec, _internet_metrics),
    "figure6": View(_figure6_spec, _figure_metrics, traced=True),
    "figure7": View(_figure7_spec, _figure_metrics, traced=True),
    "figure9": View(_figure9_spec, _figure9_metrics, traced=True),
    "sendbuf": View(_solo_spec, _solo_metrics),
    "fairness": _opaque("fairness", _fairness_cell),
    "twoway": View(_twoway_spec, _twoway_metrics),
    "telnet": _opaque("telnet", _telnet_cell),
    "many_flows": _opaque("many_flows", _many_flows_cell),
    "arena_solo": _opaque("arena_solo", _arena_solo_cell),
    "arena_duel": _opaque("arena_duel", _arena_duel_cell),
    "arena_mix": _opaque("arena_mix", _arena_mix_cell),
    "search_cohort": _opaque("search_cohort", _search_cohort_cell),
}


# ----------------------------------------------------------------------
# Grids: the quick/full parameter sweeps, mirroring the CLI defaults.
# ----------------------------------------------------------------------

_TABLE1_COMBOS = (("reno", "reno"), ("reno", "vegas"),
                  ("vegas", "reno"), ("vegas", "vegas"))
_TABLE2_PROTOCOLS = ("reno", "vegas-1,3", "vegas-2,4")


def _table1_grid(quick: bool) -> List[Cell]:
    delays = (0.0, 1.0, 2.0) if quick else (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
    buffers = (15, 20)
    cells = []
    for small, large in _TABLE1_COMBOS:
        # Seeds follow the serial driver: one run index per
        # (buffers, delay) grid point, restarting per combo.
        run_index = 0
        for nbuf in buffers:
            for delay in delays:
                cells.append(Cell.make("table1", small=small, large=large,
                                       buffers=nbuf, delay=delay,
                                       seed=run_index))
                run_index += 1
    return cells


def _table2_grid(quick: bool) -> List[Cell]:
    buffers = (10,) if quick else (10, 15, 20)
    seeds = (0,) if quick else (0, 1, 2)
    return [Cell.make("table2", proto=proto, buffers=nbuf, seed=seed)
            for proto in _TABLE2_PROTOCOLS
            for nbuf in buffers for seed in seeds]


def _table3_grid(quick: bool) -> List[Cell]:
    buffers = (10,) if quick else (10, 15, 20)
    seeds = (0,) if quick else (0, 1, 2)
    return [Cell.make("table3", background=bg, transfer=xfer,
                      buffers=nbuf, seed=seed)
            for bg in ("reno", "vegas") for xfer in ("reno", "vegas")
            for nbuf in buffers for seed in seeds]


def _table4_grid(quick: bool) -> List[Cell]:
    seeds = (0, 1) if quick else (0, 1, 2)
    return [Cell.make("table4", proto=proto, seed=seed)
            for proto in _TABLE2_PROTOCOLS for seed in seeds]


def _table5_grid(quick: bool) -> List[Cell]:
    sizes = (512, 128) if quick else (1024, 512, 128)
    seeds = (0, 1) if quick else (0, 1, 2)
    return [Cell.make("table5", proto=proto, size_kb=size, seed=seed)
            for size in sizes for proto in ("reno", "vegas-1,3")
            for seed in seeds]


def _figure_grid(name: str):
    def grid(quick: bool) -> List[Cell]:
        return [Cell.make(name, seed=0)]
    return grid


def _sendbuf_grid(quick: bool) -> List[Cell]:
    sizes = (5, 20, 50) if quick else (5, 10, 15, 20, 30, 40, 50)
    return [Cell.make("sendbuf", cc=cc, size_kb=size, seed=0)
            for cc in ("reno", "vegas") for size in sizes]


def _fairness_grid(quick: bool) -> List[Cell]:
    counts = (2, 16) if quick else (2, 4, 16)
    return [Cell.make("fairness", cc=cc, count=count, mixed=mixed, seed=0)
            for count in counts for cc in ("reno", "vegas")
            for mixed in (False, True)]


def _twoway_grid(quick: bool) -> List[Cell]:
    buffers = (10,) if quick else (10, 15, 20)
    seeds = (0,) if quick else (0, 1, 2)
    return [Cell.make("twoway", proto=proto, buffers=nbuf, seed=seed)
            for proto in ("reno", "vegas")
            for nbuf in buffers for seed in seeds]


def _telnet_grid(quick: bool) -> List[Cell]:
    seeds = (0,) if quick else (0, 1, 2)
    return [Cell.make("telnet", cc=cc, seed=seed)
            for cc in ("reno", "vegas") for seed in seeds]


_GRIDS: Dict[str, Callable[[bool], List[Cell]]] = {
    "table1": _table1_grid,
    "table2": _table2_grid,
    "table3": _table3_grid,
    "table4": _table4_grid,
    "table5": _table5_grid,
    "figure6": _figure_grid("figure6"),
    "figure7": _figure_grid("figure7"),
    "figure9": _figure_grid("figure9"),
    "sendbuf": _sendbuf_grid,
    "fairness": _fairness_grid,
    "twoway": _twoway_grid,
    "telnet": _telnet_grid,
}

#: Registry order — also the order ``run-all`` reports experiments in.
EXPERIMENTS: Tuple[str, ...] = tuple(_GRIDS)


# ----------------------------------------------------------------------
# Cell families: parameterized grids generated from selection
# arguments (scheme/scenario/seed subsets), unlike the fixed quick/full
# experiment grids above.  A family's cells run through the same
# supervised runner/cache/quarantine pipeline as any sweep cell.
# ----------------------------------------------------------------------

def _arena_family(**selection) -> List[Cell]:
    from repro.arena.matrix import generate_matrix

    return generate_matrix(**selection)


def _many_flows_family(flows=None, seeds=(0,)) -> List[Cell]:
    from repro.experiments.many_flows import BENCH_FLOW_COUNTS

    counts = BENCH_FLOW_COUNTS if flows is None else tuple(flows)
    return [Cell.make("many_flows", flows=n, seed=seed)
            for n in counts for seed in seeds]


def _search_family(objective: str = "vegas_regret", count: int = 4,
                   seed: int = 0, quick: bool = False) -> List[Cell]:
    from repro.search.driver import family_preview_cells

    return family_preview_cells(objective, count=count, seed=seed,
                                quick=quick)


_FAMILIES: Dict[str, Callable[..., List[Cell]]] = {
    "arena": _arena_family,
    "many_flows": _many_flows_family,
    "search": _search_family,
}


def families() -> List[str]:
    """Sorted list of registered cell-family names."""
    return sorted(_FAMILIES)


def register_family(name: str,
                    generator: Callable[..., List[Cell]]) -> None:
    """Register a parameterized cell family at runtime."""
    if name in _FAMILIES:
        raise ReproError(f"cell family {name!r} is already registered")
    _FAMILIES[name] = generator


def family_cells(name: str, **selection: Any) -> List[Cell]:
    """Generate one family's cells from keyword selection arguments."""
    try:
        generator = _FAMILIES[name]
    except KeyError:
        known = ", ".join(families())
        raise ReproError(
            f"unknown cell family {name!r} (known: {known})") from None
    return generator(**selection)


# ----------------------------------------------------------------------
# Per-cell timeout hints: experiments whose cells need more wall clock
# than the global supervised deadline declare their own budget here, so
# a nightly sweep never needs a global ``--timeout`` bump just because
# one family is slow — and the distributed master sizes leases per cell.
# ----------------------------------------------------------------------

#: experiment -> float seconds, or callable(params dict) -> seconds.
_TIMEOUT_HINTS: Dict[str, Any] = {}


def register_timeout_hint(experiment: str, hint: Any) -> None:
    """Declare a per-cell wall-clock budget for one experiment.

    *hint* is either a float (seconds) or a callable taking the cell's
    params dict and returning seconds — e.g. ``many_flows`` scales its
    budget with the flow count.  Hints only ever *raise* the effective
    deadline (see :func:`cell_budget`); they can never shrink it below
    the sweep-wide timeout.  Re-registering replaces the prior hint.
    """
    _TIMEOUT_HINTS[experiment] = hint


def timeout_hint(cell: Cell) -> Optional[float]:
    """The declared budget of *cell* in seconds, or ``None``.

    Hints are validated here, at use time, because a callable hint only
    misbehaves once it sees a concrete params dict — and the supervisor
    and dist master both call this mid-sweep, where a raw ``TypeError``
    or a NaN deadline would otherwise surface as an opaque crash.
    """
    hint = _TIMEOUT_HINTS.get(cell.experiment)
    if hint is None:
        return None
    if callable(hint):
        try:
            value = hint(cell.as_dict())
        except Exception as exc:
            raise ReproError(
                f"timeout hint for experiment {cell.experiment!r} raised "
                f"{type(exc).__name__} on cell {cell.key!r}: {exc}") from exc
    else:
        value = hint
    if value is None:
        return None
    try:
        seconds = float(value)
    except (TypeError, ValueError) as exc:
        raise ReproError(
            f"timeout hint for experiment {cell.experiment!r} returned "
            f"non-numeric budget {value!r} for cell {cell.key!r}") from exc
    if math.isnan(seconds) or seconds <= 0:
        raise ReproError(
            f"timeout hint for experiment {cell.experiment!r} returned "
            f"invalid budget {seconds!r} for cell {cell.key!r} "
            f"(must be a positive number of seconds)")
    return seconds


def cell_budget(cell: Cell,
                timeout_s: Optional[float]) -> Optional[float]:
    """Effective supervised deadline for *cell*.

    ``None`` (unsupervised / no deadline) passes through.  Otherwise
    the budget is the *larger* of the sweep-wide ``timeout_s`` and the
    cell's registered hint: a hint widens slow families without letting
    a forgotten registration silently shrink anyone's deadline.
    """
    if timeout_s is None:
        return None
    hint = timeout_hint(cell)
    if hint is None:
        return timeout_s
    return max(timeout_s, hint)


# The 500/1,000-conversation cells legitimately run for minutes; size
# their deadline with the population instead of bumping every sweep's
# global timeout (quick cells keep the tight default).
register_timeout_hint(
    "many_flows", lambda params: max(180.0, 1.2 * params.get("flows", 0)))

# Search points range over arbitrary cohort sizes and horizons; give
# each flow a generous slice so a slow corner of the space quarantines
# on its own merits rather than on the sweep-wide default.
register_timeout_hint(
    "search_cohort",
    lambda params: max(150.0,
                       30.0 * len(str(params.get("schemes", "")).split("+"))))


def register_experiment(name: str,
                        runner: Optional[Callable[..., Dict[str, float]]] = None,
                        grid: Optional[Callable[[bool], List[Cell]]] = None,
                        view: Optional[View] = None) -> None:
    """Register an extra experiment at runtime.

    Used by extension code and the supervisor test-suite to add cells
    beyond the paper's grids.  Give exactly one of *runner* — a
    callable taking the cell's params and returning flat metrics; its
    cells are opaque and never share a run — or *view*, a spec and a
    projection over a registered scenario (see
    :func:`register_scenario`), whose cells share a run with every
    cell of the same spec.  *grid*, when given, makes the experiment
    part of :func:`all_cells` sweeps.  Worker processes see runtime
    registrations only under the ``fork`` start method — the
    supervised runner's default on POSIX.
    """
    global EXPERIMENTS
    if (runner is None) == (view is None):
        raise ReproError(f"experiment {name!r} needs exactly one of a "
                         "runner or a view")
    if name in _VIEWS:
        raise ReproError(f"experiment {name!r} is already registered")
    if runner is not None:
        if name in _SCENARIOS:
            raise ReproError(f"scenario {name!r} is already registered")
        view = _opaque(name, runner)
        _OPAQUE.add(name)
    _VIEWS[name] = view
    if grid is not None:
        _GRIDS[name] = grid
        EXPERIMENTS = tuple(_GRIDS)


def unregister_experiment(name: str) -> None:
    """Remove a runtime registration (idempotent; built-ins protected)."""
    global EXPERIMENTS
    if name in _BUILTIN_EXPERIMENTS:
        raise ReproError(f"cannot unregister built-in experiment {name!r}")
    _VIEWS.pop(name, None)
    if name in _OPAQUE:
        _OPAQUE.discard(name)
        _SCENARIOS.pop(name, None)
    _TIMEOUT_HINTS.pop(name, None)
    if _GRIDS.pop(name, None) is not None:
        EXPERIMENTS = tuple(_GRIDS)


def register_scenario(name: str,
                      simulate: Callable[[RunSpec, bool], Any]) -> None:
    """Register a simulation function for ``RunSpec(scenario=name)``.

    ``simulate(spec, traced)`` runs the simulation *spec* describes
    and returns whatever the projections of its views read.
    """
    if name in _SCENARIOS:
        raise ReproError(f"scenario {name!r} is already registered")
    _SCENARIOS[name] = simulate


def unregister_scenario(name: str) -> None:
    """Remove a runtime scenario (idempotent; built-ins protected)."""
    if name in _BUILTIN_SCENARIOS:
        raise ReproError(f"cannot unregister built-in scenario {name!r}")
    _SCENARIOS.pop(name, None)


# Covers grid experiments *and* grid-less built-in views (the arena
# cell families dispatch through those).
_BUILTIN_EXPERIMENTS = frozenset(_VIEWS)
_BUILTIN_SCENARIOS = frozenset(_SCENARIOS)

#: Runtime experiments registered with a plain runner (own scenario).
_OPAQUE: set = set()


def cells_for(experiment: str, quick: bool = False) -> List[Cell]:
    """All cells of one experiment's grid (quick or full variant)."""
    try:
        grid = _GRIDS[experiment]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise ReproError(
            f"unknown experiment {experiment!r} (known: {known})") from None
    return grid(quick)


def all_cells(quick: bool = False,
              experiments: Optional[Iterable[str]] = None) -> List[Cell]:
    """The full sweep: every experiment's grid, in registry order."""
    names = list(experiments) if experiments is not None else list(EXPERIMENTS)
    cells: List[Cell] = []
    for name in names:
        cells.extend(cells_for(name, quick=quick))
    return cells


def resolve_faults(faults: Any):
    """Normalise a faults argument to a FaultPlan (or None).

    Accepts ``None``, a spec/profile string, or a ``FaultPlan``; a
    plan that injects nothing collapses to ``None`` so clean runs stay
    on the clean cache namespace.
    """
    if faults is None:
        return None
    from repro.faults.plan import FaultPlan

    plan = faults if isinstance(faults, FaultPlan) else FaultPlan.parse(faults)
    return None if plan.is_null() else plan


def resolve_watchdog(watchdog: Any):
    """Normalise a watchdog argument to a LivenessWatchdog (or None).

    Accepts ``False``/``None`` (off), ``True`` (default stall window),
    a number of simulated seconds, or a built
    :class:`~repro.sim.watchdog.LivenessWatchdog`.
    """
    if not watchdog:
        return None
    from repro.sim.watchdog import LivenessWatchdog

    if isinstance(watchdog, LivenessWatchdog):
        return watchdog
    if isinstance(watchdog, bool):
        return LivenessWatchdog()
    return LivenessWatchdog(stall_after=float(watchdog))


def _view(experiment: str) -> View:
    try:
        return _VIEWS[experiment]
    except KeyError:
        raise ReproError(
            f"no runner for experiment {experiment!r}") from None


def cell_spec(cell: Cell) -> RunSpec:
    """The run spec of the simulation *cell* is a view of."""
    return _view(cell.experiment).spec(**cell.as_dict())


def group_cells(cells: Iterable[Cell]) -> List[Tuple[Cell, ...]]:
    """Partition *cells* by run spec: one group per simulation to run.

    Groups come in the order of their first cell (the *leader*, whose
    key names the run) and keep their members in input order.  A cell
    whose spec cannot be computed (unknown experiment, unknown
    protocol) forms a group of its own, so its error surfaces when it
    runs, as a failure of that cell alone.

    :func:`run_cell` is also the per-cell hook: a caller may replace
    this module's ``run_cell`` with a wrapper (a profiler that keeps
    one ledger per cell, say).  While it is replaced, every cell is a
    group of its own, so each runs its own simulation through the
    wrapper (see :func:`run_group`).
    """
    if run_cell is not _RUN_CELL:
        return [(cell,) for cell in cells]
    groups: Dict[Any, List[Cell]] = {}
    for cell in cells:
        try:
            spec: Any = cell_spec(cell)
        except ReproError:
            spec = cell
        groups.setdefault(spec, []).append(cell)
    return [tuple(members) for members in groups.values()]


def group_budget(cells: Sequence[Cell],
                 timeout_s: Optional[float]) -> Optional[float]:
    """Supervised deadline of a group: the largest member budget."""
    if timeout_s is None:
        return None
    return max(cell_budget(cell, timeout_s) for cell in cells)


def run_group(cells: Sequence[Cell], checks: Any = False,
              faults: Any = None, watchdog: Any = False,
              telemetry: Optional[str] = None,
              ) -> List[Tuple[Dict[str, float], float]]:
    """Run the one simulation *cells* share; project every member.

    Returns ``(metrics, seconds)`` per member, in order.  The first
    cell (the leader) is charged the simulation and its own
    projection; every other member only its own projection.  Each
    member's metrics equal a lone :func:`run_cell` of that member.
    The simulation carries a tracer when any member's view asks for
    one; the instruments (``checks``/``faults``/``watchdog``/
    ``telemetry``, see :func:`run_cell`) arm the one run, so every
    member reports its ``events_processed``, violation count and fault
    totals.  A group of one is a call of :func:`run_cell` (looked up
    at call time, so a replaced ``run_cell`` sees every lone cell).
    """
    if len(cells) == 1:
        start = time.perf_counter()
        metrics = run_cell(cells[0], checks=checks, faults=faults,
                           watchdog=watchdog, telemetry=telemetry)
        return [(metrics, time.perf_counter() - start)]
    return _run_group(cells, checks=checks, faults=faults,
                      watchdog=watchdog, telemetry=telemetry)


def _run_group(cells: Sequence[Cell], checks: Any = False,
               faults: Any = None, watchdog: Any = False,
               telemetry: Optional[str] = None,
               ) -> List[Tuple[Dict[str, float], float]]:
    """:func:`run_group` for any number of members."""
    from repro.sim import engine

    start = time.perf_counter()
    leader = cells[0]
    spec = cell_spec(leader)
    views = [_view(cell.experiment) for cell in cells]
    for cell in cells[1:]:
        if cell_spec(cell) != spec:
            raise ReproError(f"cell {cell.key!r} does not share the run "
                             f"of {leader.key!r}")
    try:
        simulate = _SCENARIOS[spec.scenario]
    except KeyError:
        raise ReproError(
            f"no scenario {spec.scenario!r} for cell {leader.key!r}") from None

    checker = None
    if checks:
        from repro.checks.checker import InvariantChecker

        mode = "collect" if checks == "collect" else "raise"
        checker = InvariantChecker(mode=mode)
    plan = resolve_faults(faults)
    guard = resolve_watchdog(watchdog)

    engine._last_simulator = None
    session = None
    sink = None
    try:
        if checker is not None:
            from repro.checks import runtime as checks_runtime

            checks_runtime.activate(checker)
        if plan is not None:
            from repro.faults import runtime as faults_runtime

            session = faults_runtime.activate(plan)
        if guard is not None:
            from repro.sim import watchdog as watchdog_runtime

            watchdog_runtime.activate(guard)
        if telemetry is not None:
            from repro.obs import runtime as obs_runtime
            from repro.obs.events import TelemetrySink
            from repro.obs.gauges import GaugeSampler

            sink = TelemetrySink(telemetry)
            obs_runtime.activate(GaugeSampler(sink, cell=leader.key))
        result = simulate(spec, any(view.traced for view in views))
    finally:
        if sink is not None:
            from repro.obs import runtime as obs_runtime

            obs_runtime.deactivate()
            sink.close()
        if guard is not None:
            from repro.sim import watchdog as watchdog_runtime

            watchdog_runtime.deactivate()
        if plan is not None:
            from repro.faults import runtime as faults_runtime

            faults_runtime.deactivate()
        if checker is not None:
            from repro.checks import runtime as checks_runtime

            checks_runtime.deactivate()
    shared: Dict[str, float] = {}
    sim = engine.last_simulator()
    if sim is not None:
        shared[EVENTS_METRIC] = sim.events_processed
    if checker is not None:
        shared["invariant_violations"] = float(len(checker.violations))
        if checker.violations:
            import sys

            for violation in checker.violations[:10]:
                print(f"invariant violation in {leader.key}: {violation}",
                      file=sys.stderr)
    if session is not None:
        for name, value in sorted(session.totals().items()):
            shared[f"fault_{name}"] = float(value)

    out: List[Tuple[Dict[str, float], float]] = []
    for cell, view in zip(cells, views):
        began = time.perf_counter() if out else start
        metrics = view.project(result, **cell.as_dict())
        metrics.update(shared)
        out.append((metrics, time.perf_counter() - began))
    return out


def run_cell(cell: Cell, checks: Any = False,
             faults: Any = None, watchdog: Any = False,
             telemetry: Optional[str] = None) -> Dict[str, float]:
    """Execute one cell and return its metrics.

    A lone cell is a group of one (see :func:`run_group`): the cell's
    view names its simulation, the simulation runs, and the view's
    projection reports the metrics, plus ``events_processed`` (from
    the cell's simulator, via
    :func:`repro.sim.engine.last_simulator`).

    ``checks`` enables the runtime invariant checker for the run:
    truthy for fail-fast (``"raise"``), or ``"collect"`` to record
    violations and report their count as the ``invariant_violations``
    metric.  ``faults`` composes a fault plan (spec string, profile
    name, or :class:`~repro.faults.plan.FaultPlan`) onto the cell's
    topology; the injector's summed counters join the metrics.
    ``watchdog`` arms the liveness guard (see :func:`resolve_watchdog`),
    turning a stalled simulation into a typed
    :class:`~repro.errors.SimulationStalled` instead of a spin to the
    horizon.  ``telemetry`` (a JSONL path) arms the telemetry gauge
    sampler (:mod:`repro.obs`) for the run; the file is opened in
    append mode so a sweep's workers interleave into one log.  The
    checker's, watchdog's and sampler's hooks schedule nothing, so
    none of them ever changes ``events_processed``.
    """
    return _run_group((cell,), checks=checks, faults=faults,
                      watchdog=watchdog, telemetry=telemetry)[0][0]


#: The harness's own :func:`run_cell`, to tell when it was replaced.
_RUN_CELL = run_cell
