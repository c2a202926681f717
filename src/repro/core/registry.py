"""Name-based congestion-control registry.

Experiments refer to protocols by name ("reno", "vegas", "vegas-1,3",
...), mirroring the paper's table headings.  :func:`make_cc` turns a
name into a fresh controller instance; :func:`cc_factory` returns a
zero-argument callable for listener-side use.

Beyond construction, the registry carries per-scheme capability
metadata (:class:`SchemeInfo`): which congestion *signal* a scheme
reacts to (loss vs delay), whether it repairs holes with SACK, and
whether a name is a parameter variant of another scheme.  The arena
(:mod:`repro.arena`) uses this to build its tournament roster —
:func:`arena_roster` — without hard-coding the scheme list a second
time.

:func:`canonical_name` maps every name onto the first registered name
whose controller is indistinguishable from it at construction (same
class, same initial state), so ``"vegas-2,4"`` and ``"vegas"`` are one
protocol.  The harness keys its run specs on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.base import CongestionControl
from repro.core.card import CardCC
from repro.core.dual import DualCC
from repro.core.newreno import NewRenoCC
from repro.core.reno import RenoCC
from repro.core.sack import SackRenoCC, SackVegasCC
from repro.core.tahoe import TahoeCC
from repro.core.tris import TriSCC
from repro.core.vegas import VegasCC
from repro.errors import ConfigurationError

_BUILDERS: Dict[str, Callable[[], CongestionControl]] = {
    "fixed": CongestionControl,
    "reno": RenoCC,
    "newreno": NewRenoCC,
    "tahoe": TahoeCC,
    "vegas": VegasCC,
    "vegas-1,3": lambda: VegasCC(alpha=1.0, beta=3.0),
    "vegas-2,4": lambda: VegasCC(alpha=2.0, beta=4.0),
    "vegas-paced": lambda: VegasCC(paced_slow_start=True),
    "reno-sack": SackRenoCC,
    "vegas-sack": SackVegasCC,
    "dual": DualCC,
    "card": CardCC,
    "tri-s": TriSCC,
}


@dataclass(frozen=True)
class SchemeInfo:
    """Capability metadata for one registered scheme.

    ``signal`` is the congestion signal the scheme's avoidance policy
    reacts to: ``"loss"`` (Reno-family probing), ``"delay"`` (Vegas'
    expected-vs-actual throughput, DUAL/CARD RTT trends, Tri-S
    gradients), or ``"none"`` (the fixed-window base).  ``variant_of``
    names the scheme a registry entry merely re-parameterizes
    ("vegas-1,3" is Vegas with a different α/β band) — variants are
    excluded from the arena roster so the tournament compares
    *algorithms*, not parameter settings.
    """

    name: str
    signal: str                       # "loss" | "delay" | "none"
    sack: bool = False                # repairs holes with SACK blocks
    variant_of: Optional[str] = None  # parameter variant of this scheme


_INFO: Dict[str, SchemeInfo] = {info.name: info for info in (
    SchemeInfo("fixed", "none"),
    SchemeInfo("reno", "loss"),
    SchemeInfo("newreno", "loss"),
    SchemeInfo("tahoe", "loss"),
    SchemeInfo("vegas", "delay"),
    SchemeInfo("vegas-1,3", "delay", variant_of="vegas"),
    SchemeInfo("vegas-2,4", "delay", variant_of="vegas"),
    SchemeInfo("vegas-paced", "delay", variant_of="vegas"),
    SchemeInfo("reno-sack", "loss", sack=True),
    SchemeInfo("vegas-sack", "delay", sack=True, variant_of="vegas"),
    SchemeInfo("dual", "delay"),
    SchemeInfo("card", "delay"),
    SchemeInfo("tri-s", "delay"),
)}


def register(name: str, builder: Callable[[], CongestionControl],
             info: Optional[SchemeInfo] = None) -> None:
    """Register a custom controller under *name* (overwrites allowed).

    *info*, when given, attaches capability metadata so the custom
    scheme participates in introspection (and, if eligible, the arena
    roster); without it the scheme is constructible but reported as an
    unclassified ``signal="none"`` entry.
    """
    _BUILDERS[name] = builder
    _CANONICAL.clear()
    if info is not None:
        _INFO[name] = info
    elif name not in _INFO:
        _INFO[name] = SchemeInfo(name, "none")


def available() -> list:
    """Sorted list of registered controller names."""
    return sorted(_BUILDERS)


def scheme_info(name: str) -> SchemeInfo:
    """Capability metadata for the named scheme."""
    if name not in _BUILDERS:
        raise ConfigurationError(
            f"unknown congestion control {name!r}; available: {available()}")
    return _INFO[name]


def arena_roster() -> List[str]:
    """The tournament roster: every distinct congestion *algorithm*.

    Excludes the fixed-window base (no congestion reaction to compare)
    and parameter variants (``variant_of`` set), leaving the paper's
    eight: Reno, NewReno, Tahoe, SACK-Reno, Vegas, DUAL, CARD, Tri-S.
    """
    return [name for name in available()
            if _INFO[name].signal != "none" and _INFO[name].variant_of is None]


def cc_factory(name: str) -> Callable[[], CongestionControl]:
    """Return a zero-argument factory for the named controller."""
    try:
        return _BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown congestion control {name!r}; available: {available()}"
        ) from None


def make_cc(name: str) -> CongestionControl:
    """Instantiate the named controller."""
    return cc_factory(name)()


#: name -> canonical name, rebuilt lazily after any registration.
_CANONICAL: Dict[str, str] = {}

_PLAIN = (type(None), bool, int, float, str)


def _identity(name: str) -> Tuple[Any, ...]:
    """A fresh controller's class and initial state, or the name itself.

    State that is not plain data cannot be compared, so such a
    controller is only ever identical to itself.
    """
    cc = make_cc(name)
    state = vars(cc)
    if not all(isinstance(value, _PLAIN) for value in state.values()):
        return ("name", name)
    return (type(cc), tuple(sorted(state.items())))


def canonical_name(name: str) -> str:
    """The first registered name that builds the same controller as *name*.

    Two names are one protocol when their fresh controllers have the
    same class and the same initial state: ``"vegas-2,4"`` is
    ``"vegas"`` (Vegas' default band is α=2, β=4), while
    ``"vegas-1,3"`` stays itself.  Registration order decides which
    spelling is canonical.
    """
    if not _CANONICAL:
        first: Dict[Tuple[Any, ...], str] = {}
        for other in _BUILDERS:
            _CANONICAL[other] = first.setdefault(_identity(other), other)
    try:
        return _CANONICAL[name]
    except KeyError:
        cc_factory(name)          # raises the standard unknown-name error
        raise
