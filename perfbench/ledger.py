"""Traced per-layer ledger, installed from outside the program.

:func:`install` wraps each layer's public entry points and every
callback handed to the engine, *before* any topology is built (links
bind ``sim.schedule_anon`` and their own completion callbacks when they
are constructed, so wrapping later would miss them).  The program's
source is not touched: the wrappers replace class and module attributes
in the running process only.

Layers are the ``repro`` sub-package names (``repro.sim.watchdog`` is
its own ``watchdog`` layer).  Each wrapper is a span on one stack:

* a layer's **self time** is the span's duration minus the time of the
  spans nested in it (a stack accumulator, so a layer is charged only
  for its own code);
* a **dispatch** is a callback span whose parent is the engine's run
  loop; each is charged to the layer that defined the callback
  (``PeriodicTimer`` ticks to the layer of the timer's callback), so
  the per-layer dispatches add up to ``events_processed`` exactly;
* **counts** record calls at the same boundaries.  A call nested in a
  span of the same counter (``super()`` chains) counts once.

Coarse spans (workload -> cell -> setup/run) are kept in memory with
their parent ids and written out when the benchmark ends.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: Stack tag of the engine's run loop: a callback span directly under it
#: is one dispatched event.
RUN = sys.intern("sim.run")

#: Modules whose every class method and module function is a span
#: (cold or per-hook code).  The hot layers (sim, net, tcp, core) get
#: spans only at the entry points named in ``_HOT_ENTRY_POINTS``.
_WHOLE_LAYERS = (
    "repro.trafficgen.conversations", "repro.trafficgen.traffic",
    "repro.trafficgen.distributions", "repro.apps.bulk",
    "repro.apps.crosstraffic", "repro.trace.tracer",
    "repro.checks.checker", "repro.checks.runtime",
    "repro.faults.injector", "repro.faults.runtime", "repro.sim.watchdog",
)

#: (module, class, method, counter) spans on the hot layers.  ``None``
#: as class means every class of the module that defines the method.
_HOT_ENTRY_POINTS = (
    ("repro.net.link", "Channel", "send", "net.calls"),
    ("repro.net.link", "EthernetLan", "send", "net.calls"),
    ("repro.net.node", "Node", "forward", "net.calls"),
    ("repro.net.node", None, "receive", "net.calls"),
    ("repro.net.node", "Host", "send_packet", None),
    ("repro.tcp.connection", "TCPConnection", "handle_segment",
     "tcp.segments"),
    ("repro.tcp.connection", "TCPConnection", "output", "tcp.outputs"),
    ("repro.tcp.connection", "TCPConnection", "retransmit_first_unacked",
     "tcp.retransmits"),
    ("repro.tcp.connection", "TCPConnection", "retransmit_hole",
     "tcp.retransmits"),
    ("repro.tcp.protocol", "TCPProtocol", "connect", None),
    ("repro.tcp.protocol", "TCPProtocol", "listen", None),
    ("repro.tcp.protocol", "TCPProtocol", "_packet_arrived", None),
)

#: Congestion-control hooks: spans on every class of ``repro.core`` that
#: defines them.
_CORE_HOOKS = (("on_new_ack", "core.acks"), ("on_dup_ack", "core.dupacks"),
               ("on_coarse_timeout", "core.timeouts"))
_CORE_MODULES = ("repro.core.base", "repro.core.reno", "repro.core.tahoe",
                 "repro.core.newreno", "repro.core.vegas",
                 "repro.core.sack", "repro.core.card", "repro.core.dual",
                 "repro.core.tris", "repro.core.epoch")

#: Link callbacks the links push onto the heap themselves (bypassing
#: ``schedule_anon``); they are dispatch-capable spans.
_LINK_CALLBACKS = (
    ("Channel", "_tx_done"), ("Channel", "deliver_now"),
    ("Channel", "_deliver"), ("VariableRateChannel", "_lossy_deliver"),
    ("EthernetLan", "_tx_done"), ("EthernetLan", "_deliver"),
)


def layer_of_module(module: str) -> str:
    """The ledger layer a ``repro`` module belongs to."""
    if module == "repro.sim.watchdog":
        return "watchdog"
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return "other"


class Ledger:
    """Per-layer self time, dispatch and call counts, and coarse spans."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.dispatches: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.peak_heap = 0
        self.events = 0
        self.far_peak = 0
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[list] = [[0.0, None]]
        self._installed: List[tuple] = []
        self._sim = None
        self._dispatchers: Dict[Any, Callable] = {}
        self._open: List[Dict[str, Any]] = []

    # -- span factories --------------------------------------------------
    def _span(self, layer: str, counter: Optional[str], fn: Callable,
              dispatch: bool = False) -> Callable:
        """Wrap *fn* as a span of *layer*, counting calls in *counter*."""
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        self_s.setdefault(layer, 0.0)
        dispatches = self.dispatches
        dispatches.setdefault(layer, 0)
        counts = self.counts
        tag = sys.intern(counter) if counter else None
        if tag:
            counts.setdefault(tag, 0)
        ledger = self

        if dispatch:
            def wrapper(*args, **kwargs):
                parent = stack[-1]
                if parent[1] is RUN:
                    dispatches[layer] += 1
                    depth = ledger._sim.heap_size
                    if depth > ledger.peak_heap:
                        ledger.peak_heap = depth
                if tag is not None and parent[1] is not tag:
                    counts[tag] += 1
                frame = [0.0, tag]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    stack.pop()
                    self_s[layer] += elapsed - frame[0]
                    stack[-1][0] += elapsed
        else:
            def wrapper(*args, **kwargs):
                if tag is not None and stack[-1][1] is not tag:
                    counts[tag] += 1
                frame = [0.0, tag]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - t0
                    stack.pop()
                    self_s[layer] += elapsed - frame[0]
                    stack[-1][0] += elapsed
        return functools.update_wrapper(wrapper, fn)

    def _dispatcher(self, layer: str) -> Callable:
        """The trampoline that runs a scheduled callback of *layer*."""
        tramp = self._dispatchers.get(layer)
        if tramp is None:
            def call(fn, *args):
                return fn(*args)
            call.__module__ = __name__
            tramp = self._span(layer, None, call, dispatch=True)
            self._dispatchers[layer] = tramp
        return tramp

    # -- patching ----------------------------------------------------------
    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._installed.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_method(self, cls: type, name: str, layer: str,
                     counter: Optional[str], dispatch: bool = False) -> None:
        fn = cls.__dict__[name]
        self._patch(cls, name, self._span(layer, counter, fn, dispatch))

    def _wrap_whole_module(self, module: Any) -> None:
        layer = layer_of_module(module.__name__)
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                self._patch(module, name, self._span(layer, None, value))
            elif (inspect.isclass(value)
                  and value.__module__ == module.__name__
                  and not issubclass(value, enum.Enum)):
                for attr, fn in list(vars(value).items()):
                    if inspect.isfunction(fn) and (
                            attr == "__init__" or not attr.startswith("__")):
                        counter = ("trafficgen.conversations"
                                   if (value.__name__, attr)
                                   == ("Conversation", "start") else None)
                        self._wrap_method(value, attr, layer, counter)

    def install(self) -> "Ledger":
        """Wrap every traced entry point; call before any topology exists."""
        from repro.net import link, queue, red
        from repro.sim import engine, process

        for name in _WHOLE_LAYERS:
            self._wrap_whole_module(importlib.import_module(name))
        for modname, clsname, method, counter in _HOT_ENTRY_POINTS:
            module = importlib.import_module(modname)
            layer = layer_of_module(modname)
            classes = ([getattr(module, clsname)] if clsname else
                       [c for c in vars(module).values() if inspect.isclass(c)
                        and c.__module__ == modname])
            for cls in classes:
                if method in cls.__dict__:
                    self._wrap_method(cls, method, layer, counter)
        for modname in _CORE_MODULES:
            module = importlib.import_module(modname)
            for cls in vars(module).values():
                if not (inspect.isclass(cls) and cls.__module__ == modname):
                    continue
                for method, counter in _CORE_HOOKS:
                    if method in cls.__dict__:
                        self._wrap_method(cls, method, "core", counter)
        for clsname, method in _LINK_CALLBACKS:
            self._wrap_method(getattr(link, clsname), method, "net", None,
                              dispatch=True)
        for cls in (queue.DropTailQueue, red.REDQueue):
            self._patch(cls, "offer", self._offer_span(cls.__dict__["offer"]))
        self._install_engine(engine.Simulator, process.PeriodicTimer)
        return self

    def _offer_span(self, fn: Callable) -> Callable:
        span = self._span("net", None, fn)
        counts = self.counts
        counts.setdefault("net.drops", 0)

        def offer(*args, **kwargs):
            accepted = span(*args, **kwargs)
            if accepted is False:
                counts["net.drops"] += 1
            return accepted
        return functools.update_wrapper(offer, fn)

    def _install_engine(self, sim_cls: type, timer_cls: type) -> None:
        """Route every scheduled callback through its layer's trampoline."""
        ledger = self
        cache: Dict[Any, Callable] = {}
        timer_fire = timer_cls.__dict__["_fire"]

        def trampoline(fn: Callable) -> Callable:
            func = getattr(fn, "__func__", fn)
            if func is timer_fire:
                # Charge a periodic tick to the layer that owns it.
                return ledger._dispatcher(_layer_of_callable(
                    fn.__self__.callback))
            # Keyed by code object: a closure made per call (a lambda
            # scheduled per packet) must not grow the cache.
            func = getattr(func, "__wrapped__", func)
            key = getattr(func, "__code__", func)
            tramp = cache.get(key)
            if tramp is None:
                tramp = ledger._dispatcher(_layer_of_callable(fn))
                cache[key] = tramp
            return tramp

        for name in ("schedule", "schedule_anon", "schedule_at"):
            original = sim_cls.__dict__[name]

            def make(original):
                def schedule(sim, when, fn, *args):
                    return original(sim, when, trampoline(fn), fn, *args)
                return functools.update_wrapper(schedule, original)
            self._patch(sim_cls, name, self._span("sim", None, make(original)))

        run = sim_cls.__dict__["run"]
        stack = self._stack
        clock = time.perf_counter
        self.self_s.setdefault("sim", 0.0)

        def traced_run(sim, *args, **kwargs):
            ledger._enter_run(sim)
            frame = [0.0, RUN]
            stack.append(frame)
            t0 = clock()
            try:
                return run(sim, *args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                ledger.self_s["sim"] += elapsed - frame[0]
                stack[-1][0] += elapsed
                ledger.close("run")
        self._patch(sim_cls, "run", functools.update_wrapper(traced_run, run))

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    # -- coarse spans ----------------------------------------------------
    def open(self, name: str, **attrs: Any) -> Dict[str, Any]:
        """Open a coarse span under the innermost open one."""
        parent = self._open[-1]["id"] if self._open else None
        span = {"id": len(self.spans), "parent": parent, "name": name,
                "start": time.perf_counter(), "end": None}
        span.update(attrs)
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, name: str) -> None:
        """Close the innermost open span called *name* (and any inside it)."""
        while self._open:
            span = self._open.pop()
            span["end"] = time.perf_counter()
            if span["name"] == name:
                return

    def _enter_run(self, sim: Any) -> None:
        if self._sim is not sim:
            self._finish_sim()
            self._sim = sim
        if self._open and self._open[-1]["name"] == "setup":
            self.close("setup")
        self.open("run")

    def _finish_sim(self) -> None:
        sim = self._sim
        if sim is not None:
            self.events += sim.events_processed
            self.far_peak = max(self.far_peak, sim.far_events_peak)
            self._sim = None

    # -- results -----------------------------------------------------------
    def cell(self, key: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run one cell under a ``cell`` span with a ``setup`` child."""
        self.open("cell", key=key)
        self.open("setup")
        try:
            return fn(*args, **kwargs)
        finally:
            self._finish_sim()
            self.close("cell")

    def reset(self) -> None:
        """Zero the counters in place (the wrappers hold the dicts)."""
        for table, zero in ((self.self_s, 0.0), (self.dispatches, 0),
                            (self.counts, 0)):
            for key in table:
                table[key] = zero
        self.peak_heap = self.events = self.far_peak = 0
        self._stack[0][0] = 0.0

    def snapshot(self) -> Dict[str, Any]:
        """The counters as plain data (JSON-ready)."""
        self._finish_sim()
        return {"self_s": dict(self.self_s),
                "dispatches": dict(self.dispatches),
                "counts": dict(self.counts),
                "events": self.events, "peak_heap": self.peak_heap,
                "far_peak": self.far_peak}


def merge(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum ledgers of separate cells (peaks take the maximum)."""
    out: Dict[str, Any] = {"self_s": {}, "dispatches": {}, "counts": {},
                           "events": 0, "peak_heap": 0, "far_peak": 0}
    for snap in snapshots:
        for table in ("self_s", "dispatches", "counts"):
            for key, value in snap[table].items():
                out[table][key] = out[table].get(key, 0) + value
        out["events"] += snap["events"]
        out["peak_heap"] = max(out["peak_heap"], snap["peak_heap"])
        out["far_peak"] = max(out["far_peak"], snap["far_peak"])
    return out


def _layer_of_callable(fn: Callable) -> str:
    return layer_of_module(getattr(fn, "__module__", None) or "")
