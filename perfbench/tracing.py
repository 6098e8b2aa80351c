"""Per-layer spans recorded from outside the simulator.

The traced run installs wrappers at class level around the public entry
points of each ``repro`` layer, before the ``System`` under test is built
(``System.__init__`` binds ``RegionRetentionMonitor.register_llc_write``
and ``decide_write_mode`` into every ``CoreModel``, so wrapping an
instance afterwards would miss every call). ``Simulator.schedule_at`` is
wrapped so that each callback it receives is itself wrapped in a span
named after its ``owner_label`` and charged to the owning layer. Callbacks
are ``compare=False`` on ``Event``, so event ordering is untouched and a
traced run stays bit-identical to an untraced one.

Every span records its name, layer, start, end, parent span and cell id;
controller enqueue spans also carry the request's ``req_id``. Per-name
aggregates (calls, total and self nanoseconds) cover every span; the raw
span list is capped at :data:`SPAN_CAP` because a single cell
produces millions of spans. A span's self time is its duration minus the
durations of its direct children, so the self times of all spans under a
root add up to the root's duration exactly (integer nanoseconds).
"""

from __future__ import annotations

import itertools
import time
from functools import wraps
from typing import Callable, Dict, List, Optional, Tuple

from repro.attribution.collector import AttributionCollector
from repro.core.monitor import RegionRetentionMonitor
from repro.cpu.core_model import CoreModel
from repro.engine.simulator import Simulator, owner_label
from repro.memctrl.controller import MemoryController
from repro.pcm.bank import Bank
from repro.sim.system import System
from repro.workloads.synthetic import RegionTrafficGenerator

#: Layers whose self time the traced run reports, in report order.
LAYERS = ("engine", "memctrl", "pcm", "core", "cpu", "workloads", "attribution")

#: Pseudo-layer for time under the root span that no layer's span covers:
#: ``System.run``'s own body, its completion listener, and wrapper cost
#: outside any span.
UNATTRIBUTED = "unattributed"

#: Raw spans kept per recorder; later spans update aggregates only.
SPAN_CAP = 20_000

#: Integer-nanosecond host clock for span edges. Reads are reported,
#: never fed into simulated state.
clock_ns = time.perf_counter_ns  # repro-lint: disable=RL001 - span timing is the measurement

#: Span names counted by the per-layer metrics.
SCHEDULE = "Simulator.schedule_at"
ENQUEUE = "MemoryController.enqueue"
CAN_ACCEPT = "MemoryController.can_accept"
BANK_OPS = ("Bank.schedule_read", "Bank.schedule_write")
PROBES = ("Bank.read_start_time", "Bank.available_at")
REGISTER = "RegionRetentionMonitor.register_llc_write"
DECIDE = "RegionRetentionMonitor.decide_write_mode"
MAINTENANCE = (
    "RegionRetentionMonitor.on_refresh_interrupt",
    "RegionRetentionMonitor.on_decay_tick",
)
ITEM = "RegionTrafficGenerator.next"
DISPATCH_PREFIX = "dispatch "

#: (class, attribute, layer, index of a MemRequest argument or None).
#: Public entry points, plus the two private methods through which one
#: layer runs another's work outside an engine dispatch:
#: ``CoreModel._run`` (re-entered from read completions and queue-space
#: wake-ups inside the controller) and
#: ``RegionRetentionMonitor._on_refresh_space``. Without them that work
#: would be charged to memctrl.
_TARGETS: Tuple[Tuple[type, str, str, Optional[int]], ...] = (
    (Simulator, "run", "engine", None),
    (MemoryController, "enqueue", "memctrl", 1),
    (Bank, "schedule_read", "pcm", None),
    (Bank, "schedule_write", "pcm", None),
    (Bank, "read_start_time", "pcm", None),
    (Bank, "available_at", "pcm", None),
    (RegionRetentionMonitor, "register_llc_write", "core", None),
    (RegionRetentionMonitor, "decide_write_mode", "core", None),
    (RegionRetentionMonitor, "on_refresh_interrupt", "core", None),
    (RegionRetentionMonitor, "on_decay_tick", "core", None),
    (RegionRetentionMonitor, "_on_refresh_space", "core", None),
    (CoreModel, "_run", "cpu", None),
    (AttributionCollector, "on_enqueue", "attribution", 1),
    (AttributionCollector, "on_dequeue", "attribution", 2),
    (AttributionCollector, "on_read_issue", "attribution", 1),
    (AttributionCollector, "on_write_issue", "attribution", 1),
    (AttributionCollector, "on_write_paused", "attribution", 1),
    (AttributionCollector, "on_complete", "attribution", 1),
    (System, "_on_completion", UNATTRIBUTED, None),
)

#: Every class attribute the wrappers replace; ``uninstall`` restores them.
PATCHED: Tuple[Tuple[type, str], ...] = tuple(
    (cls, attr) for cls, attr, _, _ in _TARGETS
) + (
    (Simulator, "schedule_at"),
    (MemoryController, "can_accept"),
    (RegionTrafficGenerator, "__iter__"),
)


def layer_of_label(label: str) -> str:
    """The layer owning a ``module:qualname`` callback label."""
    parts = label.split(":", 1)[0].split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return UNATTRIBUTED


class SpanRecorder:
    """Collects spans and per-name aggregates for one traced run."""

    def __init__(self) -> None:
        #: Cell id stamped on spans; the benchmark sets it per cell.
        self.cell: Optional[str] = None
        #: name -> [layer, calls, total_ns, self_ns]
        self.aggregates: Dict[str, list] = {}
        #: (span_id, name, layer, start_ns, end_ns, parent_id, cell, req_id)
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        #: ``can_accept`` calls answered False.
        self.refused = 0
        #: Bank probes issued by the scheduler (not nested in a pcm call).
        self.scheduler_probes = 0
        # Open spans, innermost last: [child_ns, span_id, layer].
        self._stack: List[list] = []
        self._ids = itertools.count(1)
        self._owners: Dict[object, Tuple[str, str]] = {}
        self._installed: Dict[Tuple[type, str], object] = {}

    # ------------------------------------------------------------------
    def _aggregate(self, name: str, layer: str) -> list:
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = [layer, 0, 0, 0]
        return agg

    def wrap(self, fn: Callable, name: str, layer: str,
             req_arg: Optional[int] = None) -> Callable:
        """*fn* wrapped so each call records one span."""
        return wraps(fn)(self._traced(fn, name, layer, req_arg))

    def _traced(self, fn: Callable, name: str, layer: str,
                req_arg: Optional[int] = None) -> Callable:
        # The bare wrapper, without ``functools.wraps`` (which costs more
        # than the span itself): engine callbacks get one per event.
        agg = self._aggregate(name, layer)
        stack = self._stack
        spans = self.spans
        clock = clock_ns
        ids = self._ids
        recorder = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0, next(ids), layer]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                agg[1] += 1
                agg[2] += duration
                agg[3] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((
                        frame[1], name, layer, start, end,
                        parent[1] if parent is not None else 0,
                        recorder.cell,
                        args[req_arg].req_id if req_arg is not None else None,
                    ))
                else:
                    recorder.spans_dropped += 1

        return traced

    # ------------------------------------------------------------------
    def _owner(self, callback: Callable) -> Tuple[str, str]:
        """Cached ``(span name, layer)`` for an engine callback."""
        func = getattr(callback, "__func__", callback)
        # Lambdas and closures are new objects per schedule but share a
        # code object; the wrappers installed here share one code object
        # across targets, so they are keyed by identity instead.
        key = func if hasattr(func, "__wrapped__") else getattr(
            func, "__code__", func
        )
        owner = self._owners.get(key)
        if owner is None:
            label = owner_label(callback)
            owner = self._owners[key] = (
                DISPATCH_PREFIX + label, layer_of_label(label)
            )
        return owner

    def install(self) -> None:
        """Replace every target with its traced wrapper (class level)."""
        if self._installed:
            raise RuntimeError("wrappers already installed")
        for cls, attr in PATCHED:
            self._installed[(cls, attr)] = cls.__dict__[attr]
        try:
            for cls, attr, layer, req_arg in _TARGETS:
                setattr(cls, attr, self.wrap(
                    cls.__dict__[attr], f"{cls.__name__}.{attr}", layer, req_arg
                ))
            self._install_special()
        except BaseException:
            self.uninstall()
            raise

    def _install_special(self) -> None:
        recorder = self
        stack = self._stack

        schedule_at = self._installed[(Simulator, "schedule_at")]
        traced_schedule_at = self._traced(schedule_at, SCHEDULE, "engine")

        def dispatching(sim, time, callback, *, owner=None):
            # The span covers the engine's own schedule_at; wrapping the
            # callback is tracer cost and lands in the caller's self time.
            name, layer = recorder._owner(callback)
            return traced_schedule_at(
                sim, time, recorder._traced(callback, name, layer),
                owner=owner,
            )

        Simulator.schedule_at = wraps(schedule_at)(dispatching)

        can_accept = self._installed[(MemoryController, "can_accept")]

        def counting_can_accept(controller, rtype, block):
            accepted = can_accept(controller, rtype, block)
            if not accepted:
                recorder.refused += 1
            return accepted

        MemoryController.can_accept = self.wrap(
            wraps(can_accept)(counting_can_accept), CAN_ACCEPT, "memctrl"
        )

        for name in PROBES:
            attr = name.split(".", 1)[1]
            traced = Bank.__dict__[attr]

            def probing(bank, now, _traced=traced):
                if not stack or stack[-1][2] != "pcm":
                    recorder.scheduler_probes += 1
                return _traced(bank, now)

            setattr(Bank, attr, wraps(traced)(probing))

        generate = self._installed[(RegionTrafficGenerator, "__iter__")]
        wrap = self.wrap

        def traced_iter(generator):
            return map(
                wrap(next, ITEM, "workloads"),
                itertools.repeat(generate(generator)),
            )

        RegionTrafficGenerator.__iter__ = wraps(generate)(traced_iter)

    def uninstall(self) -> None:
        """Restore every replaced attribute to its original object."""
        for (cls, attr), original in self._installed.items():
            setattr(cls, attr, original)
        self._installed.clear()

    # ------------------------------------------------------------------
    def calls(self, *names: str) -> int:
        return sum(self.aggregates[n][1] for n in names if n in self.aggregates)

    def total_ns(self, *names: str) -> int:
        return sum(self.aggregates[n][2] for n in names if n in self.aggregates)

    def self_ns(self, *names: str) -> int:
        return sum(self.aggregates[n][3] for n in names if n in self.aggregates)

    def layer_self_ns(self) -> Dict[str, int]:
        """Self nanoseconds per layer, every layer present (0 if idle)."""
        totals = {layer: 0 for layer in (*LAYERS, UNATTRIBUTED)}
        for layer, _, _, self_ns in self.aggregates.values():
            totals[layer] = totals.get(layer, 0) + self_ns
        return totals

    def dispatches(self, layer: str) -> int:
        """Engine callbacks dispatched on behalf of *layer*."""
        return sum(
            agg[1]
            for name, agg in self.aggregates.items()
            if name.startswith(DISPATCH_PREFIX) and agg[0] == layer
        )
