"""Heap-based discrete-event simulator.

The engine is intentionally minimal: a binary heap of ``(time, seq,
event)`` entries, a current-time cursor, and helpers for periodic events. All
higher-level behaviour (memory scheduling, refresh interrupts, decay ticks)
is built from these primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, Optional

from repro.errors import SimulationError

EventCallback = Callable[[], None]


@dataclass(slots=True, eq=False)
class Event:
    """A scheduled callback.

    The engine's heap holds ``(time, seq, event)`` entries, so events
    never compare with each other: simultaneous events fire in the order
    they were scheduled, which keeps runs deterministic (the test suite
    relies on it).
    """

    time: float
    seq: int
    callback: EventCallback
    cancelled: bool = False
    #: ``module:qualname`` of the scheduling owner; populated only while
    #: cost accounting is enabled (never consulted by the run loop's
    #: ordering, so accounting cannot perturb the simulation).
    owner: Optional[str] = None

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


def owner_label(callback: Callable) -> str:
    """``module:qualname`` identity of a callback for cost attribution.

    Bound methods resolve through ``__func__`` so the label names the
    defining class, not the instance. Objects with neither module nor
    qualname (rare C callables) fall back to ``?``.
    """
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", None) or "?"
    qual = getattr(func, "__qualname__", None) or getattr(
        func, "__name__", "?"
    )
    return f"{module}:{qual}"


class EventCostAccounting:
    """Opt-in per-owner dispatch accounting for the run loop.

    Two tables, one determinism contract:

    - ``counts`` maps owner labels to callbacks dispatched — a pure
      function of the simulated run, bit-stable across hosts, safe to
      pin in committed benchmarks;
    - ``host_ns`` maps owner labels to cumulative host time measured by
      the *injected* clock (the engine itself never touches a wall
      clock; sim-path rule RL001). With no clock, only counts accrue.

    Accounting is observational: it wraps each dispatch but neither
    reorders events nor touches simulation state, so profiled runs stay
    bit-identical to unprofiled ones (asserted in tests).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock
        self.counts: Dict[str, int] = {}
        self.host_ns: Dict[str, float] = {}
        self.dispatches_total = 0

    def register_metrics(self, registry, prefix: str = "engine.cost") -> None:
        """Publish accounting totals into a telemetry registry."""
        registry.gauge(f"{prefix}.dispatches_total", lambda: self.dispatches_total)
        registry.gauge(f"{prefix}.owners", lambda: len(self.counts))

    def dispatch(self, event: Event) -> None:
        """Run *event*'s callback, charging its owner."""
        owner = event.owner or "?"
        clock = self._clock
        if clock is None:
            event.callback()
        else:
            t0 = clock()
            try:
                event.callback()
            finally:
                self.host_ns[owner] = (
                    self.host_ns.get(owner, 0.0) + (clock() - t0) * 1e9
                )
        self.counts[owner] = self.counts.get(owner, 0) + 1
        self.dispatches_total += 1


class Simulator:
    """Discrete-event simulation core.

    Usage::

        sim = Simulator()
        sim.schedule_at(100.0, lambda: ...)
        sim.run(until=1_000_000.0)
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        #: Current simulation time in nanoseconds. A plain attribute for
        #: the hot path; only :meth:`run` advances it.
        self.now = 0.0
        self._seq = 0
        self._events_processed = 0
        self._events_cancelled = 0
        self._running = False
        self._stopped = False
        self._accounting: Optional[EventCostAccounting] = None

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed

    @property
    def events_scheduled(self) -> int:
        """Number of events ever scheduled (processed, pending or cancelled)."""
        return self._seq

    @property
    def events_cancelled(self) -> int:
        """Number of cancelled events the run loop has discarded."""
        return self._events_cancelled

    @property
    def pending_events(self) -> int:
        """Number of queued (non-cancelled) events."""
        return sum(1 for _, _, e in self._queue if not e.cancelled)

    def register_metrics(self, registry, prefix: str = "engine") -> None:
        """Publish the engine's counters into a telemetry registry."""
        registry.gauge(f"{prefix}.now_ns", lambda: self.now)
        registry.gauge(f"{prefix}.events_processed", lambda: self._events_processed)
        registry.gauge(f"{prefix}.events_scheduled", lambda: self._seq)
        registry.gauge(f"{prefix}.events_cancelled", lambda: self._events_cancelled)
        registry.gauge(f"{prefix}.pending_events", lambda: self.pending_events)

    def enable_cost_accounting(
        self, clock: Optional[Callable[[], float]] = None
    ) -> EventCostAccounting:
        """Turn on per-owner dispatch accounting for this simulator.

        Must be called before events of interest are scheduled — owner
        labels are resolved at schedule time, so earlier events are
        charged to ``?``. *clock* (injected; e.g. ``time.perf_counter``
        passed by the caller) additionally enables host-time charging.
        """
        self._accounting = EventCostAccounting(clock=clock)
        return self._accounting

    @property
    def cost_accounting(self) -> Optional[EventCostAccounting]:
        return self._accounting

    def schedule_at(
        self,
        time: float,
        callback: EventCallback,
        *,
        owner: Optional[str] = None,
    ) -> Event:
        """Schedule *callback* at absolute *time* (ns). Returns the event.

        *owner* overrides the cost-accounting attribution label; by
        default the label is derived from the callback itself (and only
        when accounting is enabled — the default path stays allocation-
        identical to the unprofiled engine).
        """
        # One comparison rejects both the past and NaN (which compares
        # false with everything and would otherwise fire first).
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule event at {time}: before now {self.now} "
                "or not a number"
            )
        seq = self._seq
        event = Event(time, seq, callback)
        if self._accounting is not None:
            event.owner = owner if owner is not None else owner_label(callback)
        self._seq = seq + 1
        heappush(self._queue, (time, seq, event))
        return event

    def schedule_after(
        self,
        delay: float,
        callback: EventCallback,
        *,
        owner: Optional[str] = None,
    ) -> Event:
        """Schedule *callback* after *delay* ns from now."""
        if not delay >= 0:
            raise SimulationError(f"delay must be a non-negative number: {delay}")
        return self.schedule_at(self.now + delay, callback, owner=owner)

    def schedule_periodic(
        self,
        period: float,
        callback: EventCallback,
        *,
        start: Optional[float] = None,
    ) -> Event:
        """Schedule *callback* to repeat every *period* ns.

        The first firing is at *start* (default: one period from now). The
        returned event is the first occurrence; cancelling it stops the
        chain only before it first fires. For a stoppable periodic task,
        have the callback raise StopIteration — the chain then ends.
        """
        if not period > 0:
            raise SimulationError(f"period must be positive, got {period}")
        first = self.now + period if start is None else start
        # Attribute the whole periodic chain to the wrapped callback,
        # not this engine-local closure.
        chain_owner = (
            owner_label(callback) if self._accounting is not None else None
        )

        def tick() -> None:
            try:
                callback()
            except StopIteration:
                return
            self.schedule_after(period, tick, owner=chain_owner)

        return self.schedule_at(first, tick, owner=chain_owner)

    def stop(self) -> None:
        """Stop the run loop after the current callback returns."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Process events until the queue empties, *until* is reached, or
        *max_events* callbacks have run. Returns the final simulation time.

        When *until* is given, time advances exactly to *until* even if the
        last event fires earlier, so rate computations (events / elapsed
        time) are well defined.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        processed_this_run = 0
        accounting = self._accounting
        queue = self._queue
        try:
            while queue and not self._stopped:
                time, _, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    self._events_cancelled += 1
                    continue
                if until is not None and time > until:
                    break
                if max_events is not None and processed_this_run >= max_events:
                    break
                heappop(queue)
                self.now = time
                if accounting is None:
                    event.callback()
                else:
                    accounting.dispatch(event)
                self._events_processed += 1
                processed_this_run += 1
        finally:
            self._running = False
        if until is not None and not self._stopped:
            self.now = max(self.now, until)
        return self.now
