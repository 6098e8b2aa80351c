"""Per-channel memory scheduler.

Scheduling policy (paper Table V):

- three bounded queues per channel — RRM refresh (highest priority), read
  (middle), write (lowest);
- FR-FCFS within a queue: the oldest request whose bank can accept it wins,
  searched within a small associative window;
- open-page row-buffer policy for reads; writes are write-through and
  bypass the row buffer;
- write pausing: reads may preempt an in-flight write at SET boundaries;
- watermark-based write drain: because writes have the lowest priority,
  they issue only when no reads are waiting or when the write queue climbs
  above a high watermark (hysteresis down to a low watermark), which is how
  real controllers avoid both read interference and write-queue deadlock.

Backpressure is explicit: producers must call :meth:`MemoryController.can_accept`
first; when a queue is full they register a callback with
:meth:`MemoryController.notify_space` and are woken when space frees. This
is the mechanism through which long write latencies reach the CPU: the
write queue backs up, the LLC cannot evict, and the core stalls.

Instruments (attribution, trace spans, histograms, listeners) subscribe
through :meth:`MemoryController.add_observer`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine import Simulator
from repro.errors import ConfigError, SimulationError
from repro.memctrl.address_map import AddressMap
from repro.memctrl.queues import QueueSet
from repro.memctrl.request import MemRequest, RequestType
from repro.pcm.device import PCMDevice


@dataclass
class ControllerStats:
    """Aggregate controller statistics for one run."""

    reads_completed: int = 0
    writes_completed: int = 0
    rrm_refreshes_completed: int = 0
    rrm_slow_refreshes_completed: int = 0
    fast_writes: int = 0
    slow_writes: int = 0
    read_latency_sum_ns: float = 0.0
    write_latency_sum_ns: float = 0.0
    retention_violations: int = 0
    row_hits: int = 0
    row_misses: int = 0

    @property
    def avg_read_latency_ns(self) -> float:
        if not self.reads_completed:
            return 0.0
        return self.read_latency_sum_ns / self.reads_completed

    @property
    def avg_write_latency_ns(self) -> float:
        if not self.writes_completed:
            return 0.0
        return self.write_latency_sum_ns / self.writes_completed

    @property
    def row_hit_rate(self) -> float:
        accesses = self.row_hits + self.row_misses
        return self.row_hits / accesses if accesses else 0.0

    def register_metrics(self, registry, prefix: str = "memctrl") -> None:
        """Publish every counter (plus derived averages) into *registry*."""
        for field in fields(self):
            registry.gauge(
                f"{prefix}.{field.name}",
                lambda f=field.name: getattr(self, f),
            )
        registry.derived(
            f"{prefix}.avg_read_latency_ns", lambda: self.avg_read_latency_ns
        )
        registry.derived(
            f"{prefix}.avg_write_latency_ns", lambda: self.avg_write_latency_ns
        )
        registry.derived(f"{prefix}.row_hit_rate", lambda: self.row_hit_rate)


# Hot-path aliases: looking a member up on its Enum class is slow.
_READ = RequestType.READ
_WRITE = RequestType.WRITE
_RRM_REFRESH = RequestType.RRM_REFRESH


class MemoryController:
    """Schedules memory requests onto the PCM device banks."""

    #: Associative search depth for FR-FCFS queue scans.
    SCHED_WINDOW = 8

    def __init__(
        self,
        sim: Simulator,
        device: PCMDevice,
        address_map: Optional[AddressMap] = None,
        *,
        refresh_queue_capacity: int = 64,
        read_queue_capacity: int = 32,
        write_queue_capacity: int = 64,
        write_drain_high: Optional[int] = None,
        write_drain_low: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.device = device
        self.address_map = address_map or AddressMap(
            n_channels=device.n_channels,
            banks_per_channel=device.banks_per_channel,
            row_bytes=device.row_bytes,
            size_bytes=device.size_bytes,
        )
        self.stats = ControllerStats()
        self._queues: List[QueueSet] = [
            QueueSet(
                refresh_capacity=refresh_queue_capacity,
                read_capacity=read_queue_capacity,
                write_capacity=write_queue_capacity,
            )
            for _ in range(device.n_channels)
        ]
        self._write_drain_high = (
            write_drain_high if write_drain_high is not None else (write_queue_capacity * 3) // 4
        )
        self._write_drain_low = (
            write_drain_low if write_drain_low is not None else write_queue_capacity // 4
        )
        if not 0 <= self._write_drain_low <= self._write_drain_high <= write_queue_capacity:
            raise ConfigError("write drain watermarks out of order")
        self._draining_writes = [False] * device.n_channels
        #: Issued-but-unfinished request count per flat bank index.
        self._bank_inflight: List[int] = [0] * device.n_banks
        #: Issued-but-unfinished request count per channel.
        self._channel_inflight: List[int] = [0] * device.n_channels
        #: Banks flattened channel-major, matching the flat bank index.
        self._banks_flat = device.banks()
        self._banks_per_channel = device.banks_per_channel
        #: Per flat bank index: the in-flight write request and its
        #: completion event, so pausing reads can push the completion back.
        self._inflight_write: List[Optional[tuple]] = [None] * device.n_banks
        #: Per SET count: (latency, pause boundaries) of that write mode,
        #: filled on first use, so issuing a write neither looks the mode
        #: up nor rebuilds its boundary tuple.
        self._write_timing: Dict[int, Tuple[float, Tuple[float, ...]]] = {}
        self._fast_n_sets = device.modes.fast.n_sets
        self._slow_n_sets = device.modes.slow.n_sets
        #: Per-channel queue tuples in priority order (hot-path cache).
        self._priority_queues = [
            tuple(qs.in_priority_order()) for qs in self._queues
        ]
        #: Space waiters per (channel, request class name).
        self._space_waiters: Dict[Tuple[int, str], List[Callable[[], None]]] = {}
        #: Observer lists, one per hook point (see :meth:`add_observer`).
        self._enqueue_hooks: List[Callable] = []
        self._dequeue_hooks: List[Callable] = []
        self._read_issue_hooks: List[Callable] = []
        self._write_issue_hooks: List[Callable] = []
        self._pause_hooks: List[Callable] = []
        self._complete_hooks: List[Callable] = []

    # ------------------------------------------------------------------
    # Producer-facing API
    # ------------------------------------------------------------------
    def add_observer(
        self,
        *,
        on_enqueue: Optional[Callable] = None,
        on_dequeue: Optional[Callable] = None,
        on_read_issue: Optional[Callable] = None,
        on_write_issue: Optional[Callable] = None,
        on_write_paused: Optional[Callable] = None,
        on_complete: Optional[Callable] = None,
    ) -> None:
        """Subscribe read-only callables to the scheduler's hook points:
        ``on_enqueue(request)`` before the queue push;
        ``on_dequeue(queue, request, n_bypassed)`` when ``_kick`` picks it;
        ``on_read_issue(request, row_hit)`` / ``on_write_issue(request)``
        once start/finish are set; ``on_write_paused(write, read,
        new_end_ns)``; ``on_complete(request)`` after the stats, before
        ``request.on_complete``. Hooks fire in registration order; a
        point with no observer costs one truthiness check.
        """
        for hooks, fn in (
            (self._enqueue_hooks, on_enqueue),
            (self._dequeue_hooks, on_dequeue),
            (self._read_issue_hooks, on_read_issue),
            (self._write_issue_hooks, on_write_issue),
            (self._pause_hooks, on_write_paused),
            (self._complete_hooks, on_complete),
        ):
            if fn is not None:
                hooks.append(fn)

    def register_metrics(self, registry) -> None:
        """Publish controller stats and queue-depth gauges into *registry*."""
        self.stats.register_metrics(registry)
        registry.gauge("memctrl.pending_requests", self.pending_requests)
        registry.gauge("memctrl.inflight_requests", self.inflight_requests)

    def can_accept(self, rtype: RequestType, block: int) -> bool:
        """Whether the queue a (*rtype*, *block*) request maps to has room."""
        channel = self.address_map.channel_of_block(block)
        return not self._queues[channel].queue_for(rtype).full

    def enqueue(self, request: MemRequest) -> None:
        """Accept a request. The caller must have checked :meth:`can_accept`."""
        request.decoded = decoded = self.address_map.decode_block(request.block)
        request.bank_index = decoded.channel * self._banks_per_channel + decoded.bank
        request.issue_time_ns = self.sim.now
        if self._enqueue_hooks:
            for fn in self._enqueue_hooks:
                fn(request)
        self._queues[decoded.channel].queue_for(request.rtype).push(request)
        self._kick(decoded.channel)

    def notify_space(self, rtype: RequestType, block: int, callback: Callable[[], None]) -> None:
        """Invoke *callback* once the queue for (*rtype*, *block*) frees a slot.

        One-shot: the callback is dropped after firing and should re-check
        :meth:`can_accept` (another producer may have raced for the slot).
        """
        channel = self.address_map.channel_of_block(block)
        key = (channel, self._queues[channel].queue_for(rtype).name)
        self._space_waiters.setdefault(key, []).append(callback)

    def pending_requests(self) -> int:
        """Requests sitting in any queue (not yet issued to a bank)."""
        return sum(qs.total_pending for qs in self._queues)

    def inflight_requests(self) -> int:
        """Requests issued to banks but not yet completed."""
        return sum(self._bank_inflight)

    def idle(self) -> bool:
        """True when no request is queued or in flight."""
        return self.pending_requests() == 0 and self.inflight_requests() == 0

    # ------------------------------------------------------------------
    # Scheduler core
    # ------------------------------------------------------------------
    def _kick(self, channel: int) -> None:
        """Issue every request that can be serviced on *channel* right now.

        Hot path: the per-queue scan is inlined (no per-entry callback),
        and queues other than the read queue are skipped outright when
        every bank on the channel is busy — only reads can still start,
        by pausing an in-flight write. Writes issue when draining or when
        no higher-priority work waits. The drain state is updated once
        per call but read on every pass, because the space waiters a
        pass wakes re-enter this method and may move it.
        """
        queues = self._queues[channel]
        read_queue = queues.read_queue
        write_queue = queues.write_queue
        reads = read_queue._entries
        refreshes = queues.refresh_queue._entries
        draining = self._draining_writes
        occupancy = len(write_queue._entries)
        if occupancy >= self._write_drain_high:
            draining[channel] = True
        elif occupancy <= self._write_drain_low:
            draining[channel] = False
        channel_inflight = self._channel_inflight
        n_banks = self._banks_per_channel
        if channel_inflight[channel] == n_banks and not reads:
            return

        now = self.sim.now
        inflight = self._bank_inflight
        banks = self._banks_flat
        window = self.SCHED_WINDOW
        dequeue_hooks = self._dequeue_hooks
        space_waiters = self._space_waiters
        priority_queues = self._priority_queues[channel]
        while True:
            all_busy = channel_inflight[channel] == n_banks
            for queue in priority_queues:
                if all_busy and queue is not read_queue:
                    continue
                entries = queue._entries
                if not entries:
                    continue
                if (queue is write_queue and not draining[channel]
                        and (reads or refreshes)):
                    continue
                pick = -1
                for i, req in enumerate(entries):
                    if i == window:
                        break
                    n = inflight[req.bank_index]
                    if n == 0:
                        pick = i
                        break
                    if n == 1 and req.rtype is _READ:
                        bank = banks[req.bank_index]
                        # A single in-flight pausable write lets a read cut in.
                        if bank.read_start_time(now) < bank.available_at(now):
                            pick = i
                            break
                if pick >= 0:
                    request = entries[pick]
                    del entries[pick]
                    if dequeue_hooks:
                        for fn in dequeue_hooks:
                            fn(queue, request, pick)
                    self._issue(channel, request)
                    if space_waiters:
                        self._wake_space_waiters(channel, queue.name)
                    break  # restart from the highest-priority queue
            else:
                return

    def _issue(self, channel: int, request: MemRequest) -> None:
        bank_index = request.bank_index
        bank = self._banks_flat[bank_index]
        now = self.sim.now

        is_write = request.rtype is not _READ
        if not is_write:
            start, finish, hit = bank.schedule_read(now, request.decoded.row)
            if hit:
                self.stats.row_hits += 1
            else:
                self.stats.row_misses += 1
        else:
            if request.n_sets is None:
                raise SimulationError(f"write request without a mode: {request}")
            timing = self._write_timing.get(request.n_sets)
            if timing is None:
                mode = self.device.modes.mode(request.n_sets)
                timing = self._write_timing[request.n_sets] = (
                    mode.latency_ns, mode.set_boundaries_ns
                )
            latency_ns, boundaries_ns = timing
            start, finish = bank.schedule_write(
                now, request.decoded.row, latency_ns, boundaries_ns
            )

        request.start_time_ns = start
        request.finish_time_ns = finish
        if is_write:
            if self._write_issue_hooks:
                for fn in self._write_issue_hooks:
                    fn(request)
        elif self._read_issue_hooks:
            for fn in self._read_issue_hooks:
                fn(request, hit)
        self._bank_inflight[bank_index] += 1
        self._channel_inflight[channel] += 1
        event = self.sim.schedule_at(finish, lambda: self._complete(channel, request))
        if is_write:
            self._inflight_write[bank_index] = (request, event)
        else:
            self._reschedule_paused_write(channel, request, bank)

    def _reschedule_paused_write(self, channel: int, read_request: MemRequest, bank) -> None:
        """If the read just issued paused this bank's in-flight write, move
        the write's completion event to the extended finish time."""
        entry = self._inflight_write[read_request.bank_index]
        if entry is None:
            return
        write_request, event = entry
        new_end = bank.write_end_time()
        if new_end is None or new_end <= write_request.finish_time_ns:
            return
        event.cancel()
        write_request.finish_time_ns = new_end
        new_event = self.sim.schedule_at(
            new_end, lambda: self._complete(channel, write_request)
        )
        self._inflight_write[read_request.bank_index] = (write_request, new_event)
        if self._pause_hooks:
            for fn in self._pause_hooks:
                fn(write_request, read_request, new_end)

    def _complete(self, channel: int, request: MemRequest) -> None:
        bank_index = request.bank_index
        bank_inflight = self._bank_inflight
        bank_inflight[bank_index] -= 1
        self._channel_inflight[channel] -= 1
        if bank_inflight[bank_index] < 0:
            raise SimulationError("bank in-flight count went negative")
        entry = self._inflight_write[bank_index]
        if entry is not None and entry[0] is request:
            self._inflight_write[bank_index] = None

        finish = request.finish_time_ns
        assert finish is not None
        latency = finish - request.issue_time_ns

        stats = self.stats
        rtype = request.rtype
        if rtype is _READ:
            stats.reads_completed += 1
            stats.read_latency_sum_ns += latency
        elif rtype is _WRITE:
            stats.writes_completed += 1
            stats.write_latency_sum_ns += latency
            if request.n_sets == self._fast_n_sets:
                stats.fast_writes += 1
            elif request.n_sets == self._slow_n_sets:
                stats.slow_writes += 1
        elif rtype is _RRM_REFRESH:
            stats.rrm_refreshes_completed += 1
        else:
            stats.rrm_slow_refreshes_completed += 1

        deadline = request.deadline_ns
        if deadline is not None and finish > deadline:
            stats.retention_violations += 1

        # Observers run before the requester wakes: a woken core emits
        # monitor trace events, which must follow this request's span.
        if self._complete_hooks:
            for fn in self._complete_hooks:
                fn(request)
        if request.on_complete is not None:
            request.on_complete(finish)

        self._kick(channel)

    def _wake_space_waiters(self, channel: int, queue_name: str) -> None:
        waiters = self._space_waiters.pop((channel, queue_name), None)
        if not waiters:
            return
        for callback in waiters:
            callback()
