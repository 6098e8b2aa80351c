"""Bounded request queues with the paper's priority ordering.

Each channel owns a :class:`QueueSet`: an RRM refresh queue (64 entries,
highest priority), a read queue (32 entries, middle priority) and a write
queue (64 entries, lowest priority). Queues are FIFO within a class; the
scheduler may still pick a younger request whose bank is free (FR-FCFS
style). The pick rule lives in ``MemoryController._kick``, which scans
``BoundedQueue._entries`` inline: it also lets a read cut into a bank's
in-flight pausable write, which a per-request readiness test cannot see.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable, List, Optional

from repro.errors import QueueFullError
from repro.memctrl.request import MemRequest, RequestType

# Hot-path aliases: looking a member up on its Enum class is slow.
_READ = RequestType.READ
_WRITE = RequestType.WRITE


@dataclass
class BoundedQueue:
    """FIFO queue with a hardware capacity."""

    capacity: int
    name: str = "queue"
    _entries: Deque[MemRequest] = field(default_factory=deque)
    peak_occupancy: int = 0
    total_enqueued: int = 0
    rejected: int = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def push(self, request: MemRequest) -> None:
        """Enqueue; raises :class:`QueueFullError` if at capacity.

        Callers that model backpressure must check :attr:`full` first —
        an unchecked overflow is a protocol bug, not a hardware behaviour.
        """
        entries = self._entries
        if len(entries) >= self.capacity:
            self.rejected += 1
            raise QueueFullError(f"{self.name} full at {self.capacity} entries")
        entries.append(request)
        self.total_enqueued += 1
        if len(entries) > self.peak_occupancy:
            self.peak_occupancy = len(entries)

    def pop(self) -> MemRequest:
        """Dequeue the oldest request."""
        return self._entries.popleft()

    def peek(self) -> Optional[MemRequest]:
        return self._entries[0] if self._entries else None

    def register_metrics(self, registry, prefix: str) -> None:
        """Publish queue pressure counters into *registry*."""
        registry.gauge(f"{prefix}.depth", lambda: len(self._entries))
        registry.gauge(f"{prefix}.peak_occupancy", lambda: self.peak_occupancy)
        registry.gauge(f"{prefix}.total_enqueued", lambda: self.total_enqueued)
        registry.gauge(f"{prefix}.rejected", lambda: self.rejected)

    def __iter__(self) -> Iterable[MemRequest]:
        return iter(self._entries)


@dataclass
class QueueSet:
    """The three per-channel queues, in priority order."""

    refresh_capacity: int = 64
    read_capacity: int = 32
    write_capacity: int = 64

    def __post_init__(self) -> None:
        self.refresh_queue = BoundedQueue(self.refresh_capacity, name="rrm-refresh-q")
        self.read_queue = BoundedQueue(self.read_capacity, name="read-q")
        self.write_queue = BoundedQueue(self.write_capacity, name="write-q")

    def queue_for(self, rtype: RequestType) -> BoundedQueue:
        """The queue a request class maps to (both RRM refresh classes
        share the refresh queue)."""
        if rtype is _READ:
            return self.read_queue
        if rtype is _WRITE:
            return self.write_queue
        return self.refresh_queue

    def in_priority_order(self) -> List[BoundedQueue]:
        """Queues from highest to lowest scheduling priority."""
        return [self.refresh_queue, self.read_queue, self.write_queue]

    @property
    def total_pending(self) -> int:
        return sum(len(q) for q in self.in_priority_order())
