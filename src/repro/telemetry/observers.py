"""Memory-controller ``on_complete`` observers (``add_observer``): request
spans and latency histograms. Both only read times the controller set."""

from __future__ import annotations

from typing import Callable

from repro.memctrl.request import MemRequest, RequestType

#: Bucket upper bounds (ns) of the controller's latency histograms.
LATENCY_BOUNDS_NS = (50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000)

# Hot-path aliases: looking a member up on its Enum class is slow.
_READ = RequestType.READ
_WRITE = RequestType.WRITE


def request_spans(tracer) -> Callable[[MemRequest], None]:
    """One ``X`` span per request on its bank's lane (args: queue wait,
    write mode, anatomy), plus a ``retention_violation`` instant when it
    finished past its deadline."""

    def on_complete(request: MemRequest) -> None:
        start = request.start_time_ns
        finish = request.finish_time_ns
        assert start is not None and finish is not None
        args: dict = {"block": request.block, "wait_ns": start - request.issue_time_ns}
        if request.n_sets is not None:
            args["n_sets"] = request.n_sets
        anatomy = request.anatomy
        if anatomy is not None:
            # Finalised by the attribution collector's earlier observer.
            args["anatomy"] = anatomy.trace_args()  # type: ignore[attr-defined]
        tracer.complete(
            request.rtype.value, "memctrl", start, finish - start,
            args=args, tid=request.bank_index,
        )
        deadline = request.deadline_ns
        if deadline is not None and finish > deadline:
            tracer.instant(
                "retention_violation",
                "memctrl",
                args={"block": request.block, "late_ns": finish - deadline},
                tid=request.bank_index,
            )

    return on_complete


def latency_histograms(registry) -> Callable[[MemRequest], None]:
    """Register the demand read/write latency histograms in *registry*;
    return the observer that records into them."""
    read_hist = registry.histogram("memctrl.read_latency_hist_ns", LATENCY_BOUNDS_NS)
    write_hist = registry.histogram("memctrl.write_latency_hist_ns", LATENCY_BOUNDS_NS)

    def on_complete(request: MemRequest) -> None:
        finish = request.finish_time_ns
        assert finish is not None
        rtype = request.rtype
        if rtype is _READ:
            read_hist.record(finish - request.issue_time_ns)
        elif rtype is _WRITE:
            write_hist.record(finish - request.issue_time_ns)

    return on_complete
