"""Property-based tests (hypothesis) on the memory controller.

Random small device/queue configurations serve random request streams
from a backpressure-respecting producer: a request the controller
refuses waits on ``notify_space`` and retries. The run is observed only
through :meth:`MemoryController.add_observer`, and must satisfy:

- every enqueued request is dequeued, issued and completed exactly once,
  in that order, and completes at its finish time;
- no queue ever holds more than its capacity;
- nothing is pending or in flight once the engine drains;
- an attached :class:`AttributionCollector` conserves every request's
  latency exactly (worst error 0.0 ns).
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attribution import AttributionCollector
from repro.engine import Simulator
from repro.memctrl.controller import MemoryController
from repro.memctrl.request import MemRequest, RequestType
from repro.pcm.device import PCMDevice

#: Demand and refresh classes with the write mode each is issued in
#: (None: a read; "fast"/"slow": the device's fast or slow mode).
CLASSES = (
    (RequestType.READ, None),
    (RequestType.WRITE, "fast"),
    (RequestType.WRITE, "slow"),
    (RequestType.RRM_REFRESH, "fast"),
    (RequestType.RRM_SLOW_REFRESH, "slow"),
)


@st.composite
def scenarios(draw):
    config = {
        "n_channels": draw(st.sampled_from([1, 2])),
        "banks_per_channel": draw(st.sampled_from([1, 2, 4])),
        "allow_write_pausing": draw(st.booleans()),
        "refresh_capacity": draw(st.integers(min_value=1, max_value=4)),
        "read_capacity": draw(st.integers(min_value=1, max_value=4)),
        "write_capacity": draw(st.integers(min_value=1, max_value=6)),
    }
    stream = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=len(CLASSES) - 1),
            # A few rows per bank: row hits, misses and bank conflicts.
            st.integers(min_value=0, max_value=255),
            # Arrival gaps from back-to-back bursts to idle spells.
            st.sampled_from([0.0, 0.0, 5.0, 40.0, 300.0, 2000.0]),
        ),
        min_size=1,
        max_size=60,
    ))
    return config, stream


def _build(config):
    sim = Simulator()
    device = PCMDevice(
        size_bytes=1 << 20,
        n_channels=config["n_channels"],
        banks_per_channel=config["banks_per_channel"],
        allow_write_pausing=config["allow_write_pausing"],
    )
    controller = MemoryController(
        sim,
        device,
        refresh_queue_capacity=config["refresh_capacity"],
        read_queue_capacity=config["read_capacity"],
        write_queue_capacity=config["write_capacity"],
    )
    return sim, device, controller


def _drive(sim, device, controller, stream):
    """Schedule the stream's arrivals; refused requests wait for space."""
    n_sets = {"fast": device.modes.fast.n_sets, "slow": device.modes.slow.n_sets}
    requests = []

    def offer(request):
        if controller.can_accept(request.rtype, request.block):
            controller.enqueue(request)
        else:
            controller.notify_space(
                request.rtype, request.block, lambda: offer(request)
            )

    now = 0.0
    for class_index, block, gap in stream:
        rtype, mode = CLASSES[class_index]
        request = MemRequest(
            rtype=rtype, block=block, n_sets=n_sets[mode] if mode else None
        )
        requests.append(request)
        now += gap
        sim.schedule_at(now, lambda request=request: offer(request))
    return requests


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_controller_serves_every_request_exactly_once(scenario):
    config, stream = scenario
    sim, device, controller = _build(config)
    queues = [q for qs in controller._queues for q in qs.in_priority_order()]
    log = defaultdict(list)

    def note(request, step):
        # Occupancy is checked at every hook point, not only at the end.
        assert all(len(queue) <= queue.capacity for queue in queues)
        log[request.req_id].append(step)

    def on_complete(request):
        assert sim.now == request.finish_time_ns
        assert request.issue_time_ns <= request.start_time_ns <= sim.now
        note(request, "complete")

    controller.add_observer(
        on_enqueue=lambda request: note(request, "enqueue"),
        on_dequeue=lambda queue, request, n_bypassed: note(request, "dequeue"),
        on_read_issue=lambda request, row_hit: note(request, "issue"),
        on_write_issue=lambda request: note(request, "issue"),
        on_complete=on_complete,
    )
    requests = _drive(sim, device, controller, stream)
    sim.run()

    assert {r.req_id for r in requests} == set(log)
    for request in requests:
        assert log[request.req_id] == ["enqueue", "dequeue", "issue", "complete"]
    for queue in queues:
        assert queue.peak_occupancy <= queue.capacity
        assert queue.rejected == 0
    assert controller.pending_requests() == 0
    assert controller.inflight_requests() == 0
    assert controller.idle()


@given(scenarios())
@settings(max_examples=100, deadline=None)
def test_attribution_conserves_latency_exactly(scenario):
    config, stream = scenario
    sim, device, controller = _build(config)
    collector = AttributionCollector(
        n_banks=device.n_banks,
        banks_per_channel=device.banks_per_channel,
        fast_n_sets=device.modes.fast.n_sets,
        slow_n_sets=device.modes.slow.n_sets,
        row_hit_read_ns=device.timings.row_hit_read_ns,
    )
    controller.add_observer(
        on_enqueue=collector.on_enqueue,
        on_dequeue=collector.on_dequeue,
        on_read_issue=collector.on_read_issue,
        on_write_issue=collector.on_write_issue,
        on_write_paused=collector.on_write_paused,
        on_complete=collector.on_complete,
    )
    requests = _drive(sim, device, controller, stream)
    sim.run()

    assert collector.requests_observed == len(requests)
    assert collector.conservation_checks == len(requests)
    assert collector.max_conservation_error_ns == 0.0
