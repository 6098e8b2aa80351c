"""Bit-identity of the instrumented outputs, not only of the results.

``tests/test_golden_digests.py`` pins ``SimResult.as_dict()`` and runs
attribution with the tracer off, so nothing there notices a change in
trace-event order, in span arguments or in the latency histograms. This
test runs one short traced, attributed and sampled tiny cell and pins
sha256 digests of the three instrument outputs:

- the tracer's event list (``TraceEvent.to_jsonl()`` records, in order);
- the attribution summary on ``SimResult.attribution``;
- the ``memctrl.*_latency_hist_ns`` histogram snapshots.

The digests were computed before the controller's instrumentation moved
behind ``MemoryController.add_observer``; they must not change when
instruments are rewired, only when what they measure changes.
"""

import hashlib
import json

from repro.sim.config import SystemConfig
from repro.sim.schemes import Scheme
from repro.sim.system import System
from repro.telemetry import TelemetryConfig

#: Simulated length of the cell: ~2 ms of tiny GemsFDTD under RRM.
DURATION_S = 0.002

TELEMETRY = TelemetryConfig(attribution=True, metrics_interval_s=0.0005)

HISTOGRAMS = ("memctrl.read_latency_hist_ns", "memctrl.write_latency_hist_ns")

EXPECTED = {
    "trace": "cf614afebb3fec7a65df8004d5b6cd66982d5283ce2dc5c4aad0b0d350f7c849",
    "attribution": "a3dcc2f63837cf8c52f2c742f3c34f0870bfd778deef45c81426401ea862ace8",
    "histograms": "1c18117ad870c9a56fbb454b727622294032e350b90c31da098f54d53ab57206",
}


def _digest(value) -> str:
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _instrument_digests() -> dict:
    config = SystemConfig.tiny(1).with_duration(DURATION_S)
    system = System(config, "GemsFDTD", Scheme.RRM, telemetry=TELEMETRY)
    result = system.run()
    snap = system.telemetry.registry.snapshot()
    events = [event.to_jsonl() for event in system.telemetry.tracer.events()]
    return {
        "trace": _digest(events),
        "attribution": _digest(result.attribution),
        "histograms": _digest({name: snap[name] for name in HISTOGRAMS}),
    }


def test_instrument_outputs_match_committed_digests():
    assert _instrument_digests() == EXPECTED
