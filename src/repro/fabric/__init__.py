"""The sweep fabric: the one sweep executor, and batch serving over it.

Two layers over the same journal:

- :class:`FabricExecutor` runs a sweep on N worker processes (N >= 1)
  that share the checkpoint journal (:class:`ResultJournal`) as a
  work-stealing queue, keeping results bit-identical to in-process
  :func:`~repro.sim.runner.run_workload` while crashes, timeouts,
  retries (:class:`RetryPolicy`), fault injection (:class:`FaultPlan`)
  and ``--resume`` compose; a job that exhausts its retries degrades to
  a :class:`FailedRun`;
- :class:`FabricServer` / :class:`FabricClient` wrap the executor in a
  thin line-delimited-JSON batch service (``repro-rrm serve`` /
  ``submit`` / ``status``) that streams progress events, ledger entries
  and gate verdicts.
"""

from repro.fabric.client import FabricClient
from repro.fabric.executor import FabricExecutor, FabricOutcome, FabricStats
from repro.fabric.faultinject import FaultPlan, FaultSpec
from repro.fabric.journal import Claim, JournalContents, ResultJournal
from repro.fabric.locking import FileLock
from repro.fabric.policy import FailedRun, RetryPolicy
from repro.fabric.protocol import (
    PROTOCOL_VERSION,
    LineChannel,
    connect,
    listen,
    parse_address,
)
from repro.fabric.server import FabricServer
from repro.fabric.spec import SweepSpec

__all__ = [
    "PROTOCOL_VERSION",
    "Claim",
    "FabricClient",
    "FabricExecutor",
    "FabricOutcome",
    "FabricServer",
    "FabricStats",
    "FailedRun",
    "FaultPlan",
    "FaultSpec",
    "FileLock",
    "JournalContents",
    "LineChannel",
    "ResultJournal",
    "RetryPolicy",
    "SweepSpec",
    "connect",
    "listen",
    "parse_address",
]
