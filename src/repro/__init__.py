"""repro — Region Retention Monitor for MLC PCM.

A from-scratch Python reproduction of "Balancing Performance and Lifetime
of MLC PCM by Using a Region Retention Monitor" (HPCA 2017): the RRM
structure itself plus every substrate it depends on — an MLC PCM device
model with resistance drift, a memory controller with prioritised queues
and write pausing, a cache hierarchy, a trace-driven multi-core CPU model
and synthetic SPEC2006-like workloads.

Quickstart::

    from repro import SystemConfig, Scheme, run_workload

    config = SystemConfig.scaled()
    result = run_workload(config, "GemsFDTD", Scheme.RRM)
    print(result.summary())
"""

from repro.core import RRMConfig, RegionRetentionMonitor
from repro.pcm import DriftModel, DriftParameters, WriteMode, WriteModeTable
from repro.fabric import FailedRun, FaultPlan, ResultJournal, RetryPolicy
from repro.sim import (
    ExperimentRunner,
    MemoryConfig,
    Scheme,
    SimResult,
    System,
    SystemConfig,
    run_workload,
)
from repro.telemetry import (
    MetricRegistry,
    MetricSampler,
    Telemetry,
    TelemetryConfig,
    Tracer,
)
from repro.workloads import BENCHMARKS, MIXES, get_benchmark

__version__ = "1.8.0"

__all__ = [
    "RRMConfig",
    "RegionRetentionMonitor",
    "DriftModel",
    "DriftParameters",
    "WriteMode",
    "WriteModeTable",
    "ExperimentRunner",
    "FailedRun",
    "FaultPlan",
    "MemoryConfig",
    "MetricRegistry",
    "MetricSampler",
    "ResultJournal",
    "RetryPolicy",
    "Scheme",
    "SimResult",
    "System",
    "SystemConfig",
    "Telemetry",
    "TelemetryConfig",
    "Tracer",
    "run_workload",
    "BENCHMARKS",
    "MIXES",
    "get_benchmark",
    "__version__",
]
