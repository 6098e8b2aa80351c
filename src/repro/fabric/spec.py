"""Sweep specifications: the unit of work the fabric schedules.

A :class:`SweepSpec` is the JSON-serializable description of one sweep —
stock configuration name, seed, workloads, schemes, worker count — used
both by ``repro-rrm serve`` (clients submit specs over the wire) and by
tests that need a compact way to describe a sweep. It deliberately only
covers the *stock* configurations (``tiny``/``scaled``/``paper`` plus a
duration override): a spec must be reconstructible from its JSON form on
the other side of a socket, which rules out arbitrary config objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigError
from repro.fabric.faultinject import FaultPlan, FaultSpec
from repro.sim.config import SystemConfig
from repro.sim.schemes import Scheme, all_schemes, scheme_from_name
from repro.workloads.mixes import all_workload_names

CONFIG_NAMES = ("scaled", "paper", "tiny")


@dataclass(frozen=True)
class SweepSpec:
    """One schedulable sweep, as submitted to the fabric."""

    config_name: str = "tiny"
    seed: int = 1
    duration_s: Optional[float] = None
    workloads: Tuple[str, ...] = ()
    schemes: Tuple[str, ...] = ()  # canonical Scheme values
    max_events: Optional[int] = None
    jobs: int = 1
    #: Fault-injection specs (``KIND:TARGET[:MAX_FIRES]``), validated at
    #: construction so a typo'd drill is rejected at submit time, not
    #: mid-sweep. Empty means no injection.
    faults: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.config_name not in CONFIG_NAMES:
            raise ConfigError(
                f"unknown config {self.config_name!r}; "
                f"expected one of {CONFIG_NAMES}"
            )
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.max_events is not None and self.max_events < 1:
            raise ConfigError(
                f"max_events must be >= 1, got {self.max_events}"
            )
        for spec in self.faults:
            FaultSpec.parse(spec)

    # ------------------------------------------------------------------
    @classmethod
    def make(
        cls,
        *,
        config_name: str = "tiny",
        seed: int = 1,
        duration_s: Optional[float] = None,
        workloads: Optional[List[str]] = None,
        schemes: Optional[List[str]] = None,
        max_events: Optional[int] = None,
        jobs: int = 1,
        faults: Optional[List[str]] = None,
    ) -> "SweepSpec":
        """Build a spec, defaulting workloads/schemes to the full matrix
        and normalising scheme names to canonical values."""
        return cls(
            config_name=config_name,
            seed=seed,
            duration_s=duration_s,
            workloads=tuple(workloads or all_workload_names()),
            schemes=tuple(
                scheme_from_name(s).value for s in schemes
            )
            if schemes
            else tuple(s.value for s in all_schemes()),
            max_events=max_events,
            jobs=jobs,
            faults=tuple(faults or ()),
        )

    # ------------------------------------------------------------------
    def build_config(self) -> SystemConfig:
        if self.config_name == "paper":
            config = SystemConfig.paper(seed=self.seed)
        elif self.config_name == "tiny":
            config = SystemConfig.tiny(seed=self.seed)
        else:
            config = SystemConfig.scaled(seed=self.seed)
        if self.duration_s is not None:
            config = config.with_duration(self.duration_s)
        return config

    def build_schemes(self) -> List[Scheme]:
        return [Scheme(value) for value in self.schemes]

    def keys(self) -> List[Tuple[str, str]]:
        """The sweep's (workload, scheme value) job keys, sweep order."""
        return [(w, s) for w in self.workloads for s in self.schemes]

    def build_fault_plan(self):
        """The spec's :class:`~repro.fabric.faultinject.FaultPlan`,
        or ``None`` when no faults are requested."""
        if not self.faults:
            return None
        return FaultPlan.parse(self.faults)

    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "config": self.config_name,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "workloads": list(self.workloads),
            "schemes": list(self.schemes),
            "max_events": self.max_events,
            "jobs": self.jobs,
            "faults": list(self.faults),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SweepSpec":
        """Parse a wire-format spec, validating names loudly."""
        if not isinstance(d, dict):
            raise ConfigError(f"sweep spec must be an object, got {type(d).__name__}")
        known = {
            "config", "seed", "duration_s", "workloads", "schemes",
            "max_events", "jobs", "faults",
        }
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError(f"unknown sweep spec field(s): {', '.join(unknown)}")
        try:
            return cls.make(
                config_name=d.get("config", "tiny"),
                seed=int(d.get("seed", 1)),
                duration_s=(
                    float(d["duration_s"])
                    if d.get("duration_s") is not None
                    else None
                ),
                workloads=d.get("workloads") or None,
                schemes=d.get("schemes") or None,
                max_events=(
                    int(d["max_events"])
                    if d.get("max_events") is not None
                    else None
                ),
                jobs=int(d.get("jobs", 1)),
                faults=[str(s) for s in d.get("faults") or []],
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad sweep spec: {exc}") from None
