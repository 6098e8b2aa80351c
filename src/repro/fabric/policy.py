"""Retry policy and the structured failure a job degrades to.

:class:`RetryPolicy` gives bounded retries with exponential backoff and
seeded jitter; a job that exhausts it becomes a :class:`FailedRun`.

Backoff delays are a pure function of ``(seed, job key, attempt)`` so a
sweep replayed with the same seed produces an identical retry schedule —
the same determinism contract the simulator itself offers. Jitter exists
to de-synchronise retries of jobs that failed together (e.g. all workers
OOM-killed at once), and hashing rather than a shared RNG keeps it
independent of completion order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import CorruptResultError, JobCrashedError, JobTimeoutError

#: Exception type names that indicate a deterministic input problem; the
#: job would fail identically on every attempt, so retrying is wasted work.
NON_RETRYABLE_ERRORS = frozenset({"ConfigError", "TraceFormatError"})


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-run a failed job, and how long to wait."""

    #: Re-tries after the first attempt (total attempts = 1 + max_retries).
    max_retries: int = 2
    #: Delay before the first retry, in seconds.
    base_delay_s: float = 0.1
    #: Multiplier applied per additional retry.
    backoff_factor: float = 2.0
    #: Cap on any single delay.
    max_delay_s: float = 5.0
    #: Delays are perturbed by up to +/- this fraction.
    jitter_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if not 0 <= self.jitter_fraction <= 1:
            raise ValueError("jitter_fraction must be in [0, 1]")

    # ------------------------------------------------------------------
    def should_retry(self, attempt: int, error_type: str) -> bool:
        """Whether a job that has run *attempt* times (>= 1) and last
        failed with exception type *error_type* deserves another try."""
        if error_type in NON_RETRYABLE_ERRORS:
            return False
        return attempt <= self.max_retries

    def delay_s(self, key: Tuple, attempt: int, seed: int = 0) -> float:
        """Backoff before retry number *attempt* (1-based) of job *key*.

        Deterministic: same (seed, key, attempt) -> same delay, across
        processes and runs (uses SHA-256, not ``hash()``, so it is immune
        to ``PYTHONHASHSEED``).
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = min(
            self.base_delay_s * self.backoff_factor ** (attempt - 1),
            self.max_delay_s,
        )
        if base == 0 or self.jitter_fraction == 0:
            return base
        digest = hashlib.sha256(
            f"{seed}|{key!r}|{attempt}".encode("utf-8")
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return base * (1.0 + self.jitter_fraction * (2.0 * unit - 1.0))

    def schedule(self, key: Tuple, seed: int = 0) -> "list[float]":
        """The full delay schedule a job would follow if it kept failing."""
        return [
            self.delay_s(key, attempt, seed)
            for attempt in range(1, self.max_retries + 1)
        ]


@dataclass
class FailedRun:
    """A job that exhausted its retries; the degraded stand-in for a result."""

    key: Tuple
    kind: str  # "timeout" | "crash" | "error" | "corrupt"
    message: str
    attempts: int
    elapsed_s: float = 0.0
    #: Path of the worker's flight-recorder dump, when one was written
    #: (workers with a recorder dir); the post-mortem pointer that makes
    #: a ``crash`` failure explainable.
    recorder_path: Optional[str] = None

    _ERROR_TYPES = {
        "timeout": JobTimeoutError,
        "crash": JobCrashedError,
        "corrupt": CorruptResultError,
    }

    def to_error(self) -> Exception:
        """The matching exception, for callers that want to raise."""
        return self._ERROR_TYPES.get(self.kind, JobCrashedError)(
            f"{self.key}: {self.message} (after {self.attempts} attempts)"
        )

    def as_dict(self) -> dict:
        d = {
            "key": list(self.key),
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
        }
        if self.recorder_path is not None:
            d["recorder_path"] = self.recorder_path
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FailedRun":
        return cls(
            key=tuple(d["key"]),
            kind=d["kind"],
            message=d["message"],
            attempts=d["attempts"],
            elapsed_s=d.get("elapsed_s", 0.0),
            recorder_path=d.get("recorder_path"),
        )
