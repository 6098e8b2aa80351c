"""The sweep checkpoint journal: crash-safe JSONL that is also the queue.

One journal file per sweep. Its first line is a metadata record; every
settled job appends a result or failure record, so an interrupted sweep
resumes from everything that completed. Sweep workers share the same
file as their work queue, claiming jobs with *lease* records and
settling them with the usual result/failure records. All scheduling
state lives in the file, so worker crashes, coordinator crashes and
``--resume`` compose: whatever survives in the journal *is* the truth.

Record shapes::

    {"type": "meta", "version": 1, "seed": ..., "workloads": [...], "schemes": [...]}
    {"type": "result", "workload": w, "scheme": s, "result": {...}}
    {"type": "failure", "workload": w, "scheme": s, "failure": {...}}
    {"type": "claim", "workload": w, "scheme": s, "worker": id,
     "attempt": n, "expires_unix_s": t}
    {"type": "release", "workload": w, "scheme": s, "worker": id,
     "reason": "retry:<ErrorType>" | "crash" | "timeout"}

Result and failure records written by a worker also carry its
``"worker"`` id. ``reason`` is free-form evidence for post-mortems
(retry releases carry the exception type that caused them); nothing
dispatches on it.

Concurrency and durability:

- every read-decide-append critical section runs under an exclusive
  :class:`~repro.fabric.locking.FileLock` on ``<journal>.lock``;
- records are appended with a single ``O_APPEND`` write (POSIX appends
  don't interleave), and the appender repairs a torn tail (a crash mid-
  write) by truncating the fragment before adding its own line — a
  fragment is by definition an incomplete record from a dead writer, so
  dropping it loses nothing;
- the loader likewise drops a truncated *final* line (that job simply
  re-runs), while an unreadable line anywhere before the end is real
  corruption and raises :class:`~repro.errors.CheckpointCorruptError`;
- a *claim* carries a wall-clock lease deadline. A claim whose lease
  expired, or that was explicitly released (worker death, retry,
  timeout), makes the job claimable again with the next attempt number
  — attempt counts are derived from the journal, so deterministic
  fault plans (``crash:0:1``) fire identically under any worker count.

Exactly-once: a job is *done* when a result or failure record exists.
Claims are advisory. In the worst race (a lease expires while its
worker is still running) two workers may run the same job, but the
simulation is deterministic per seed, so both append byte-identical
result records and the merge keyed by (workload, scheme) is unaffected.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import CheckpointCorruptError
from repro.fabric.locking import FileLock
from repro.utils.persist import atomic_write_text

JOURNAL_VERSION = 1

Key = Tuple[str, str]  # (workload, scheme value)


def sweep_fingerprint(
    config,
    workloads: Iterable[str],
    schemes: Iterable[str],
    max_events: Optional[int] = None,
) -> Dict[str, str]:
    """The identity stamp a journal carries so ``--resume`` can refuse a
    mismatched sweep instead of silently mixing results.

    Two sha256 digests: ``config_sha256`` over the configuration's full
    field tree (dataclasses serialise their ``asdict``; anything else
    hashes its ``repr``) and ``spec_sha256`` over the sweep definition
    (workloads, schemes, max_events). Equal stamps mean the journal's
    results are drop-in valid for the resuming sweep.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        config_payload = json.dumps(
            dataclasses.asdict(config), sort_keys=True, default=repr
        )
    else:
        config_payload = repr(config)
    spec_payload = json.dumps(
        {
            "workloads": list(workloads),
            "schemes": list(schemes),
            "max_events": max_events,
        },
        sort_keys=True,
    )
    return {
        "config_sha256": hashlib.sha256(
            config_payload.encode("utf-8")
        ).hexdigest(),
        "spec_sha256": hashlib.sha256(
            spec_payload.encode("utf-8")
        ).hexdigest(),
    }


def check_fingerprint(path, meta: Optional[dict], expected: Dict[str, str]) -> None:
    """Refuse to resume a journal written for a different sweep.

    Journals carry a ``fingerprint`` in their meta record (see
    :func:`sweep_fingerprint`). A mismatch with *expected* means the
    resuming sweep would silently mix results from different
    configurations, so this raises :class:`CheckpointCorruptError`
    instead. Journals from before fingerprinting (no ``fingerprint``
    key) are trusted as-is.
    """
    recorded = (meta or {}).get("fingerprint")
    if not isinstance(recorded, dict):
        return
    mismatched = [
        name
        for name in ("config_sha256", "spec_sha256")
        if recorded.get(name) != expected[name]
    ]
    if mismatched:
        detail = ", ".join(
            f"{name}: journal {str(recorded.get(name))[:12]}… != "
            f"sweep {expected[name][:12]}…"
            for name in mismatched
        )
        raise CheckpointCorruptError(
            f"{path}: journal belongs to a different sweep ({detail}). "
            "Resuming would mix results across configurations; re-run "
            "with the journal's original config/workloads/schemes/"
            "max-events, or delete the journal to start over."
        )


@dataclass
class JournalContents:
    """Everything a journal load yields."""

    meta: Optional[dict] = None
    results: Dict[Key, dict] = field(default_factory=dict)
    failures: Dict[Key, dict] = field(default_factory=dict)
    #: Lease records, in append order, keyed like results.
    claims: Dict[Key, List[dict]] = field(default_factory=dict)
    releases: Dict[Key, List[dict]] = field(default_factory=dict)
    #: True when a truncated final line was dropped.
    truncated: bool = False

    def settled(self) -> set:
        """Keys with a durable outcome (result or failure)."""
        return set(self.results) | set(self.failures)


@dataclass(frozen=True)
class Claim:
    """One granted lease: which job, which try, and whether it was stolen."""

    key: Key
    attempt: int  # 1-based, derived from prior claim count
    stolen: bool  # claimed from outside the worker's own shard
    expires_unix_s: float


class ResultJournal:
    """Locked, append-only access to one sweep journal.

    Safe for any number of concurrent writers across processes: every
    write happens under the journal's file lock, and appends never
    rewrite earlier records. Only :meth:`start` and :meth:`resume_from`
    replace the file, atomically, when a sweep (re)starts.
    """

    def __init__(self, path, *, lock_timeout_s: float = 30.0) -> None:
        self.path = Path(path)
        self.lock = FileLock(self.path, timeout_s=lock_timeout_s)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    @staticmethod
    def _meta_line(meta: dict) -> str:
        return json.dumps({"type": "meta", "version": JOURNAL_VERSION, **meta})

    def start(self, meta: dict) -> None:
        """Begin a fresh journal (truncates any existing file)."""
        with self.lock:
            atomic_write_text(self.path, self._meta_line(meta) + "\n")

    def resume_from(self, contents: JournalContents, meta: dict) -> None:
        """Rewrite the journal as *meta* plus the results of *contents*.

        Failure records are dropped (their jobs re-run and re-journal),
        as are claim/release leases (scheduling state from a dead
        fleet); result records are kept verbatim. The rewrite is atomic
        and happens under the lock, so the on-disk journal matches the
        resumed sweep before any worker claims from it.
        """
        lines = [self._meta_line(meta)]
        for (workload, scheme), result in contents.results.items():
            lines.append(
                json.dumps(
                    {"type": "result", "workload": workload, "scheme": scheme,
                     "result": result}
                )
            )
        with self.lock:
            atomic_write_text(self.path, "\n".join(lines) + "\n")

    def _append_locked(self, record: dict) -> None:
        """Append one record; caller must hold the lock."""
        line = json.dumps(record).encode("utf-8")
        # Repair a torn tail first: a file not ending in "\n" means a
        # writer died mid-append (single-write appends under the lock
        # can't be observed half-done otherwise). The fragment is an
        # incomplete record, so truncating it back to the last complete
        # line loses nothing — and keeps the strict loader, which treats
        # mid-file garbage as corruption, happy.
        if self.path.exists():
            data = self.path.read_bytes()
            if data and not data.endswith(b"\n"):
                keep = data.rfind(b"\n") + 1
                with open(self.path, "r+b") as fh:
                    fh.truncate(keep)
        fd = os.open(self.path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
        try:
            os.write(fd, line + b"\n")
        finally:
            os.close(fd)

    def append(self, record: dict) -> None:
        with self.lock:
            self._append_locked(record)

    def append_result(self, workload: str, scheme: str, result: dict,
                      *, worker: Optional[int] = None) -> None:
        record = {"type": "result", "workload": workload, "scheme": scheme,
                  "result": result}
        if worker is not None:
            record["worker"] = worker
        self.append(record)

    def append_failure(self, workload: str, scheme: str, failure: dict,
                       *, worker: Optional[int] = None) -> None:
        record = {"type": "failure", "workload": workload, "scheme": scheme,
                  "failure": failure}
        if worker is not None:
            record["worker"] = worker
        self.append(record)

    def release(self, key: Key, worker: int, reason: str) -> None:
        """Return *key* to the queue (lease abandoned before settling)."""
        self.append(
            {"type": "release", "workload": key[0], "scheme": key[1],
             "worker": worker, "reason": reason}
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path) -> JournalContents:
        """Parse a journal, tolerating a truncated final line.

        Raises :class:`CheckpointCorruptError` for corruption anywhere
        else, and ``FileNotFoundError`` if the journal does not exist.
        Takes no lock; :meth:`read` is the locked equivalent.
        """
        text = Path(path).read_text(encoding="utf-8")
        contents = JournalContents()
        raw_lines = text.split("\n")
        # A well-formed journal ends with a newline, so the final split
        # element is empty; anything else is a torn trailing write.
        if raw_lines and raw_lines[-1] == "":
            raw_lines.pop()
        for lineno, line in enumerate(raw_lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or "type" not in record:
                    raise ValueError("not a journal record")
            except ValueError as exc:
                if lineno == len(raw_lines) - 1:
                    contents.truncated = True
                    continue
                raise CheckpointCorruptError(
                    f"{path}: unreadable journal line {lineno + 1}: {exc}"
                ) from None
            kind = record["type"]
            if kind == "meta":
                contents.meta = record
            elif kind == "result":
                contents.results[(record["workload"], record["scheme"])] = (
                    record["result"]
                )
            elif kind == "failure":
                contents.failures[(record["workload"], record["scheme"])] = (
                    record["failure"]
                )
            elif kind == "claim":
                contents.claims.setdefault(
                    (record["workload"], record["scheme"]), []
                ).append(record)
            elif kind == "release":
                contents.releases.setdefault(
                    (record["workload"], record["scheme"]), []
                ).append(record)
            else:
                raise CheckpointCorruptError(
                    f"{path}: unknown journal record type {kind!r} "
                    f"on line {lineno + 1}"
                )
        return contents

    def read(self) -> JournalContents:
        """:meth:`load` this journal under its lock."""
        with self.lock:
            return self.load(self.path)

    @staticmethod
    def _claimable(contents: JournalContents, key: Key, now: float) -> bool:
        if key in contents.results or key in contents.failures:
            return False
        claims = contents.claims.get(key, ())
        releases = contents.releases.get(key, ())
        if len(claims) > len(releases):
            # Outstanding lease; claimable only once it has expired.
            return claims[-1].get("expires_unix_s", float("inf")) <= now
        return True

    # ------------------------------------------------------------------
    # The queue operation
    # ------------------------------------------------------------------
    def claim_next(
        self,
        worker: int,
        shard: Sequence[Key],
        all_keys: Sequence[Key],
        *,
        lease_s: float,
        clock: Callable[[], float] = time.time,
    ) -> Optional[Claim]:
        """Atomically lease the next runnable job, or ``None``.

        Own-shard jobs are preferred (cache-friendly, steal-free steady
        state); once the shard drains, unclaimed work is stolen from the
        rest of the sweep in sweep order. Returns ``None`` when nothing
        is currently claimable — which means either the sweep is done or
        every remaining job is leased to another live worker.
        """
        with self.lock:
            contents = self.load(self.path)
            now = clock()
            chosen: Optional[Key] = None
            stolen = False
            for key in shard:
                if self._claimable(contents, key, now):
                    chosen = key
                    break
            if chosen is None:
                own = set(shard)
                for key in all_keys:
                    if key not in own and self._claimable(contents, key, now):
                        chosen, stolen = key, True
                        break
            if chosen is None:
                return None
            attempt = len(contents.claims.get(chosen, ())) + 1
            expires = now + lease_s
            self._append_locked(
                {"type": "claim", "workload": chosen[0], "scheme": chosen[1],
                 "worker": worker, "attempt": attempt,
                 "expires_unix_s": expires}
            )
            return Claim(
                key=chosen, attempt=attempt, stolen=stolen,
                expires_unix_s=expires,
            )

    # ------------------------------------------------------------------
    def unsettled(self, all_keys: Iterable[Key]) -> List[Key]:
        """Keys still lacking a result/failure record, in sweep order."""
        done = self.read().settled()
        return [key for key in all_keys if key not in done]
