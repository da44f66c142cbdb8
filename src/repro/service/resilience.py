"""The durable job journal and crash-recovery protocol.

The service's write-ahead log: every accepted *question* job appends a
``submit`` record before it runs, every lifecycle transition
(``start`` / ``retry`` / ``settle`` / ``dead-letter``) appends another,
and registered snapshots persist as content-addressed pickles beside a
``snapshot`` manifest record. On restart,
:meth:`VerificationService.recover <repro.service.service.VerificationService.recover>`
replays the log: snapshots re-register from the manifest, jobs that
were submitted (or mid-run) but never settled are requeued with their
idempotency key and a bumped delivery count, and jobs past the
redelivery limit are dead-lettered with a structured record instead of
looping forever.

Format: one JSON object per line (sorted keys), append-only, fsynced
every ``fsync_batch`` records (and on every explicit
``flush``).  A torn final line — the crash happened mid-write — is
skipped on replay, which is exactly the write-ahead contract: a job
whose submit record never made it durable was never accepted.

Only *question* jobs are journaled: their
:class:`QuestionSpec` is a pure value (question name, params, content
fingerprints), so replay re-executes them deterministically. Batch
callables, campaigns and ensembles close over live objects and are
deliberately excluded (documented in the architecture notes).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.core.snapshot import Snapshot

logger = logging.getLogger(__name__)

#: Records buffered between fsyncs.
DEFAULT_FSYNC_BATCH = 8

#: Redeliveries before a recovered job dead-letters.
DEFAULT_REDELIVERY_LIMIT = 3

JOURNAL_FILE = "journal.jsonl"
SNAPSHOT_DIR = "snapshots"


def _fp_hex(fingerprint: int) -> str:
    """Filesystem-safe content address for a (possibly negative) hash."""
    return format(fingerprint & 0xFFFFFFFFFFFFFFFF, "016x")


@dataclass(frozen=True)
class QuestionSpec:
    """The replayable identity of one question job.

    Everything needed to re-execute the job after a crash — and nothing
    live: names resolve through the recovered snapshot manifest, and the
    fingerprints pin the *content* the answer must be computed over, so
    a replay can never silently answer over different forwarding state.
    """

    question: str
    params: tuple
    snapshot: Optional[str]
    fingerprint: int
    reference_snapshot: Optional[str] = None
    reference_fingerprint: Optional[int] = None

    def key(self) -> str:
        """The idempotency key: a stable content hash of the spec."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "question": self.question,
            "params": [[k, v] for k, v in self.params],
            "snapshot": self.snapshot,
            "fingerprint": self.fingerprint,
            "reference_snapshot": self.reference_snapshot,
            "reference_fingerprint": self.reference_fingerprint,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuestionSpec":
        return cls(
            question=data["question"],
            params=tuple((k, v) for k, v in data.get("params", ())),
            snapshot=data.get("snapshot"),
            fingerprint=data["fingerprint"],
            reference_snapshot=data.get("reference_snapshot"),
            reference_fingerprint=data.get("reference_fingerprint"),
        )


class JobJournal:
    """Append-only JSONL write-ahead log plus a snapshot manifest.

    Thread-safe: worker callbacks (settle, retry) append concurrently
    with the submission path. Batching is by record count — the
    ``fsync_batch``-th buffered record triggers ``flush()`` +
    ``os.fsync`` — so the durability window is bounded and measurable
    (the resilience bench gates the overhead at ≤ 1.05x).
    """

    def __init__(
        self,
        journal_dir: Union[str, Path],
        fsync_batch: int = DEFAULT_FSYNC_BATCH,
    ) -> None:
        self.dir = Path(journal_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.path = self.dir / JOURNAL_FILE
        self.snapshot_dir = self.dir / SNAPSHOT_DIR
        self.snapshot_dir.mkdir(exist_ok=True)
        self.fsync_batch = max(1, fsync_batch)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._pending = 0
        #: delivery count per idempotency key (loaded lazily by the
        #: recovery path; fresh journals start empty).
        self._deliveries: dict[str, int] = {}
        #: fingerprints whose pickle + manifest record already exist.
        self._snapshots_recorded: set[int] = set()
        #: Chaos hook: called (record_index) before each append — the
        #: service fault plane injects journal-write stalls here.
        self.stall_hook: Optional[Callable[[int], None]] = None
        self.records_written = 0
        self.fsyncs = 0

    # -- low-level append ------------------------------------------------------

    def _append(self, record: dict) -> None:
        with self._lock:
            if self.stall_hook is not None:
                self.stall_hook(self.records_written)
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._pending += 1
            self.records_written += 1
            if self._pending >= self.fsync_batch:
                self._flush_locked()

    def _flush_locked(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._pending = 0
        self.fsyncs += 1

    def flush(self) -> None:
        with self._lock:
            if self._pending:
                self._flush_locked()

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                if self._pending:
                    self._flush_locked()
                self._fh.close()

    # -- snapshot manifest -----------------------------------------------------

    def record_snapshot(self, name: str, snapshot: Snapshot) -> int:
        """Persist ``snapshot`` content-addressed; returns its fingerprint.

        The pickle is written once per distinct forwarding content
        (write to a temp file, then atomic rename — a crash mid-pickle
        leaves no half file under the content address). Re-registering
        known content appends nothing.
        """
        fingerprint = snapshot.dataplane.fib_fingerprint()
        with self._lock:
            known = fingerprint in self._snapshots_recorded
        if known:
            return fingerprint
        path = self.snapshot_dir / f"{_fp_hex(fingerprint)}.pkl"
        if not path.exists():
            tmp = path.with_suffix(".tmp")
            with open(tmp, "wb") as fh:
                pickle.dump(snapshot, fh, protocol=pickle.HIGHEST_PROTOCOL)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        self._append(
            {
                "type": "snapshot",
                "name": name,
                "fingerprint": fingerprint,
                "path": f"{SNAPSHOT_DIR}/{path.name}",
                "t": time.time(),
            }
        )
        with self._lock:
            self._snapshots_recorded.add(fingerprint)
        return fingerprint

    def snapshot_path(self, fingerprint: int) -> Path:
        return self.snapshot_dir / f"{_fp_hex(fingerprint)}.pkl"

    # -- job lifecycle ---------------------------------------------------------

    def record_submit(
        self,
        spec: QuestionSpec,
        *,
        priority: str,
        timeout: Optional[float],
    ) -> tuple[str, int]:
        """Journal one accepted submission; returns (key, deliveries)."""
        key = spec.key()
        with self._lock:
            deliveries = self._deliveries.get(key, 0) + 1
            self._deliveries[key] = deliveries
        self._append(
            {
                "type": "submit",
                "key": key,
                "spec": spec.to_dict(),
                "priority": priority,
                "timeout": timeout,
                "deliveries": deliveries,
                "t": time.time(),
            }
        )
        return key, deliveries

    def record_start(self, key: str) -> None:
        self._append({"type": "start", "key": key, "t": time.time()})

    def record_retry(self, key: str, attempt: int) -> None:
        self._append(
            {"type": "retry", "key": key, "attempt": attempt,
             "t": time.time()}
        )

    def record_redelivery(self, key: str) -> int:
        """A supervisor requeued the job; returns the new delivery count."""
        with self._lock:
            deliveries = self._deliveries.get(key, 0) + 1
            self._deliveries[key] = deliveries
        self._append(
            {
                "type": "redeliver",
                "key": key,
                "deliveries": deliveries,
                "t": time.time(),
            }
        )
        return deliveries

    def record_settle(self, key: str, state: str) -> None:
        self._append(
            {"type": "settle", "key": key, "state": state, "t": time.time()}
        )

    def record_dead_letter(
        self, key: str, reason: str, deliveries: int
    ) -> None:
        self._append(
            {
                "type": "dead-letter",
                "key": key,
                "reason": reason,
                "deliveries": deliveries,
                "t": time.time(),
            }
        )
        self.flush()  # a dead letter is a terminal promise — make it durable

    def record_drain(self, counts: dict) -> None:
        self._append({"type": "drain", "t": time.time(), **counts})
        self.flush()

    def adopt_deliveries(self, deliveries: dict[str, int]) -> None:
        """Seed the delivery counters from a replayed journal state."""
        with self._lock:
            for key, count in deliveries.items():
                if count > self._deliveries.get(key, 0):
                    self._deliveries[key] = count

    def adopt_snapshots(self, fingerprints) -> None:
        """Mark replayed manifest entries as already recorded."""
        with self._lock:
            self._snapshots_recorded.update(fingerprints)

    def stats(self) -> dict:
        with self._lock:
            return {
                "dir": str(self.dir),
                "records_written": self.records_written,
                "fsyncs": self.fsyncs,
                "fsync_batch": self.fsync_batch,
                "snapshots": len(self._snapshots_recorded),
            }


@dataclass
class PendingJob:
    """One journaled job folded out of the log during replay."""

    key: str
    spec: QuestionSpec
    priority: str = "interactive"
    timeout: Optional[float] = None
    deliveries: int = 1
    started: bool = False
    settled: bool = False
    dead: bool = False


@dataclass
class JournalState:
    """Everything replay learned from one journal directory."""

    #: fingerprint -> latest registered name (manifest order).
    snapshots: "dict[int, str]" = field(default_factory=dict)
    #: idempotency key -> folded job state, submission order.
    jobs: "dict[str, PendingJob]" = field(default_factory=dict)
    records: int = 0
    torn_records: int = 0

    def pending(self) -> list[PendingJob]:
        """Jobs owed an outcome: submitted, never settled, not dead."""
        return [
            job for job in self.jobs.values()
            if not job.settled and not job.dead
        ]

    def deliveries(self) -> dict[str, int]:
        return {key: job.deliveries for key, job in self.jobs.items()}


def replay_journal(journal_dir: Union[str, Path]) -> JournalState:
    """Fold a journal directory into its recovered state.

    Tolerates a torn final record (counted, skipped): the write-ahead
    contract means an unreadable record was never acknowledged. Unknown
    record types are ignored for forward compatibility.
    """
    state = JournalState()
    path = Path(journal_dir) / JOURNAL_FILE
    if not path.exists():
        return state
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                state.torn_records += 1
                continue
            state.records += 1
            rtype = record.get("type")
            if rtype == "snapshot":
                state.snapshots[record["fingerprint"]] = record["name"]
                continue
            key = record.get("key")
            if rtype == "submit":
                job = state.jobs.get(key)
                if job is None:
                    try:
                        spec = QuestionSpec.from_dict(record["spec"])
                    except (KeyError, TypeError):
                        state.torn_records += 1
                        continue
                    job = state.jobs[key] = PendingJob(key=key, spec=spec)
                job.priority = record.get("priority", job.priority)
                job.timeout = record.get("timeout", job.timeout)
                job.deliveries = max(
                    job.deliveries, record.get("deliveries", 1)
                )
                # A resubmission after a settle re-opens the obligation.
                job.settled = False
                job.started = False
            elif rtype == "start" and key in state.jobs:
                state.jobs[key].started = True
            elif rtype == "redeliver" and key in state.jobs:
                job = state.jobs[key]
                job.deliveries = max(job.deliveries, record["deliveries"])
            elif rtype == "settle" and key in state.jobs:
                state.jobs[key].settled = True
            elif rtype == "dead-letter" and key in state.jobs:
                state.jobs[key].dead = True
    return state


@dataclass
class RecoveryReport:
    """What one ``VerificationService.recover()`` call did."""

    journal_dir: str
    records_replayed: int = 0
    torn_records: int = 0
    snapshots_recovered: int = 0
    jobs_requeued: int = 0
    jobs_dead_lettered: int = 0
    wall_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "journal_dir": self.journal_dir,
            "records_replayed": self.records_replayed,
            "torn_records": self.torn_records,
            "snapshots_recovered": self.snapshots_recovered,
            "jobs_requeued": self.jobs_requeued,
            "jobs_dead_lettered": self.jobs_dead_lettered,
            "wall_seconds": self.wall_seconds,
        }


@dataclass
class DeadLetter:
    """A journaled job the service gave up on — structured, never silent."""

    key: str
    reason: str
    deliveries: int
    question: str = ""
    snapshot: Optional[str] = None
    t: float = field(default_factory=time.time)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "reason": self.reason,
            "deliveries": self.deliveries,
            "question": self.question,
            "snapshot": self.snapshot,
            "t": self.t,
        }


def load_manifest_snapshot(
    journal_dir: Union[str, Path], fingerprint: int
) -> Snapshot:
    """Unpickle one content-addressed snapshot from a journal manifest.

    Raises ``FileNotFoundError`` when the content was never persisted —
    callers (worker processes adopting a fingerprint, recovery replay)
    treat that as the snapshot having left durability, not as corruption.
    """
    path = Path(journal_dir) / SNAPSHOT_DIR / f"{_fp_hex(fingerprint)}.pkl"
    with open(path, "rb") as fh:
        return pickle.load(fh)


__all__ = [
    "DeadLetter",
    "DEFAULT_FSYNC_BATCH",
    "DEFAULT_REDELIVERY_LIMIT",
    "JobJournal",
    "JournalState",
    "PendingJob",
    "QuestionSpec",
    "RecoveryReport",
    "load_manifest_snapshot",
    "replay_journal",
]
