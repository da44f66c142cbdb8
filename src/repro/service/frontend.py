"""The JSON-lines front end behind ``mfv serve`` / ``mfv submit``.

One request per line on stdin, one JSON response per line on stdout —
the lowest-dependency remote surface that still exercises the whole
service (admission control included). Ops:

``{"op": "load", "path": ..., "name": ...}``
    Load a saved snapshot into the service's store.
``{"op": "submit", "question": ..., "params": {...}, ...}``
    Submit a question. ``wait`` (default true) blocks for the result;
    ``wait: false`` returns the job id immediately for a later
    ``result`` call.
``{"op": "ensemble", "snapshots": [...], "waypoint": ...}``
    Fold ensemble verdicts (holds-always / holds-sometimes / never)
    over the named resident snapshots — default: everything resident —
    deduped by forwarding fingerprint through the store. ``waypoint``
    ("DST_IP:VIA_NODE") appends a waypoint invariant. Honors ``wait``
    like ``submit``.
``{"op": "result", "job": <id>, "timeout": ...}``
    Await a previously submitted job.
``{"op": "stats"}``
    Service statistics (queue, store, caches, counters).
``{"op": "health"}``
    Liveness/readiness: ``live`` (the process answers), ``ready`` (the
    pool runs, the queue admits, not draining), breaker states, worker
    liveness in process mode, journal stats.
``{"op": "dead-letters"}``
    The structured dead-letter list — jobs abandoned after redelivery
    exhaustion.
``{"op": "metrics", "format": "prometheus"|"records"}``
    The service's metrics plane. ``prometheus`` (the default) returns
    text exposition in a ``"text"`` field; ``records`` returns the
    JSONL-shaped record list in a ``"records"`` field.
``{"op": "shutdown"}``
    Stop the loop (the caller owns worker shutdown).

Responses are ``{"ok": true, ...}`` or ``{"ok": false, "error": ...}``;
admission-control rejections come back with the structured
``overloaded`` detail rather than a bare failure.
"""

from __future__ import annotations

import json
import sys
from collections import OrderedDict
from typing import Any, Optional, TextIO

from repro.obs.metrics import render_prometheus
from repro.service.jobs import (
    Job,
    JobFailedError,
    JobResult,
    JobState,
    OverloadedError,
)
from repro.service.service import VerificationService


def _serialize_value(value: Any) -> dict:
    """JSON-safe view of a job's answer payload."""
    frame = getattr(value, "frame", None)
    if callable(frame):  # TableAnswer
        table = frame()
        return {
            "columns": list(table.columns),
            "rows": [dict(row) for row in table.rows],
            "summary": getattr(value, "summary", ""),
        }
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):  # e.g. CampaignReport
        return {"report": to_dict()}
    return {"value": value}


def _serialize_result(job: Job, result: JobResult) -> dict:
    response = {"ok": True, **job.describe()}
    response.update(_serialize_value(result.value))
    response["cached"] = result.cached
    response["queue_seconds"] = round(result.queue_seconds, 6)
    response["run_seconds"] = round(result.run_seconds, 6)
    return response


def _await_job(job: Job, timeout: Optional[float]) -> dict:
    try:
        return _serialize_result(job, job.result(timeout))
    except OverloadedError as exc:
        return {"ok": False, **exc.detail, **job.describe()}
    except TimeoutError as exc:
        return {"ok": False, "error": "timeout", "detail": str(exc),
                **job.describe()}
    except JobFailedError as exc:
        cause = exc.__cause__
        return {
            "ok": False,
            "error": "failed",
            "detail": str(cause) if cause is not None else str(exc),
            **job.describe(),
        }


#: Default bound on retained async (``wait: false``) jobs.
DEFAULT_PENDING_JOBS = 256


class ServiceFrontend:
    """Dispatches decoded requests against one service instance.

    Only async submissions (``wait: false``) are retained, in a bounded
    LRU awaiting their ``result`` call; delivered jobs are dropped
    immediately, so a long-lived serve session never accumulates
    settled jobs.
    """

    def __init__(
        self,
        service: VerificationService,
        max_pending: int = DEFAULT_PENDING_JOBS,
    ) -> None:
        self.service = service
        self.max_pending = max(1, max_pending)
        self._jobs: "OrderedDict[int, Job]" = OrderedDict()

    def _retain(self, job: Job) -> None:
        self._jobs[job.id] = job
        while len(self._jobs) > self.max_pending:
            self._jobs.popitem(last=False)

    def handle(self, request: dict) -> tuple[dict, bool]:
        """Returns (response, keep_running)."""
        op = request.get("op")
        try:
            if op == "load":
                name, fingerprint = self.service.load_snapshot(
                    request["path"], name=request.get("name")
                )
                return {
                    "ok": True,
                    "snapshot": name,
                    "fingerprint": f"{fingerprint:#x}",
                }, True
            if op == "submit":
                job = self.service.submit(
                    request["question"],
                    request.get("params"),
                    snapshot=request.get("snapshot"),
                    reference_snapshot=request.get("reference_snapshot"),
                    priority=request.get("priority"),
                    timeout=request.get("timeout"),
                )
                if job.state is JobState.REJECTED:
                    # Surface admission control immediately — a client
                    # that said wait=false must still see the rejection.
                    return {
                        "ok": False,
                        **(job.rejection or {}),
                        **job.describe(),
                    }, True
                if request.get("wait", True):
                    return _await_job(job, request.get("timeout")), True
                self._retain(job)
                return {"ok": True, **job.describe()}, True
            if op == "ensemble":
                job = self.service.submit_ensemble(
                    request.get("snapshots"),
                    waypoint=request.get("waypoint"),
                    priority=request.get("priority")
                    if request.get("priority") is not None
                    else "campaign",
                    timeout=request.get("timeout"),
                )
                if job.state is JobState.REJECTED:
                    return {
                        "ok": False,
                        **(job.rejection or {}),
                        **job.describe(),
                    }, True
                if request.get("wait", True):
                    return _await_job(job, request.get("timeout")), True
                self._retain(job)
                return {"ok": True, **job.describe()}, True
            if op == "result":
                job_id = request.get("job")
                job = self._jobs.get(job_id)
                if job is None:
                    return {
                        "ok": False,
                        "error": f"unknown job: {job_id!r}",
                    }, True
                response = _await_job(job, request.get("timeout"))
                if job.done:
                    # Delivered terminally: drop the reference. A wait
                    # that merely timed out keeps the job for a retry.
                    self._jobs.pop(job_id, None)
                return response, True
            if op == "stats":
                return {"ok": True, "stats": self.service.stats()}, True
            if op == "health":
                health = self.service.health()
                return {"ok": True, **health}, True
            if op == "dead-letters":
                return {
                    "ok": True,
                    "dead_letters": [
                        letter.to_dict()
                        for letter in self.service.dead_letters
                    ],
                }, True
            if op == "metrics":
                fmt = request.get("format") or "prometheus"
                if fmt == "records":
                    return {
                        "ok": True,
                        "format": "records",
                        "records": self.service.metrics.collect(),
                    }, True
                if fmt != "prometheus":
                    return {
                        "ok": False,
                        "error": f"unknown metrics format: {fmt!r}",
                    }, True
                return {
                    "ok": True,
                    "format": "prometheus",
                    "text": render_prometheus(self.service.metrics),
                }, True
            if op == "shutdown":
                return {"ok": True, "stopped": True}, False
            return {"ok": False, "error": f"unknown op: {op!r}"}, True
        except OverloadedError as exc:
            return {"ok": False, **exc.detail}, True
        except KeyError as exc:
            return {"ok": False, "error": f"missing field: {exc}"}, True
        except Exception as exc:
            return {"ok": False, "error": str(exc)}, True


def serve_loop(
    service: VerificationService,
    stdin: Optional[TextIO] = None,
    stdout: Optional[TextIO] = None,
) -> int:
    """Run the JSON-lines loop until EOF or a ``shutdown`` op.

    Returns the number of requests handled. Blank lines are skipped;
    undecodable lines produce an error response rather than killing the
    loop (a serve session should outlive one bad client line).
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    frontend = ServiceFrontend(service)
    handled = 0
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            response, keep = {"ok": False, "error": f"bad json: {exc}"}, True
        else:
            response, keep = frontend.handle(request)
        handled += 1
        stdout.write(json.dumps(response) + "\n")
        stdout.flush()
        if not keep:
            break
    return handled
