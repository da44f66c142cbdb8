"""Per-snapshot circuit breakers: fail fast instead of burning workers.

A snapshot whose verifications keep failing or coming back degraded —
its content left the store every time, its extraction is broken, its
engine build OOMs a worker — will keep failing for every caller. The
classic remedy: count consecutive failures per breaker key (the
snapshot's content fingerprint), and past ``threshold`` *open* the
breaker. While open, submissions against that content settle
immediately with a structured :class:`BreakerOpenError` carrying an
``UNKNOWN_DEGRADED`` verdict — milliseconds, no queue slot, no worker.
After ``cooldown_s`` the breaker goes *half-open*: exactly one probe
job is admitted; its success closes the breaker, its failure re-opens
the clock.

Transitions are reported through an ``on_transition`` callback (the
service turns them into ``service.breaker`` obs events and the
``service.breaker_transitions`` counter), so the whole state machine is
visible in ``mfv obs timeline`` and the metrics scrape.
"""

from __future__ import annotations

import threading
import time
from enum import Enum
from typing import Any, Callable, Optional

from repro.service.jobs import JobFailedError

#: Consecutive failures that open a breaker.
DEFAULT_BREAKER_THRESHOLD = 5

#: Seconds an open breaker waits before admitting a half-open probe.
DEFAULT_BREAKER_COOLDOWN_S = 30.0


class BreakerState(str, Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class BreakerOpenError(JobFailedError):
    """Fast structured answer for a snapshot whose breaker is open."""

    def __init__(self, detail: dict) -> None:
        self.detail = dict(detail)
        super().__init__(
            "circuit breaker open for snapshot "
            f"{detail.get('breaker_key')!r}: verdict UNKNOWN_DEGRADED "
            f"({detail.get('failures')} consecutive failures)"
        )


class CircuitBreaker:
    """One key's failure state machine. Not thread-safe on its own —
    the :class:`BreakerBoard` serializes access."""

    __slots__ = ("threshold", "cooldown_s", "state", "failures",
                 "opened_at", "probe_inflight")

    def __init__(self, threshold: int, cooldown_s: float) -> None:
        self.threshold = max(1, threshold)
        self.cooldown_s = max(0.0, cooldown_s)
        self.state = BreakerState.CLOSED
        self.failures = 0
        self.opened_at: Optional[float] = None
        self.probe_inflight = False

    def allow(self, now: float) -> bool:
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if (
                self.opened_at is not None
                and now - self.opened_at >= self.cooldown_s
            ):
                self.state = BreakerState.HALF_OPEN
                self.probe_inflight = True
                return True
            return False
        # HALF_OPEN: exactly one probe at a time.
        if self.probe_inflight:
            return False
        self.probe_inflight = True
        return True

    def record_success(self) -> None:
        self.state = BreakerState.CLOSED
        self.failures = 0
        self.opened_at = None
        self.probe_inflight = False

    def record_failure(self, now: float) -> None:
        self.failures += 1
        self.probe_inflight = False
        if (
            self.state is BreakerState.HALF_OPEN
            or self.failures >= self.threshold
        ):
            self.state = BreakerState.OPEN
            self.opened_at = now


class BreakerBoard:
    """Thread-safe registry of per-key breakers with transition hooks."""

    def __init__(
        self,
        threshold: int = DEFAULT_BREAKER_THRESHOLD,
        cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S,
        on_transition: Optional[
            Callable[[Any, BreakerState, BreakerState, int], None]
        ] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.threshold = max(1, threshold)
        self.cooldown_s = max(0.0, cooldown_s)
        self.on_transition = on_transition
        self._clock = clock
        self._breakers: dict[Any, CircuitBreaker] = {}
        self._lock = threading.Lock()
        self.fast_answers = 0

    def _get(self, key: Any) -> CircuitBreaker:
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = self._breakers[key] = CircuitBreaker(
                self.threshold, self.cooldown_s
            )
        return breaker

    def _transitioned(
        self, key: Any, breaker: CircuitBreaker, before: BreakerState
    ) -> None:
        if breaker.state is not before and self.on_transition is not None:
            self.on_transition(key, before, breaker.state, breaker.failures)

    def allow(self, key: Any) -> bool:
        """True if a job against ``key`` may run (closed, or the one
        half-open probe); False → answer fast with BreakerOpenError."""
        if key is None:
            return True
        with self._lock:
            breaker = self._get(key)
            before = breaker.state
            allowed = breaker.allow(self._clock())
            self._transitioned(key, breaker, before)
            if not allowed:
                self.fast_answers += 1
            return allowed

    def record(self, key: Any, ok: bool) -> None:
        if key is None:
            return
        with self._lock:
            breaker = self._get(key)
            before = breaker.state
            if ok:
                breaker.record_success()
            else:
                breaker.record_failure(self._clock())
            self._transitioned(key, breaker, before)

    def release(self, key: Any) -> None:
        """Give back an admitted slot that never ran (the job was shed
        or rejected during drain) — otherwise a consumed half-open
        probe would wedge the breaker with no execution to settle it."""
        if key is None:
            return
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is not None:
                breaker.probe_inflight = False

    def state_of(self, key: Any) -> BreakerState:
        with self._lock:
            breaker = self._breakers.get(key)
            return breaker.state if breaker else BreakerState.CLOSED

    def detail_for(self, key: Any) -> dict:
        """The structured BreakerOpenError payload for ``key``."""
        with self._lock:
            breaker = self._get(key)
            retry_after = 0.0
            if breaker.opened_at is not None:
                retry_after = max(
                    0.0,
                    breaker.cooldown_s
                    - (self._clock() - breaker.opened_at),
                )
            return {
                "error": "breaker-open",
                "verdict": "UNKNOWN_DEGRADED",
                "breaker_key": (
                    f"{key:#x}" if isinstance(key, int) else str(key)
                ),
                "state": breaker.state.value,
                "failures": breaker.failures,
                "threshold": breaker.threshold,
                "retry_after_seconds": round(retry_after, 3),
            }

    def stats(self) -> dict:
        with self._lock:
            by_state = {state.value: 0 for state in BreakerState}
            for breaker in self._breakers.values():
                by_state[breaker.state.value] += 1
            return {
                "keys": len(self._breakers),
                "fast_answers": self.fast_answers,
                **by_state,
            }


__all__ = [
    "BreakerBoard",
    "BreakerOpenError",
    "BreakerState",
    "CircuitBreaker",
    "DEFAULT_BREAKER_COOLDOWN_S",
    "DEFAULT_BREAKER_THRESHOLD",
]
