"""In-memory spans recorded around the benchmark's own calls into a layer.

One record per call: ``name/start/end/parent`` plus the operation
(``trace``) it belongs to. Nothing is written until the run ends; the
traced pass is separate from the timed one, so the cost of recording
never lands in an end-to-end number.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    trace: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanLog:
    """Spans nest per thread; ``trace`` groups the spans of one operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    @contextmanager
    def span(self, name: str, trace: int = 0) -> Iterator[Span]:
        stack = self._open.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            record = Span(
                id=len(self.spans),
                name=name,
                start=0.0,
                end=0.0,
                parent=parent.id if parent else None,
                trace=parent.trace if parent else trace,
            )
            self.spans.append(record)
        stack.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def seconds(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in recording order."""
        return [s.seconds for s in self.spans if s.name == name]

    def self_seconds(self, span: Span) -> float:
        """``span``'s duration minus what its child spans cover."""
        return span.seconds - sum(
            child.seconds for child in self.spans if child.parent == span.id
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")
