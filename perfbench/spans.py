"""In-memory spans recorded around calls into the library's layers.

A span has a name (``layer.function``), start and end times, the index of
its parent span, the id of the op it belongs to, and free-form counts.
Spans stay in memory while the run measures and are written out as JSON
lines when it ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, **counts):
        """Record the enclosed block; yields the span's ``counts`` dict to fill in."""
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, self.op, parent, perf_counter(), counts=dict(counts))
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec.counts
        finally:
            rec.end = perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
