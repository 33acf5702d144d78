"""In-memory spans for the traced run.

A span records a layer call timed from outside: its name (``layer.op``),
the origin it belongs to, start and end on the ``perf_counter`` clock, the
span that caused it (the origin span, or none for set-up), and counts of
the work it did.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    origin: int | None
    start: float
    end: float
    parent: str | None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``origin`` scopes the layer spans of one origin."""

    def __init__(self):
        self.spans: list[Span] = []
        self._origin: int | None = None
        self._next_origin = 0

    @contextmanager
    def span(self, name: str):
        """Time the enclosed call; the yielded dict takes its counts."""
        counts: dict = {}
        parent = None if self._origin is None else f"origin:{self._origin}"
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            self.spans.append(Span(name, self._origin, start, end, parent, counts))

    @contextmanager
    def origin(self):
        """Scope one origin (or study replicate); yields its identifier."""
        oid = self._next_origin
        self._next_origin += 1
        start = time.perf_counter()
        self._origin = oid
        try:
            yield oid
        finally:
            self._origin = None
            self.spans.append(
                Span("origin", oid, start, time.perf_counter(), None)
            )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))
