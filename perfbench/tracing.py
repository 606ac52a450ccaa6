"""In-memory spans recorded around the benchmark's calls into the library.

Spans are timed from outside the program: each one wraps a single public
call, named ``<module>.<function>``, and its parent is the span of the pass
that made the call.  Nothing is written until ``dump`` at the end of a run.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    run_id: str

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    """Records a span per ``call``; ``begin``/``end`` bracket the parent span."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[tuple[int, str, int]] = []  # (id, name, start_ns)
        self._ids = itertools.count()
        self._run_id = ""

    def begin(self, name: str, run_id: str | None = None) -> None:
        if run_id is not None:
            self._run_id = run_id
        self._stack.append((next(self._ids), name, time.perf_counter_ns()))

    def end(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(Span(span_id, name, start, end, parent, self._run_id))

    def call(self, name: str, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def dump(self, path, environment: dict) -> None:
        spans = sorted(self.spans, key=lambda s: s.id)
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"environment": environment, "spans": [asdict(s) for s in spans]}, fh)
            fh.write("\n")


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    @staticmethod
    def begin(name: str, run_id: str | None = None) -> None:
        pass

    @staticmethod
    def end() -> None:
        pass

    @staticmethod
    def call(name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Children of one span never overlap (the benchmark is single-threaded
    and calls one function at a time), so their durations simply add.
    """
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.seconds
    return own
