"""In-memory spans around calls into powertree, recorded from outside.

A span is (name, start, end, parent); parent is the index of the enclosing
span or -1 for a root.  Roots mark a workload pass or its set-up; every
other span wraps one public call.  Nothing is written until the run ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Counts every call it forwards; records spans only while enabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.calls = 0
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args):
        self.calls += 1
        if not self.enabled:
            return fn(*args)
        idx = self._open()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, name, t0, perf_counter())

    @contextmanager
    def root(self, name: str, enabled: bool):
        """Enable tracing for the body and record it as one root span."""
        self.enabled = enabled
        idx = self._open() if enabled else -1
        t0 = perf_counter()
        try:
            yield
        finally:
            if enabled:
                self._close(idx, name, t0, perf_counter())
            self.enabled = False

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(("", 0.0, 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, t0: float, t1: float) -> None:
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, self.spans[idx][3])

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for (name, t0, t1, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (t1 - t0) - c
        return out

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1, _ in self.spans if n == name]

    def dump(self) -> list[dict]:
        return [{"name": n, "start": t0, "end": t1, "parent": p}
                for n, t0, t1, p in self.spans]
