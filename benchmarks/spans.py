"""Stage timing and in-memory spans around calls into lobkit.

Every stage of a benchmark unit runs inside :meth:`Tracer.stage`, which
always records the stage's wall time.  While tracing is on, stages also
become spans, and :meth:`Tracer.patched` swaps a set of lobkit callables
for wrappers that record one span per call.  A span holds its name, start,
end, the index of its parent span and a count (rows, levels, ...) taken at
the call.  Spans stay in memory until :meth:`Tracer.write` saves them.

A span's self time is its duration minus the durations of its direct
children; summed per layer (the name's prefix before the first dot) the
self times of a unit add up to the unit's traced wall time.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

NAME, START, END, PARENT, COUNT = range(5)


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``owner.attr`` becomes span ``name``.

    ``count(args, result)`` gives the span's count; it runs after the call.
    """

    owner: Any
    attr: str
    name: str
    count: Callable[[tuple, Any], float] | None = None


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.stage_seconds: dict[str, float] = defaultdict(float)

    # -- stages ------------------------------------------------------------

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time one stage; a span too while tracing is on."""
        idx = self._open(name) if self.enabled else -1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stage_seconds[name] += t1 - t0
            if idx >= 0:
                span = self.spans[idx]
                span[START], span[END] = t0, t1
                self._stack.pop()

    def take_stage_seconds(self) -> dict[str, float]:
        """Stage wall times since the last call, then reset."""
        out = dict(self.stage_seconds)
        self.stage_seconds.clear()
        return out

    # -- wrapped callables -------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 1])
        self._stack.append(idx)
        return idx

    def wrap(self, fn: Callable, name: str, count: Callable[[tuple, Any], float] | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 1]
            spans.append(span)
            stack.append(idx)
            result = None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[END] = clock()
                stack.pop()
                if count is not None and result is not None:
                    span[COUNT] = count(args, result)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets: list[Target]) -> Iterator[None]:
        """Tracing on, with every target wrapped; originals restored after."""
        originals = [(t.owner, t.attr, getattr(t.owner, t.attr)) for t in targets]
        self.enabled = True
        try:
            for t, (_, _, fn) in zip(targets, originals):
                setattr(t.owner, t.attr, self.wrap(fn, t.name, t.count))
            yield
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
            self.enabled = False

    def mark(self) -> int:
        """Index where the next span will go, to slice one unit's spans."""
        return len(self.spans)

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "start_s", "end_s", "parent", "count"))
            for i, s in enumerate(self.spans):
                writer.writerow((i, s[NAME], repr(s[START]), repr(s[END]), s[PARENT], s[COUNT]))


def self_times(spans: list[list], first: int) -> list[float]:
    """Self time of each span in ``spans[first:]`` (parents lie inside the slice)."""
    own = [s[END] - s[START] for s in spans[first:]]
    for s in spans[first:]:
        parent = s[PARENT]
        if parent >= first:
            own[parent - first] -= s[END] - s[START]
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
