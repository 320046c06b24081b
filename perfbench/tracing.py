"""In-memory spans around function calls, and the arithmetic on them.

A span records name, start, end, parent and thread.  Parents are tracked per
thread; a span that opens on a thread with nothing open (a pool worker) is
adopted by the innermost span open on the thread that created the tracer,
which is the thread blocked waiting for the pool.  Self time is a span's
duration minus the union of the intervals its children cover, so children
that overlap each other on pool threads are not subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from functions wrapped with :meth:`wrap`."""

    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._stacks: dict = {}  # thread ident -> ids of the spans open on it

    def _parent(self, stack: list) -> int | None:
        if stack:
            return stack[-1]
        owner = self._stacks.get(self._owner)
        return owner[-1] if owner else None

    def wrap(self, name: str, fn, describe=None):
        """Wrap ``fn`` so each call records a span.

        After a call returns, ``describe(*args, **kwargs)`` gives
        ``(suffix, attrs)`` for its span; the suffix is appended to the span
        name, so one function can report separate spans for different kinds
        of call.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = self._stacks.setdefault(thread, [])
            parent = self._parent(stack)
            span_id = next(self._ids)
            stack.append(span_id)
            returned = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                suffix, attrs = "", {}
                if returned and describe is not None:
                    suffix, attrs = describe(*args, **kwargs)
                self.spans.append(Span(span_id, name + suffix, start, end, parent, thread, attrs))
        return traced


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans) -> dict:
    kids: dict = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    return kids


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals (clipped to it)."""
    kids = children_of(spans)
    out = {}
    for s in spans:
        covered = union_length((max(c.start, s.start), min(c.end, s.end))
                               for c in kids.get(s.id, ()) if c.end > s.start and c.start < s.end)
        out[s.id] = s.duration - covered
    return out


def concurrency(spans) -> float:
    """Time counted more than once when self times are summed: children running in parallel.

    Summed over spans of (sum of child durations - union of child intervals).
    For a tree rooted in one span, sum(self_times) - concurrency equals the
    root's duration.
    """
    total = 0.0
    for parent, kids in children_of(spans).items():
        if parent is None:
            continue
        total += sum(c.duration for c in kids) - union_length((c.start, c.end) for c in kids)
    return total


def pool_overlap(spans, pool: str, task: str) -> float:
    """Sum of ``task`` span durations over the ``pool`` span durations; 1.0 means serial."""
    pool_time = sum(s.duration for s in spans if s.name == pool)
    task_time = sum(s.duration for s in spans if s.name == task)
    return task_time / pool_time if pool_time > 0 else 0.0
