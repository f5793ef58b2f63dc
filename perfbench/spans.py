"""Span recording for the traced benchmark run.

A span is one call into a layer: its name, start, end, the span that
caused it and the op it belongs to.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the part of its interval
that its child spans cover (children may overlap each other).

Callers bind library functions with ``from .x import y``, so a wrapper has
to be installed in every importing module's namespace, not only in the
defining one; ``installed`` does that for a list of bindings and restores
the originals afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Recorder:
    """Collects spans while ``active``; inactive wrappers call straight through."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.active = False
        self.op = -1
        self._stack: list[int] = []

    def call(self, name, fn, *args, observe=None, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        span = Span(len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(span.sid)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if observe is not None:
            observe(result, self.counters)
        return result

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, observe=observe, **kwargs)

        return wrapper


@contextlib.contextmanager
def installed(recorder: Recorder, bindings):
    """Replace each ``(module, attribute, span_name, observe)`` binding by a
    recording wrapper for the duration of the block."""
    saved = []
    try:
        for module, attr, name, observe in bindings:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(name, original, observe))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def union_length(intervals) -> float:
    """Total length covered by a set of (lo, hi) intervals, overlaps counted once."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span, keyed by span id.

    Child intervals are clipped to the parent's interval before their union
    is taken, so a child that outlives its parent cannot make the parent's
    self time negative.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.sid, ())
        )
        out[s.sid] = (s.end - s.start) - covered
    return out


def layer_totals(spans) -> dict[str, tuple[int, float]]:
    """(calls, summed self seconds) per span name."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    total: Counter = Counter()
    for s in spans:
        calls[s.name] += 1
        total[s.name] += selfs[s.sid]
    return {name: (calls[name], total[name]) for name in calls}


def count_under(spans, name: str, ancestor: str) -> int:
    """Number of spans called ``name`` that run beneath a span called ``ancestor``."""
    by_id = {s.sid: s for s in spans}
    count = 0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None:
            if by_id[p].name == ancestor:
                count += 1
                break
            p = by_id[p].parent
    return count


def render_tree(spans) -> list[str]:
    """Call tree as indented lines, one per call path, in first-call order.

    Spans with the same path of names (for example the hundreds of
    ``oracle.brute_max`` calls under one search) are folded into one line
    with their call count, summed duration and summed self time.
    """
    selfs = self_times(spans)
    path_of: dict[int, tuple[str, ...]] = {}
    rows: dict[tuple[str, ...], list[float]] = {}
    for s in sorted(spans, key=lambda s: s.sid):  # parents are recorded before children
        path = (path_of[s.parent] if s.parent is not None else ()) + (s.name,)
        path_of[s.sid] = path
        row = rows.setdefault(path, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.end - s.start
        row[2] += selfs[s.sid]
    width = max((2 * (len(p) - 1) + len(p[-1]) for p in rows), default=0)
    return [
        f"{'  ' * (len(p) - 1)}{p[-1]:<{width - 2 * (len(p) - 1)}}  x{calls:<5d}"
        f" total {dur * 1e6:12.1f} us  self {own * 1e6:12.1f} us"
        for p, (calls, dur, own) in rows.items()
    ]
