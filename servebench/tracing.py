"""In-memory spans recorded around calls into the program, and their
self-time arithmetic.

A span has a name, a start and an end on one clock, the span that was
open on the same thread when it began (its parent), the thread it ran
on, and a request id when one is known (inherited from the parent when
not given). Spans stay in memory and are written out once the run ends.

:class:`Instrumentation` swaps a callable on a module or class for a
wrapper that records one span per call, and puts the original back on
exit. Nothing in the program changes: the wrappers live here.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    rid: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class SpanRecorder:
    """Collects finished spans; per-thread stacks give each span its parent."""

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        span = Span(
            sid=next(self._ids),
            name=name,
            start=self.clock(),
            parent=None if parent is None else parent.sid,
            thread=threading.get_ident(),
            rid=rid,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} ended out of order")
        stack.pop()
        self.spans.append(span)

    def write_chrome_trace(self, path) -> None:
        """Write the spans as Chrome trace events (Perfetto opens them)."""
        threads = {t: i for i, t in enumerate(sorted({s.thread for s in self.spans}))}
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": s.start * 1e6,
                "dur": s.duration * 1e6,
                "pid": 0,
                "tid": threads[s.thread],
                "args": {"sid": s.sid, "parent": s.parent, "rid": s.rid},
            }
            for s in self.spans
        ]
        with open(path, "w") as out:
            json.dump({"traceEvents": events}, out)


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    return sum(end - start for start, end in _merged(intervals))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are the spans whose parent is this span; they ran on the
    same thread, so a span on another thread overlapping in time never
    reduces it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = union_length(
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.sid, ())
            if end > span.start and start < span.end
        )
        result[span.sid] = span.duration - covered
    return result


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer (the span-name prefix before the dot)."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.layer] += own[span.sid]
    return dict(totals)


def uncovered_length(busy, covering) -> float:
    """Length of the union of ``busy`` intervals not under ``covering``."""
    busy = _merged(busy)
    covering = _merged(covering)
    overlap = [
        (max(b0, c0), min(b1, c1))
        for b0, b1 in busy
        for c0, c1 in covering
        if min(b1, c1) > max(b0, c0)
    ]
    return union_length(busy) - union_length(overlap)


def _merged(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(a, b) for a, b in merged]


@dataclass
class Probe:
    """One callable to wrap: ``getattr(owner, attr)`` becomes a spanned
    wrapper named ``name``. ``rid_of(args, kwargs)`` may name the request
    the call serves; ``after(span, args, kwargs, result)`` runs once the
    span has ended, to record counts."""

    owner: object
    attr: str
    name: str
    rid_of: object = None
    before: object = None
    after: object = None


@dataclass
class Instrumentation:
    """Installs probes on enter and restores the originals on exit."""

    recorder: SpanRecorder
    probes: list[Probe]
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def __enter__(self) -> "Instrumentation":
        for probe in self.probes:
            original = getattr(probe.owner, probe.attr)
            self._saved.append((probe.owner, probe.attr, original))
            setattr(probe.owner, probe.attr, _wrap(self.recorder, original, probe))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def _wrap(recorder: SpanRecorder, fn, probe: Probe):
    name, rid_of, before, after = probe.name, probe.rid_of, probe.before, probe.after

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        span = recorder.begin(name, None if rid_of is None else rid_of(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result

    return wrapper
