import threading

import pytest

from servebench.tracing import (
    Instrumentation,
    Probe,
    Span,
    SpanRecorder,
    layer_self_times,
    self_times,
    uncovered_length,
    union_length,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _at(clock, t, action, *args):
    clock.now = t
    return action(*args)


def test_self_time_of_nested_spans_subtracts_children_only():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    outer = _at(clock, 0.0, rec.begin, "server.iterate", "r1")
    child = _at(clock, 1.0, rec.begin, "cache.prefill_step")
    grandchild = _at(clock, 1.5, rec.begin, "llm.forward")
    _at(clock, 2.5, rec.end, grandchild)
    _at(clock, 3.0, rec.end, child)
    second = _at(clock, 4.0, rec.begin, "llm.decode")
    _at(clock, 5.0, rec.end, second)
    _at(clock, 10.0, rec.end, outer)

    own = self_times(rec.spans)
    assert own[outer.sid] == pytest.approx(10.0 - 2.0 - 1.0)
    assert own[child.sid] == pytest.approx(2.0 - 1.0)
    assert own[grandchild.sid] == pytest.approx(1.0)
    assert own[second.sid] == pytest.approx(1.0)
    assert child.parent == outer.sid and grandchild.parent == child.sid
    assert grandchild.rid == "r1"  # inherited through the parent chain
    assert layer_self_times(rec.spans) == pytest.approx(
        {"server": 7.0, "cache": 1.0, "llm": 2.0}
    )


def test_overlapping_children_are_counted_once():
    spans = [
        Span(sid=0, name="server.iterate", start=0.0, end=10.0),
        Span(sid=1, name="llm.a", start=1.0, end=4.0, parent=0),
        Span(sid=2, name="llm.b", start=3.0, end=6.0, parent=0),
        Span(sid=3, name="llm.c", start=9.0, end=12.0, parent=0),  # clipped at 10
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_span_on_another_thread_does_not_reduce_self_time():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)
    outer = _at(clock, 0.0, rec.begin, "server.iterate")

    def other_thread():
        span = _at(clock, 2.0, rec.begin, "tokenizer.encode")
        _at(clock, 6.0, rec.end, span)

    worker = threading.Thread(target=other_thread)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    _at(clock, 10.0, rec.end, outer)

    other = next(s for s in rec.spans if s.name == "tokenizer.encode")
    assert other.parent is None and other.thread != outer.thread
    own = self_times(rec.spans)
    assert own[outer.sid] == pytest.approx(10.0)
    assert own[other.sid] == pytest.approx(4.0)
    assert layer_self_times(rec.spans) == pytest.approx({"server": 10.0, "tokenizer": 4.0})


def test_ending_spans_out_of_order_is_an_error():
    rec = SpanRecorder()
    first = rec.begin("a.x")
    rec.begin("a.y")
    with pytest.raises(RuntimeError, match="out of order"):
        rec.end(first)


def test_interval_union_and_uncovered_time():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    # In flight over [0, 10]; iterations cover [1, 4] and [6, 8].
    assert uncovered_length([(0, 5), (3, 10)], [(1, 4), (6, 8)]) == pytest.approx(5.0)


class _Target:
    def work(self, x, request=None):
        return x * 2


def test_instrumentation_wraps_records_and_restores():
    original = _Target.work
    rec = SpanRecorder()
    seen = []
    probe = Probe(
        _Target, "work", "cache.work",
        rid_of=lambda args, kwargs: kwargs.get("request"),
        after=lambda span, args, kwargs, result: seen.append((span.rid, result)),
    )
    with Instrumentation(rec, [probe]):
        assert _Target().work(21, request="r7") == 42
    assert _Target.work is original
    assert [(s.name, s.rid) for s in rec.spans] == [("cache.work", "r7")]
    assert seen == [("r7", 42)]
