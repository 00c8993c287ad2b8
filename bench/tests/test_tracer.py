import types

import pytest

from tracer import Span, Tracer, covered, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(0, 4)], 1, 3) == 2
    assert covered([], 0, 1) == 0


def test_self_time_nested():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 2.0, 3.0, 1),
        Span("a", 5.0, 7.0, 0),
    ]
    assert self_times(spans) == {"root": 5.0, "a": 4.0, "b": 1.0}


def test_self_time_reentrant_same_name_not_double_counted():
    # f calls itself: the inner call's time belongs to f once.
    spans = [
        Span("f", 0.0, 6.0, None),
        Span("f", 1.0, 5.0, 0),
        Span("f", 2.0, 3.0, 1),
    ]
    times = self_times(spans)
    assert times == {"f": 6.0}


def test_wrapped_calls_give_spans_self_times_and_counts():
    clock = FakeClock()
    tracer = Tracer(clock)
    mod = types.SimpleNamespace()

    def leaf(n):
        clock.advance(n)
        return [0] * n

    def outer(n):
        clock.advance(1)
        out = mod.leaf(n)
        clock.advance(1)
        return out

    def recurse(k):
        clock.advance(1)
        return mod.recurse(k - 1) if k else 0

    mod.leaf, mod.outer, mod.recurse = leaf, outer, recurse

    def count(counts, args, kwargs, result):
        counts["items"] += len(result)

    tracer.wrap(mod, "leaf", "leaf", count)
    tracer.wrap(mod, "outer", "outer")
    tracer.wrap(mod, "recurse", "recurse")
    assert mod.outer(3) == [0, 0, 0]
    mod.recurse(2)
    tracer.restore()
    assert mod.leaf is leaf and mod.outer is outer and mod.recurse is recurse
    assert not tracer.unclosed()
    assert self_times(tracer.spans) == {"outer": 2.0, "leaf": 3.0, "recurse": 3.0}
    assert tracer.counts["items"] == 3
    assert [s.parent for s in tracer.spans] == [None, 0, None, 2, 3]


def test_span_closes_when_the_call_raises():
    tracer = Tracer()
    mod = types.SimpleNamespace()

    def boom():
        raise ValueError("x")

    mod.boom = boom
    tracer.wrap(mod, "boom", "boom")
    with pytest.raises(ValueError):
        mod.boom()
    assert not tracer.unclosed()


def test_unclosed_span_is_reported():
    tracer = Tracer()
    tracer.open("left-open")
    assert [s.name for s in tracer.unclosed()] == ["left-open"]


def test_wrap_needs_the_lookup_site():
    class Base:
        def f(self):
            return 1

    class Child(Base):
        pass

    with pytest.raises(KeyError):
        Tracer().wrap(Child, "f", "f")
