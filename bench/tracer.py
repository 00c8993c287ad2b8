"""In-memory spans recorded around callables wrapped from outside a package.

A span is (name, start, end, parent).  The tracer replaces an attribute of
a module or class with a wrapper that opens a span, calls the original and
closes the span, so a function must be wrapped in every namespace it is
looked up from: a name bound by ``from x import f`` is a separate site from
``x.f``.  Counters run after the span closes, so their cost is not charged
to the layer they count.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# counter(counts, args, kwargs, result) adds exact counts for one call.
CountHook = Callable[[Counter, tuple, dict, object], None]


@dataclass
class Span:
    name: str
    start: float
    end: Optional[float]
    parent: Optional[int]

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent}


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), None, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    def wrap(self, owner: object, attr: str, name: str, count: Optional[CountHook] = None) -> None:
        """Replace ``owner.attr`` (defined on owner itself) by a spanning wrapper."""
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        self.replace(owner, attr, wrapper)

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to value until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def unclosed(self) -> List[Span]:
        return [s for s in self.spans if s.end is None]


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per span name, the summed duration minus the time child spans cover.

    Children of a span with the same name (re-entry) are subtracted like any
    other child, so nested calls of one function are not counted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: Dict[str, float] = {}
    for idx, span in enumerate(spans):
        own = span.end - span.start - covered(children.get(idx, ()), span.start, span.end)
        out[span.name] = out.get(span.name, 0.0) + own
    return out
