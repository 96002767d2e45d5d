"""In-memory span recorder for the phasekit benchmark.

A span is one call across a layer boundary: a name, start and end on
the monotonic clock, the span that was open when it began, and an
optional work count (samples, points, bytes, rows).  Spans stay in a
list until the run ends and are then summarised or written out.

time.perf_counter reads CLOCK_MONOTONIC on Linux, which every process
shares, so spans recorded in a child process can be merged into the
parent's timeline.

Only the standard library is imported here: the tracer must be loadable
before `import phasekit` is timed.
"""

import time
from contextlib import nullcontext

_clock = time.perf_counter


class Tracer:
    """Collects spans; a span is [id, parent, name, t0, t1, count]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def begin(self, name, count=None):
        span = [len(self.spans), self._open[-1] if self._open else None,
                name, _clock(), None, count]
        self.spans.append(span)
        self._open.append(span[0])
        return span

    def end(self, span):
        span[4] = _clock()
        self._open.pop()

    def span(self, name, count=None):
        return _SpanContext(self, name, count)

    def wrap(self, name, fn, count_in=None, count_out=None):
        """Return fn recording a span per call.

        count_in(args, kwargs) and count_out(result, args, kwargs) give
        the span's work count before or after the call.
        """
        def traced(*args, **kwargs):
            span = self.begin(
                name, count_in(args, kwargs) if count_in else None
            )
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count_out is not None:
                span[5] = count_out(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def adopt(self, spans, parent):
        """Merge spans recorded by another process under parent."""
        base = len(self.spans)
        for sid, par, name, t0, t1, count in spans:
            self.spans.append([
                base + sid, parent if par is None else base + par,
                name, t0, t1, count,
            ])


class NullTracer:
    """Tracer stand-in for untraced runs: spans cost one call."""

    _none = nullcontext()

    def span(self, name, count=None):
        return self._none


class _SpanContext:
    __slots__ = ("tracer", "name", "count", "span")

    def __init__(self, tracer, name, count):
        self.tracer, self.name, self.count = tracer, name, count

    def __enter__(self):
        self.span = self.tracer.begin(self.name, self.count)
        return self.span

    def __exit__(self, *exc):
        self.tracer.end(self.span)
        return False


class patched:
    """Replace module attributes by traced wrappers; restore on exit.

    targets is a list of (module, attribute, replacement) triples.
    """

    def __init__(self, targets):
        self.targets = targets
        self.saved = []

    def __enter__(self):
        for module, attr, replacement in self.targets:
            self.saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()
        return False


def duration(span):
    return span[4] - span[3]


def children_index(spans):
    kids = {}
    for span in spans:
        if span[1] is not None:
            kids.setdefault(span[1], []).append(span)
    return kids


def self_time(span, kids):
    """Span duration minus the part its direct children cover.

    Children of one span run one after another on one thread, so their
    durations add without overlap.
    """
    return duration(span) - sum(duration(c) for c in kids.get(span[0], ()))


def subtree_totals(root, kids):
    """Per-name totals over root's descendants (root excluded):
    {name: {"calls", "s", "self_s", "count"}}."""
    totals = {}
    stack = list(kids.get(root[0], ()))
    while stack:
        span = stack.pop()
        row = totals.setdefault(
            span[2], {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0}
        )
        row["calls"] += 1
        row["s"] += duration(span)
        row["self_s"] += self_time(span, kids)
        row["count"] += span[5] or 0
        stack.extend(kids.get(span[0], ()))
    return totals


def coverage(root, kids):
    """Share of root's duration covered by its direct children."""
    total = duration(root)
    return 1.0 - self_time(root, kids) / total if total > 0 else 0.0
