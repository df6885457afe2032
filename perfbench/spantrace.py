"""Span tracing of chartcot's layers from outside the package.

The benchmark wraps the layers' functions at every module that calls them on
a workload's path, so nothing under ``src/`` needs timers. Each wrapped call
records one span: name, start, end, parent (the innermost open span) and the
chart id, taken from a ``ChartSpec`` argument (or an argument's ``.spec``)
and otherwise inherited from the parent span. Spans stay in memory; the
caller writes them out when the run ends.

Tracing is single-threaded by design: the traced runs use ``workers=1``, so
the span stack and chart attribution are exact. A call from another thread
raises ``TraceError`` instead of producing a wrong tree.

The wrapper's own work around a call (the thread check, the chart lookup,
the stack push and pop, building the span) runs outside the call's interval
and so lands in the caller. ``Tracer.calibrate`` measures that cost per
wrapped call, and ``self_times`` takes it off the caller's self time for
each child span; ``summarize`` reports what it took off.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple, Optional


class TraceError(RuntimeError):
    """A wrapper target is missing, or the trace cannot be trusted."""


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int        # sid of the enclosing span, -1 at the root
    chart: Optional[str]
    failed: bool       # the call raised


Counts = Callable[[tuple, object], dict]


class Tracer:
    """Records spans of wrapped calls.

    ``spec_type`` is the chart spec class that chart ids are read from; leave
    it ``None`` where no call carries a chart. ``renames`` maps ``(span name,
    enclosing span name)`` to the name a call gets when made directly inside
    that span; such a call adds no counts.
    """

    def __init__(self, spec_type: type | None = None, renames: Optional[dict] = None):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.chart_types: dict[str, str] = {}
        self.child_cost = 0.0  # seconds per wrapped call spent in its caller; see calibrate
        self._spec_type = spec_type
        self._renames = renames or {}
        self._stack: list[tuple[int, Optional[str], str]] = []
        self._next = 0
        self._thread = threading.get_ident()

    def _chart_of(self, args: tuple) -> Optional[str]:
        spec_type = self._spec_type
        if spec_type is None:
            return None
        for arg in args:
            spec = arg if isinstance(arg, spec_type) else getattr(arg, "spec", None)
            if isinstance(spec, spec_type):
                self.chart_types[spec.id] = spec.chart_type
                return spec.id
        return None

    def wrap(self, name: str, fn: Callable, counts: Optional[Counts] = None) -> Callable:
        """Return ``fn`` recording a span per call; ``counts(args, result)``
        adds to the named counters after a call that returned."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        renamed = {outer: alt for (inner, outer), alt in self._renames.items() if inner == name}

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                raise TraceError(f"{name} called from a second thread; trace with workers=1")
            parent, inherited, outer = stack[-1] if stack else (-1, None, None)
            span_name = renamed.get(outer, name) if renamed else name
            chart = self._chart_of(args) or inherited
            sid = self._next
            self._next += 1
            stack.append((sid, chart, span_name))
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, span_name, start, end, parent, chart, failed))
            if counts is not None and span_name == name:
                self.counts.update(counts(args, result))
            return result

        return traced

    def calibrate(self, calls: int = 2000, rounds: int = 7) -> float:
        """Measure and set ``child_cost``: the seconds a wrapped call adds to
        its caller's time beyond a plain call. It is the median over
        ``rounds`` of a loop of ``calls`` calls to an empty function, wrapped
        minus plain, less the time inside the wrapped calls' spans. The
        arguments carry no chart, so the chart lookup scans all of them.
        The calibration spans are discarded."""
        def leaf(*args):
            return None

        traced = self.wrap("trace.calibrate", leaf)
        args = (object(), object(), 0.5)
        clock = time.perf_counter
        samples = []
        for _ in range(rounds):
            start = clock()
            for _ in range(calls):
                leaf(*args)
            plain = clock() - start
            mark = len(self.spans)
            start = clock()
            for _ in range(calls):
                traced(*args)
            outside = clock() - start - sum(s.end - s.start for s in self.spans[mark:])
            del self.spans[mark:]
            samples.append((outside - plain) / calls)
        self.child_cost = max(0.0, statistics.median(samples))
        return self.child_cost


def install(tracer: Tracer, modules: dict, plan: list) -> None:
    """Wrap every site in ``plan``: ``(span name, [sites], counts or None)``.

    A site is ``"module:attr"`` or ``"module:Class.attr"``; modules are looked
    up in ``modules`` (pass ``sys.modules``: the package attribute
    ``chartcot.layout`` is the re-exported function, not the module).
    Classmethods stay classmethods. A missing site raises ``TraceError``
    naming the wrapper.
    """
    for name, sites, counts in plan:
        for site in sites:
            modname, _, path = site.partition(":")
            owner = modules.get(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if owner is None or raw is None:
                raise TraceError(f"trace wrapper {name!r}: {site} no longer exists")
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, counts)))
            elif callable(raw):
                setattr(owner, attr, tracer.wrap(name, raw, counts))
            else:
                raise TraceError(f"trace wrapper {name!r}: {site} is not callable")


def self_times(spans: list[Span], child_cost: float = 0.0) -> tuple[dict[int, float], float]:
    """(span id -> self time, seconds of wrapper cost taken off).

    Self time is the duration minus the part of it that child spans cover,
    minus ``child_cost`` per child span (never below 0). Child intervals are
    clipped to the parent and merged, so overlapping children are not
    subtracted twice. Self times plus the wrapper cost add up to the
    durations of the root spans.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out, removed = {}, 0.0
    for s in spans:
        covered, cursor = 0.0, s.start
        kids = children.get(s.sid, ())
        for a, b in sorted(kids):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        own = (s.end - s.start) - covered
        cost = min(own, child_cost * len(kids))
        removed += cost
        out[s.sid] = own - cost
    return out, removed


def summarize(tracer: Tracer) -> dict:
    """Per span name: calls, total and self seconds, failed calls; the same
    per chart type under ``name@type``; the tracer's counters; the wrapper
    cost taken off self times, and the number of wrapped calls it covers."""
    selfs, removed = self_times(tracer.spans, tracer.child_cost)
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    failed: Counter = Counter()
    for s in tracer.spans:
        keys = [s.name]
        ctype = tracer.chart_types.get(s.chart) if s.chart is not None else None
        if ctype is not None:
            keys.append(f"{s.name}@{ctype}")
        for key in keys:
            calls[key] += 1
            total[key] += s.end - s.start
            own[key] += selfs[s.sid]
            failed[key] += s.failed
    return {
        "calls": dict(calls),
        "total": dict(total),
        "self": dict(own),
        "failed": dict(failed),
        "counts": dict(tracer.counts),
        "wrapper": {"seconds": removed, "calls": sum(s.parent >= 0 for s in tracer.spans)},
    }
