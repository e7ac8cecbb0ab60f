"""Pipeline tracer: spans and counters with near-zero disabled cost.

The synthesis flow (partitioning, bus generation, the five protocol
generation steps, HDL emission, static analysis, simulation) is
instrumented with *spans* -- named, nested wall-clock intervals -- and
monotonic *counters*.  Instrumentation sites call the module-level
:func:`span` / :func:`count` helpers, which consult one module global:
when no tracer is active they return a shared no-op context manager
(one attribute read and an ``is None`` test), so the instrumented
pipeline runs at full speed by default.

Activate collection with :func:`tracing`::

    from repro import obs

    with obs.tracing() as tracer:
        design = generate_bus(group)
    print(tracer.total_ms("busgen.generate_bus"))

Spans record a name, a category, start/end times from
``time.perf_counter_ns``, a nesting depth and free-form attributes
(set at creation or via :meth:`SpanHandle.set` while the span is
open).  The recorded list is the source for every exporter in
:mod:`repro.obs.export`, including the Chrome ``trace_event`` view.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional


class Span:
    """One completed (or still open) traced interval."""

    __slots__ = ("name", "category", "start_ns", "end_ns", "depth", "args")

    def __init__(self, name: str, category: str, start_ns: int,
                 depth: int, args: Dict[str, Any]):
        self.name = name
        self.category = category
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.depth = depth
        self.args = args

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "category": self.category,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "depth": self.depth,
            "args": dict(self.args),
        }

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, {self.duration_ms:.3f} ms, "
                f"depth={self.depth})")


class _NullSpanHandle:
    """Shared no-op stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *_exc: object) -> bool:
        return False

    def set(self, **_args: Any) -> None:
        """Discard attributes (tracing is off)."""


NULL_SPAN = _NullSpanHandle()


class SpanHandle:
    """Context manager driving one live span on a tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> "SpanHandle":
        self._tracer._open(self._span)
        return self

    def __exit__(self, exc_type: object, *_exc: object) -> bool:
        if exc_type is not None:
            self._span.args.setdefault("error", getattr(
                exc_type, "__name__", str(exc_type)))
        self._tracer._close(self._span)
        return False

    def set(self, **args: Any) -> None:
        """Attach attributes to the span while it is open."""
        self._span.args.update(args)


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[Span] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, category: str = "pipeline",
             **args: Any) -> SpanHandle:
        return SpanHandle(self, Span(name, category, self._clock(),
                                     depth=len(self._stack), args=args))

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def _open(self, span: Span) -> None:
        span.depth = len(self._stack)
        span.start_ns = self._clock()
        self._stack.append(span)
        self.spans.append(span)

    def _close(self, span: Span) -> None:
        span.end_ns = self._clock()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:          # tolerate unbalanced exits
            self._stack.remove(span)

    # -- queries -----------------------------------------------------------

    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total_ms(self, name: str) -> float:
        return sum(s.duration_ms for s in self.spans_named(name))

    def breakdown(self) -> List[Dict[str, Any]]:
        """Aggregate spans by name in first-seen order: name, category,
        call count and total wall milliseconds."""
        order: List[str] = []
        totals: Dict[str, Dict[str, Any]] = {}
        for span in self.spans:
            entry = totals.get(span.name)
            if entry is None:
                order.append(span.name)
                entry = {"name": span.name, "category": span.category,
                         "calls": 0, "total_ms": 0.0}
                totals[span.name] = entry
            entry["calls"] += 1
            entry["total_ms"] += span.duration_ms
        return [totals[name] for name in order]

    def self_ms(self) -> Dict[str, float]:
        """Wall milliseconds each span name spends outside its direct
        children, summed over its spans.  Only names with at least one
        child span appear (a leaf is all self time by definition)."""
        stack: List[Span] = []
        covered: Dict[int, int] = {}
        for span in self.spans:
            while stack and stack[-1].depth >= span.depth:
                stack.pop()
            if stack:
                parent = id(stack[-1])
                covered[parent] = covered.get(parent, 0) + span.duration_ns
            stack.append(span)
        parents = {span.name for span in self.spans if id(span) in covered}
        totals: Dict[str, float] = {}
        for span in self.spans:
            if span.name in parents:
                own = span.duration_ns - covered.get(id(span), 0)
                totals[span.name] = totals.get(span.name, 0.0) + own / 1e6
        return totals

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spans": [span.to_dict() for span in self.spans],
            "counters": dict(self.counters),
            "breakdown": self.breakdown(),
        }


# ---------------------------------------------------------------------------
# Module-level switchboard (the instrumentation sites' entry points)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def active_tracer() -> Optional[Tracer]:
    """The currently installed tracer, or ``None`` when disabled."""
    return _ACTIVE


def activate(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the collection target; returns it."""
    global _ACTIVE
    _ACTIVE = tracer
    return tracer


def deactivate() -> None:
    global _ACTIVE
    _ACTIVE = None


def span(name: str, category: str = "pipeline", **args: Any):
    """Open a span on the active tracer (no-op when disabled)."""
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, category, **args)


def count(name: str, value: float = 1.0) -> None:
    """Bump a counter on the active tracer (no-op when disabled)."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.count(name, value)


class tracing:
    """Context manager enabling collection for a block::

        with obs.tracing() as tracer:
            ...pipeline calls...

    Nesting restores the previously active tracer on exit.
    """

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer or Tracer()
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._previous = _ACTIVE
        activate(self.tracer)
        return self.tracer

    def __exit__(self, *_exc: object) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        return False
