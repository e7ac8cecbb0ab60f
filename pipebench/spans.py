"""The benchmark's own spans: an in-memory recorder and tree helpers.

A span has a name, a start and an end (``time.perf_counter_ns``, which
is CLOCK_MONOTONIC on Linux and therefore comparable across the
benchmark process and the children it starts), the span that caused
it, and the identifier of the operation it belongs to.  Spans stay in
memory and are written out only when a run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: A parent whose children cover less than this share of it gets an
#: explicit unattributed row.
COVERAGE_FLOOR = 0.90


class Recorder:
    """Collects spans of one run."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, trace: Optional[int] = None,
             **attrs: Any) -> Iterator[Dict[str, Any]]:
        parent = self._stack[-1] if self._stack else None
        if trace is None and parent is not None:
            trace = self.spans[parent]["trace"]
        record = {"id": len(self.spans), "parent": parent,
                  "trace": trace, "name": name,
                  "start_ns": time.perf_counter_ns(), "end_ns": None,
                  "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end_ns"] = time.perf_counter_ns()

    def add(self, name: str, start_ns: int, end_ns: int,
            parent: Optional[int], **attrs: Any) -> int:
        """Record an interval measured elsewhere (a child process)."""
        trace = self.spans[parent]["trace"] if parent is not None else None
        record = {"id": len(self.spans), "parent": parent,
                  "trace": trace, "name": name, "start_ns": start_ns,
                  "end_ns": end_ns, "attrs": attrs}
        self.spans.append(record)
        return record["id"]


def nest(spans: Sequence[Dict[str, Any]]) -> List[Tuple[Dict, Optional[int]]]:
    """Assign each flat interval (``start``/``end``) the index of the
    innermost earlier interval containing it, or ``None``."""
    order = sorted(range(len(spans)),
                   key=lambda i: (spans[i]["start"], -spans[i]["end"]))
    parents: List[Optional[int]] = [None] * len(spans)
    stack: List[int] = []
    for i in order:
        while stack and spans[stack[-1]]["end"] < spans[i]["end"]:
            stack.pop()
        parents[i] = stack[-1] if stack else None
        stack.append(i)
    return [(spans[i], parents[i]) for i in range(len(spans))]


def union_ns(intervals: Sequence[Tuple[int, int]]) -> int:
    """Length covered by a set of possibly overlapping intervals."""
    total = 0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def children_of(spans: Sequence[Dict[str, Any]]) -> Dict[int, List[int]]:
    out: Dict[int, List[int]] = {}
    for span in spans:
        if span["parent"] is not None:
            out.setdefault(span["parent"], []).append(span["id"])
    return out


def closed_problems(spans: Sequence[Dict[str, Any]]) -> List[str]:
    """Why the span forest is not closed: open spans, negative
    durations, or children reaching outside their parent."""
    problems = []
    for span in spans:
        if span["end_ns"] is None:
            problems.append(f"span {span['id']} {span['name']} is open")
            continue
        if span["end_ns"] < span["start_ns"]:
            problems.append(f"span {span['id']} {span['name']} ends "
                            "before it starts")
        parent = span["parent"]
        if parent is not None:
            outer = spans[parent]
            if outer["end_ns"] is None or not (
                    outer["start_ns"] <= span["start_ns"]
                    and span["end_ns"] <= outer["end_ns"]):
                problems.append(f"span {span['id']} {span['name']} is "
                                f"not inside its parent {parent}")
            # Only the root may hold spans of other traces (one trace
            # per operation); below it a trace never changes.
            if (span["trace"] != outer["trace"]
                    and outer["parent"] is not None):
                problems.append(f"span {span['id']} {span['name']} "
                                "left its parent's trace")
    return problems


def unattributed(spans: Sequence[Dict[str, Any]]
                 ) -> List[Dict[str, Any]]:
    """Every parent whose children cover less than COVERAGE_FLOOR of
    it, with the uncovered time, aggregated by parent name."""
    kids = children_of(spans)
    rows: Dict[str, Dict[str, Any]] = {}
    for parent_id, child_ids in kids.items():
        parent = spans[parent_id]
        wall = parent["end_ns"] - parent["start_ns"]
        if wall <= 0:
            continue
        covered = union_ns([(spans[c]["start_ns"], spans[c]["end_ns"])
                            for c in child_ids])
        row = rows.setdefault(parent["name"], {
            "parent": parent["name"], "count": 0, "wall_ns": 0,
            "unattributed_ns": 0})
        row["count"] += 1
        row["wall_ns"] += wall
        row["unattributed_ns"] += wall - covered
    return [row for row in rows.values()
            if row["unattributed_ns"] > (1 - COVERAGE_FLOOR)
            * row["wall_ns"]]
