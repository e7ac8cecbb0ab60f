"""What an elaboration of an unchanged refined spec may reuse.

A warm ``simulate()`` elaborates the same :class:`RefinedSpec` again and
again.  Analysis, channel planning, source emission and the validator's
facts are pure functions of the spec's statement IR plus a handful of
runtime inputs (schedule, bound procedures, arbiter types, observers),
so each elaboration walks every behavior once -- :func:`ir_fingerprint`
-- and looks the rest up under that walk plus the runtime inputs.

* :func:`ir_fingerprint` is the one serialization of a behavior body.
  It names variables and procedures (so equal bodies of different
  specs share memo entries) and can report the objects it met, so a
  per-spec key can also hold their identity.
* :class:`SpecMemo` keeps per-spec tables weakly against the spec
  object: ``RefinedSpec`` is an eq-dataclass, hence unhashable, and a
  dropped spec must take its entries along.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from repro.spec.expr import BinOp, Const, Index, Ref, UnOp
from repro.spec.stmt import Assign, Call, For, If, Nop, WaitClocks, While


def _expr(e, note) -> str:
    kind = type(e)
    if kind is Ref:
        note(e.variable)
        return f"R({e.variable.name})"
    if kind is Const:
        return f"C{e.value}"
    if kind is BinOp:
        return f"B({e.op},{_expr(e.lhs, note)},{_expr(e.rhs, note)})"
    if kind is Index:
        note(e.variable)
        return f"X({e.variable.name},{_expr(e.index, note)})"
    if kind is UnOp:
        return f"U({e.op},{_expr(e.operand, note)})"
    return _unknown(e, note)


def _target(t, note) -> str:
    note(t.variable)
    index = t.index_expr()
    if index is None:
        return t.variable.name
    return f"{t.variable.name}[{_expr(index, note)}]"


def _body(stmts, note) -> str:
    out = []
    for s in stmts:
        kind = type(s)
        if kind is Assign:
            out.append(
                f"A({_target(s.target, note)},{_expr(s.expr, note)})")
        elif kind is Call:
            note(s.procedure)
            args = ",".join([_expr(a, note) for a in s.args])
            results = ",".join([_target(r, note) for r in s.results])
            name = getattr(s.procedure, "name", "?")
            out.append(f"K({name},[{args}],[{results}])")
        elif kind is For:
            note(s.var)
            out.append(f"F({s.var.name},{s.lo},{s.hi},"
                       f"[{_body(s.body, note)}])")
        elif kind is If:
            out.append(f"I({_expr(s.cond, note)},"
                       f"[{_body(s.then_body, note)}],"
                       f"[{_body(s.else_body, note)}])")
        elif kind is While:
            out.append(f"W({_expr(s.cond, note)},[{_body(s.body, note)}])")
        elif kind is WaitClocks:
            out.append(f"T{s.clocks}")
        elif kind is Nop:
            out.append("N")
        else:
            out.append(_unknown(s, note))
    return ",".join(out)


def _unknown(node, note) -> str:
    """A node of a type the walk does not know (a subclass included) is
    named by its identity: it never matches another node."""
    note(node)
    return f"?{type(node).__name__}@{id(node)}"


def _discard(obj) -> None:
    pass


def ir_fingerprint(behavior, refs: Optional[List[object]] = None) -> str:
    """Stable serialization of a behavior body.  Two bodies with the
    same fingerprint (under the same placement facts) lower to the same
    source and have the same validation outcome.  ``refs``, when given,
    receives every variable and procedure the body names, in walk
    order.  Dispatch is on the exact node type, like statement
    emission."""
    return _body(behavior.body,
                 refs.append if refs is not None else _discard)


def spec_walk(spec) -> Tuple[Dict[str, str], List[object]]:
    """One walk of every behavior: ``(name -> fingerprint, refs)``.
    ``refs`` holds each behavior and its locals, then every object its
    body names."""
    refs: List[object] = []
    fingerprints: Dict[str, str] = {}
    for behavior in spec.behaviors:
        refs.append(behavior)
        refs.extend(behavior.local_variables)
        fingerprints[behavior.name] = ir_fingerprint(behavior, refs)
    return fingerprints, refs


class SpecMemo:
    """Per-spec memo tables, at most ``limit`` entries each, held
    weakly against the spec object."""

    def __init__(self, limit: int):
        self.limit = limit
        self._slots: Dict[int, Tuple[weakref.ref, dict]] = {}

    def _table(self, spec) -> dict:
        slot = self._slots.get(id(spec))
        if slot is not None and slot[0]() is spec:
            return slot[1]
        slots, key = self._slots, id(spec)

        def drop(ref, key=key):
            if slots.get(key, (None,))[0] is ref:
                del slots[key]

        table: dict = {}
        slots[key] = (weakref.ref(spec, drop), table)
        return table

    def get(self, spec, key):
        slot = self._slots.get(id(spec))
        if slot is None or slot[0]() is not spec:
            return None
        return slot[1].get(key)

    def put(self, spec, key, value) -> None:
        table = self._table(spec)
        if key not in table and len(table) >= self.limit:
            table.pop(next(iter(table)))
        table[key] = value
