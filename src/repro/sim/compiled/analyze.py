"""Static analysis feeding the compiled simulation backend.

Two questions decide how aggressively a behavior can be lowered:

* **Which variables are contested?**  A variable is contested when two
  processes that may be active *at the same clock* touch it.  Compiled
  behaviors batch statement clocks into single kernel waits, so every
  access to a contested variable must be preceded by a flush that
  resynchronizes simulated time; uncontested scalars become native
  Python locals instead.  The schedule gives the ordering: behaviors in
  distinct stages of a schedule are totally ordered (every stage waits
  for the whole previous stage), so only same-stage or unscheduled
  behaviors can overlap.  A variable served by a bus is additionally
  touched by its server, whose activity window is the union of its
  accessors' windows -- so the accessor behaviors stand in for the
  server here.

* **Which served variables does one arbiter serialize?**  A contested
  served variable is *bus-serialized* when no behavior touches it
  directly and every ``Call`` that reaches it goes through the same
  bus.  The arbiter grants that bus for whole messages, so while one
  transfer on the variable runs no other access to it can start: the
  variable may be contested (its call sites still flush before
  ``acquire``), yet when within the granted message the server commits
  or fetches is unobservable, and the transfer may take the fused tier
  (see :func:`repro.sim.compiled.transfer.plan_channel`).

* **Which behaviors compile at all?**  Statements or expressions the
  code generator does not know, calls with the wrong shape, and
  references to variables outside the behavior's environment all fall
  back -- per behavior -- to the interpreter, with the reason recorded
  on the :class:`~repro.sim.compiled.codegen.CompiledProgram`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.protogen.procedures import CommProcedure
from repro.spec.behavior import Behavior
from repro.spec.expr import BinOp, Const, Expr, Index, Ref, UnOp
from repro.spec.stmt import (
    Assign,
    Call,
    ElementTarget,
    For,
    If,
    Nop,
    Stmt,
    WaitClocks,
    While,
)
from repro.spec.types import ArrayType
from repro.spec.variable import Variable


@dataclass
class Analysis:
    """Everything the code generator needs to know about a spec."""

    #: Variables needing exact-clock (flushed) access from compiled code.
    contested: Set[Variable]
    #: behavior name -> reason it must run on the interpreter.
    fallbacks: Dict[str, str]
    #: behavior name -> schedule stage index (None = unscheduled).
    stage_of: Dict[str, Optional[int]]
    #: behavior name -> variables it touches directly (not via Call).
    touches: Dict[str, Set[Variable]] = field(default_factory=dict)
    #: Buses whose accessors are pairwise schedule-ordered: arbitration
    #: can never block, so fused transfers may fold their caller's
    #: pending batched clocks into the transfer wait.
    uncontended_buses: Set[str] = field(default_factory=set)
    #: Served variables that only calls through one bus reach and no
    #: behavior touches directly: that bus's arbiter serializes every
    #: access, so contention alone does not block the fused tier.
    bus_serialized: Set[Variable] = field(default_factory=set)
    #: behavior name -> its locals and loop variables, sorted by name:
    #: what a compiled process declares in the environment at start.
    declared: Dict[str, List[Variable]] = field(default_factory=dict)


def walk_statements(body: Sequence[Stmt]) -> Iterator[Stmt]:
    """Every statement in ``body``, depth first."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_statements(stmt.then_body)
            yield from walk_statements(stmt.else_body)
        elif isinstance(stmt, (For, While)):
            yield from walk_statements(stmt.body)


def direct_touches(behavior: Behavior) -> Set[Variable]:
    """Variables the behavior reads or writes through the environment
    (``Call`` transfers go through the bus, not the environment, but
    their argument/index expressions and result targets count)."""
    touched: Set[Variable] = set()
    for stmt in walk_statements(behavior.body):
        for read in stmt.reads():
            touched.add(read.variable)
        if isinstance(stmt, Assign):
            touched.add(stmt.target.variable)
        elif isinstance(stmt, For):
            touched.add(stmt.var)
        elif isinstance(stmt, Call):
            for target in stmt.results:
                touched.add(target.variable)
    return touched


def _expr_reason(expr: Expr) -> Optional[str]:
    """Why an expression cannot be compiled (None when it can)."""
    if isinstance(expr, Const):
        return None
    if isinstance(expr, Ref):
        if isinstance(expr.variable.dtype, ArrayType):
            # The interpreter raises ExprError lazily, at evaluation
            # time; keep that behavior by interpreting the process.
            return (f"whole-array read of {expr.variable.name!r} "
                    "(interpreter raises lazily)")
        return None
    if isinstance(expr, Index):
        return _expr_reason(expr.index)
    if isinstance(expr, BinOp):
        return _expr_reason(expr.lhs) or _expr_reason(expr.rhs)
    if isinstance(expr, UnOp):
        return _expr_reason(expr.operand)
    return f"unsupported expression {type(expr).__name__}"


def _call_reason(stmt: Call, proc_map: Dict[int, tuple]) -> Optional[str]:
    """Why a Call cannot be lowered.  Malformed calls fall back so the
    interpreter raises its exact diagnostic at the exact site."""
    procedure = stmt.procedure
    if not isinstance(procedure, CommProcedure):
        return f"calls non-communication procedure {procedure!r}"
    entry = proc_map.get(id(procedure))
    if entry is None:
        return (f"procedure {procedure.name} is not bound to any bus "
                "of this refined spec")
    _, pair = entry
    args = len(stmt.args)
    if procedure.takes_address:
        if args == 0:
            return f"{procedure.name}: missing address argument"
        args -= 1
    if pair.channel.is_write:
        if args != 1 or stmt.results:
            return f"{procedure.name}: write call arity mismatch"
    else:
        if args != 0 or len(stmt.results) != 1:
            return f"{procedure.name}: read call arity mismatch"
    for arg in stmt.args:
        reason = _expr_reason(arg)
        if reason:
            return reason
    for target in stmt.results:
        if isinstance(target, ElementTarget):
            reason = _expr_reason(target.index)
            if reason:
                return reason
    return None


def _behavior_reason(behavior: Behavior, declared: Set[Variable],
                     proc_map: Dict[int, tuple],
                     touched: Set[Variable]) -> Optional[str]:
    """Why a whole behavior must stay on the interpreter."""
    loop_vars: Set[Variable] = set()
    for stmt in walk_statements(behavior.body):
        kind = type(stmt)
        if kind is Assign:
            reason = _expr_reason(stmt.expr)
            if not reason and isinstance(stmt.target, ElementTarget):
                reason = _expr_reason(stmt.target.index)
        elif kind is If:
            reason = _expr_reason(stmt.cond)
        elif kind is While:
            reason = _expr_reason(stmt.cond)
        elif kind is For:
            loop_vars.add(stmt.var)
            reason = None
        elif kind is Call:
            reason = _call_reason(stmt, proc_map)
        elif kind in (WaitClocks, Nop):
            reason = None
        else:
            reason = f"unsupported statement {type(stmt).__name__}"
        if reason:
            return reason
    # Loop variables are assigned before any in-loop read, so only
    # *other* touched variables must already live in the environment.
    for variable in touched - declared - loop_vars:
        return (f"references variable {variable.name!r} outside this "
                "behavior's environment")
    return None


def analyze_spec(spec, stages: List[List[str]],
                 proc_map: Dict[int, tuple]) -> Analysis:
    """Run the full analysis over a refined spec.

    ``stages`` is the runtime's normalized schedule,  ``proc_map`` its
    ``id(procedure) -> (sim_bus, pair)`` lookup.
    """
    stage_of: Dict[str, Optional[int]] = {
        b.name: None for b in spec.behaviors
    }
    for index, stage in enumerate(stages):
        for name in stage:
            stage_of[name] = index

    def concurrent(a: str, b: str) -> bool:
        if a == b:
            return False
        sa, sb = stage_of.get(a), stage_of.get(b)
        if sa is None or sb is None:
            return True
        return sa == sb

    touches: Dict[str, Set[Variable]] = {}
    fallbacks: Dict[str, str] = {}
    declared_locals: Dict[str, List[Variable]] = {}
    original = set(spec.original.variables)
    for behavior in spec.behaviors:
        touched = direct_touches(behavior)
        touches[behavior.name] = touched
        own = behavior.declared_variables()
        declared_locals[behavior.name] = sorted(own, key=lambda v: v.name)
        declared = original | own
        reason = _behavior_reason(behavior, declared, proc_map, touched)
        if reason:
            fallbacks[behavior.name] = reason

    # Who can observe each variable, and when: direct touches, plus the
    # bus accessors standing in for the variable server they drive.
    observers: Dict[Variable, Set[str]] = {}
    bus_accessors: Dict[str, Set[str]] = {}
    serving_buses: Dict[Variable, Set[str]] = {}
    for name, touched in touches.items():
        for variable in touched:
            observers.setdefault(variable, set()).add(name)
    for behavior in spec.behaviors:
        for stmt in walk_statements(behavior.body):
            if isinstance(stmt, Call):
                entry = proc_map.get(id(stmt.procedure))
                if entry is not None:
                    sim_bus, pair = entry
                    variable = pair.channel.variable
                    observers.setdefault(variable,
                                         set()).add(behavior.name)
                    bus_accessors.setdefault(sim_bus.name,
                                             set()).add(behavior.name)
                    serving_buses.setdefault(variable,
                                             set()).add(sim_bus.name)

    contested: Set[Variable] = set()
    for variable, names in observers.items():
        if any(concurrent(a, b)
               for a, b in combinations(sorted(names), 2)):
            contested.add(variable)

    uncontended_buses = {
        bus for bus, names in bus_accessors.items()
        if not any(concurrent(a, b)
                   for a, b in combinations(sorted(names), 2))
    }

    touched_directly = set().union(*touches.values())
    bus_serialized = {
        variable for variable, buses in serving_buses.items()
        if len(buses) == 1 and variable not in touched_directly
    }

    return Analysis(contested=contested, fallbacks=fallbacks,
                    stage_of=stage_of, touches=touches,
                    uncontended_buses=uncontended_buses,
                    bus_serialized=bus_serialized,
                    declared=declared_locals)
