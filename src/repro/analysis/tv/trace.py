"""IR-side effect-trace semantics for translation validation.

The validator's ground truth.  From a behavior's statement IR and the
simulation's elaboration facts it derives what the compiled backend is
*obliged* to emit:

* the canonical **expression lowering** (:func:`lower_expr`) -- an
  independent re-statement of the interpreter's evaluation contract
  (eager ``and``/``or``, checked div/mod, value-preserving constant
  folding computed with the IR's own ``evaluate``), written at
  *hint level*: binding names appear as their semantic hint
  (``env_read``, ``div``, ``ixchk_MEM``), the same form the source
  normalizer (:mod:`repro.analysis.tv.pyparse`) reduces generated
  names to;
* the **clock cost model** of :mod:`repro.spec.stmt` (Assign/If test =
  1, For/While per-iteration = 1 + body, WaitClocks(n) = n, Nop = 0);
* the **wrap model**: which dtype wrap every store must carry, and the
  representable-range certificate under which a loop-variable wrap may
  be elided;
* the per-behavior **elaboration facts** (:func:`behavior_facts`):
  variable placement modes, contested-variable set, and per-call
  transfer plans (tier, deferred-arbitration eligibility), recomputed
  from the same analyses the code generator consumes.

Everything here is pure in the IR + facts, so verdicts can be memoized
on ``(IR fingerprint, facts key, generated source)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReproError
from repro.sim.arbiter import ImmediateArbiter
from repro.sim.compiled.analyze import (
    Analysis,
    analyze_spec,
    walk_statements,
)
from repro.sim.compiled.reuse import ir_fingerprint
from repro.sim.compiled.transfer import FUSED, plan_channel
from repro.spec.behavior import Behavior
from repro.spec.expr import BinOp, Const, Environment, Expr, Index, Ref, UnOp
from repro.spec.stmt import (
    Assign,
    Call,
    ElementTarget,
    For,
    If,
    Stmt,
    While,
)
from repro.spec.types import ArrayType, IntType
from repro.spec.variable import Variable

_EMPTY_ENV = Environment()


def sanitize(name: str) -> str:
    """The code generator's identifier sanitization, restated."""
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def scalar_bounds(dtype) -> Tuple[int, int]:
    """Representable range of a scalar dtype: the certificate under
    which a loop-variable wrap is the identity and may be elided."""
    if isinstance(dtype, IntType) and dtype.signed:
        half = 1 << (dtype.bits - 1)
        return -half, half - 1
    return 0, (1 << dtype.bits) - 1


def wrap_code(dtype, code: str) -> str:
    """The mandatory dtype wrap around every stored value."""
    if isinstance(dtype, IntType) and dtype.signed:
        half = 1 << (dtype.bits - 1)
        mask = (1 << dtype.bits) - 1
        return f"((({code} + {half}) & {mask}) - {half})"
    return f"(({code}) & {(1 << dtype.bits) - 1})"


# ----------------------------------------------------------------------
# Elaboration facts
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class VarInfo:
    """Placement and typing facts for one variable a behavior touches."""

    name: str
    #: "native" (uncontested scalar local), "env" (contested scalar,
    #: flushed environment access) or "array" (aliased backing list).
    mode: str
    #: hint-level storage label: ``_l_<name>`` / ``v_<name>`` /
    #: ``_a_<name>``.
    label: str
    signed: bool
    bits: int
    #: array length (None for scalars).
    length: Optional[int]
    #: loaded in the prologue (original or declared local)?
    loadable: bool
    #: written back in the epilogue (original shared variable)?
    original: bool
    dtype: object
    elem_dtype: object

    @property
    def key(self) -> str:
        return (f"{self.name}:{self.mode}:{self.signed}:{self.bits}:"
                f"{self.length}:{self.loadable}:{self.original}")


@dataclass(frozen=True)
class CallPlan:
    """Transfer facts for one ``Call`` site, recomputed independently
    of the code generator's own planning pass."""

    proc_name: str
    bus: str
    channel: str
    mode: str
    deferred: bool
    takes_address: bool
    is_write: bool
    is_read: bool
    var_name: str
    behavior: str

    @property
    def key(self) -> str:
        # An arbitrated call's source is the same for every tier (the
        # tier is checked against the program's bindings instead), so
        # only a deferred call's tier belongs in the verdict cache key.
        tier = f":{self.mode}" if self.deferred else ""
        return (f"{self.proc_name}:{self.bus}:{self.channel}{tier}"
                f":{self.deferred}:{self.takes_address}:{self.is_write}"
                f":{self.is_read}:{self.var_name}")


class BehaviorFacts:
    """Everything :mod:`~repro.analysis.tv.checker` needs to judge one
    behavior's generated source, plus a stable memoization key."""

    def __init__(self, behavior: Behavior, variables: Dict[str, VarInfo],
                 contested: Set[str], call_plans: Dict[int, "CallPlan"],
                 fingerprint: Optional[str] = None):
        self.behavior = behavior
        self.name = behavior.name
        self.variables = variables
        self.contested = contested
        self.call_plans = call_plans
        plans = ";".join(
            call_plans[id(stmt.procedure)].key
            for stmt in walk_statements(behavior.body)
            if isinstance(stmt, Call)
            and id(stmt.procedure) in call_plans)
        infos = ";".join(v.key for _, v in sorted(variables.items()))
        if fingerprint is None:
            fingerprint = ir_fingerprint(behavior)
        self.key = (f"{behavior.name}|{infos}|"
                    f"{','.join(sorted(contested))}|{plans}|{fingerprint}")

    def info(self, variable: Variable) -> VarInfo:
        return self.variables[variable.name]


def _var_info(variable: Variable, contested: Set[Variable],
              loadable: Set[Variable],
              original: Set[Variable]) -> VarInfo:
    dtype = variable.dtype
    label = sanitize(variable.name)
    if isinstance(dtype, ArrayType):
        mode, name, elem = "array", f"_a_{label}", dtype.element
        length: Optional[int] = dtype.length
    elif variable in contested:
        mode, name, elem = "env", f"v_{label}", dtype
        length = None
    else:
        mode, name, elem = "native", f"_l_{label}", dtype
        length = None
    signed = bool(getattr(elem, "signed", False))
    return VarInfo(
        name=variable.name, mode=mode, label=name, signed=signed,
        bits=elem.bits, length=length,
        loadable=variable in loadable, original=variable in original,
        dtype=dtype, elem_dtype=elem)


def spec_facts(runtime, analysis: Optional[Analysis] = None,
               fingerprints: Optional[Dict[str, str]] = None,
               ) -> Tuple[Analysis, Dict[str, "BehaviorFacts"]]:
    """Recompute the elaboration facts for every behavior of an
    elaborated :class:`~repro.sim.runtime.RefinedSimulation`.

    Mirrors ``compile_spec``'s planning (same analyses, same channel
    tiering) without touching its outputs: the validator judges the
    *generated code* against these facts.  ``analysis`` accepts the
    compile-time :func:`analyze_spec` result to skip recomputing it --
    a pure function of the same spec, so reuse changes nothing the
    validator concludes, only how fast it concludes it.  Likewise
    ``fingerprints`` (behavior name -> IR fingerprint) takes the
    elaboration's one IR walk instead of walking every body again.
    """
    spec = runtime.spec
    if analysis is None:
        analysis = analyze_spec(spec, runtime._stages, runtime._proc_map)

    channel_modes: Dict[Tuple[str, str], str] = {}
    deferred: Set[Tuple[str, str]] = set()
    for refined_bus in spec.buses:
        sim_bus = runtime.buses[refined_bus.name]
        deferrable = (
            type(sim_bus.arbiter) is ImmediateArbiter
            and sim_bus.name in analysis.uncontended_buses
        )
        for pair in refined_bus.procedures.values():
            mode, _ = plan_channel(sim_bus, pair, analysis.contested,
                                   analysis.bus_serialized,
                                   runtime.recorder, runtime.trace)
            channel_modes[(sim_bus.name, pair.channel.name)] = mode
            if mode == FUSED and deferrable:
                deferred.add((sim_bus.name, pair.channel.name))

    original = set(spec.original.variables)
    out: Dict[str, BehaviorFacts] = {}
    for behavior in spec.behaviors:
        touched = analysis.touches[behavior.name]
        loadable = original | set(behavior.local_variables)
        variables = {
            v.name: _var_info(v, analysis.contested, loadable, original)
            for v in touched
        }
        call_plans: Dict[int, CallPlan] = {}
        for stmt in walk_statements(behavior.body):
            if not isinstance(stmt, Call):
                continue
            entry = runtime._proc_map.get(id(stmt.procedure))
            if entry is None:
                continue
            sim_bus, pair = entry
            key = (sim_bus.name, pair.channel.name)
            call_plans[id(stmt.procedure)] = CallPlan(
                proc_name=stmt.procedure.name,
                bus=sim_bus.name,
                channel=pair.channel.name,
                mode=channel_modes[key],
                deferred=key in deferred,
                takes_address=stmt.procedure.takes_address,
                is_write=pair.channel.is_write,
                is_read=pair.channel.is_read,
                var_name=pair.channel.variable.name,
                behavior=behavior.name,
            )
        out[behavior.name] = BehaviorFacts(
            behavior, variables,
            {v.name for v in analysis.contested}, call_plans,
            fingerprint=(fingerprints or {}).get(behavior.name))
    return analysis, out


# ----------------------------------------------------------------------
# Independent expression lowering (hint-level)
# ----------------------------------------------------------------------

_DIRECT = {"+": "+", "-": "-", "*": "*"}
_COMPARE = {"=": "==", "/=": "!=", "<": "<", "<=": "<=",
            ">": ">", ">=": ">="}


class UnprovenExpr(Exception):
    """The IR expression is outside the validated trace algebra."""


class ExprLowerer:
    """Derives the obliged lowering of an IR expression at hint level.

    The walrus temporaries of element reads are emitted as ``_w<n>``;
    the source-side normalizer alpha-renames both sides, so only the
    order and multiplicity of temporaries must agree.
    """

    def __init__(self, facts: BehaviorFacts):
        self.facts = facts
        self._tmp = 0

    def _temp(self) -> str:
        self._tmp += 1
        return f"_w{self._tmp}"

    def fresh_temp(self) -> str:
        """A statement-level temporary (value/index/result slots)."""
        return self._temp()

    def read_scalar(self, variable: Variable) -> str:
        info = self.facts.info(variable)
        if info.mode == "native":
            return info.label
        return f"env_read({info.label})"

    def read_element(self, variable: Variable, index_code: str) -> str:
        info = self.facts.info(variable)
        tmp = self._temp()
        return (f"{info.label}[{tmp} if 0 <= ({tmp} := {index_code}) "
                f"< {info.length} else ixchk_{sanitize(variable.name)}"
                f"({tmp})]")

    def lower(self, expr: Expr) -> str:
        # Value-preserving constant folding: computed with the IR's own
        # evaluator, so a mis-folded literal in generated code cannot
        # match.  Folds that would raise stay unfolded (the error must
        # surface at simulation time, where the interpreter raises it).
        if expr.is_constant():
            try:
                value = expr.evaluate(_EMPTY_ENV)
            except ReproError:
                pass
            else:
                return repr(value) if value >= 0 else f"({value})"
        if isinstance(expr, Const):
            value = expr.value
            return repr(value) if value >= 0 else f"({value})"
        if isinstance(expr, Ref):
            if isinstance(expr.variable.dtype, ArrayType):
                raise UnprovenExpr(
                    f"whole-array read of {expr.variable.name!r}")
            return self.read_scalar(expr.variable)
        if isinstance(expr, Index):
            return self.read_element(expr.variable,
                                     self.lower(expr.index))
        if isinstance(expr, BinOp):
            lhs = self.lower(expr.lhs)
            rhs = self.lower(expr.rhs)
            op = expr.op
            if op in _DIRECT:
                return f"({lhs} {_DIRECT[op]} {rhs})"
            if op in _COMPARE:
                return f"(1 if {lhs} {_COMPARE[op]} {rhs} else 0)"
            if op == "/":
                return f"div({lhs}, {rhs})"
            if op == "mod":
                return f"mod({lhs}, {rhs})"
            if op == "and":
                # Eager on both sides, like BinOp.evaluate: a division
                # by zero right of a false `and` must still raise.
                return f"(1 if ({lhs} != 0) & ({rhs} != 0) else 0)"
            if op == "or":
                return f"(1 if ({lhs} != 0) | ({rhs} != 0) else 0)"
            if op in ("min", "max"):
                return f"{op}({lhs}, {rhs})"
            raise UnprovenExpr(f"unknown binary operator {op!r}")
        if isinstance(expr, UnOp):
            operand = self.lower(expr.operand)
            if expr.op == "-":
                return f"(-{operand})"
            if expr.op == "not":
                return f"(1 if {operand} == 0 else 0)"
            if expr.op == "abs":
                return f"abs({operand})"
            raise UnprovenExpr(f"unknown unary operator {expr.op!r}")
        raise UnprovenExpr(
            f"unsupported expression {type(expr).__name__}")


def reads_contested(stmt: Stmt, facts: BehaviorFacts) -> bool:
    """Does the statement's own evaluation read a contested variable?
    (Statement-level, like the code generator's flush test: nested
    bodies are judged at their own statements.)"""
    return any(read.variable.name in facts.contested
               for read in stmt.reads())


def needs_exact_clock(stmt: Stmt, facts: BehaviorFacts) -> bool:
    """Must the batched clock be provably flushed (``t == 0``) before
    this statement's effects?  ``Call`` is judged at its own site: a
    non-deferred transfer always needs the exact clock, a deferred one
    only when its argument evaluation reads contested storage."""
    if isinstance(stmt, Assign):
        return (stmt.target.variable.name in facts.contested
                or reads_contested(stmt, facts))
    if isinstance(stmt, (If, While)):
        return reads_contested(stmt, facts)
    if isinstance(stmt, For):
        return stmt.var.name in facts.contested
    return False
