"""Behavior lowering: statement IR -> generated Python generators.

Each compilable behavior becomes one generated ``def run():`` generator
``exec``'d against a namespace of pre-bound objects (the kernel's
``Wait``, environment methods, transfer coroutines, checked-division
helpers).  The central trick is **clock batching**: instead of yielding
``Wait(1)`` per statement like the interpreter, generated code
accumulates the documented clock costs in a plain integer ``t`` and
flushes it in one kernel wait at synchronization points:

* before every ``Call`` (transfers must start at their exact clock);
* before any access to a *contested* variable (see
  :mod:`~repro.sim.compiled.analyze`);
* every ``CHUNK_CLOCKS`` inside ``While`` loops (so runaway loops
  still trip ``max_clocks``);
* at behavior end (so the finish clock is exact).

Uncontested scalars live as native Python locals, loaded from the
environment at process start and written back at the end; arrays alias
the environment's backing list, so element writes are visible to the
(sequentially ordered) rest of the system without copies.  Statement
semantics -- evaluation order, wrap-on-assign, the loop-variable wrap,
``For``/``While`` clock costs -- mirror
:class:`repro.sim.runtime.RefinedSimulation` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from types import CodeType
from typing import Callable, Dict, Generator, List, Optional, Set, Tuple

from repro.sim.arbiter import ImmediateArbiter
from repro.sim.compiled.analyze import (
    Analysis,
    analyze_spec,
    walk_statements,
)
from repro.sim.compiled.exprgen import CompileFallback, compile_expr
from repro.sim.compiled.reuse import SpecMemo, spec_walk
from repro.sim.compiled.transfer import FUSED, make_transfer, plan_channel
from repro.sim.kernel import Wait
from repro.spec.behavior import Behavior
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
from repro.spec.types import ArrayType, IntType
from repro.spec.variable import Variable

#: Forced mid-batch flush interval inside While loops: bounds the
#: clocks a compiled process can run ahead of the kernel, so infinite
#: loops still hit the kernel's ``max_clocks`` guard.
CHUNK_CLOCKS = 4096


@dataclass
class CompiledProgram:
    """Output of :func:`compile_spec`: per-process factories + report."""

    #: behavior name -> zero-arg generator factory (the lowered body).
    processes: Dict[str, Callable[[], Generator]] = field(
        default_factory=dict)
    #: behavior name -> generated Python source (for --emit-sim-source).
    sources: Dict[str, str] = field(default_factory=dict)
    #: behavior name -> why it stayed on the interpreter.
    fallbacks: Dict[str, str] = field(default_factory=dict)
    #: (bus name, channel name) -> (transfer mode, reason).
    channel_modes: Dict[Tuple[str, str], Tuple[str, str]] = field(
        default_factory=dict)
    #: behavior name -> (bus name, channel name) -> the tier its
    #: transfer binding was built for.  The generated source names no
    #: tier, so this record is what the translation validator checks
    #: against its own plan.
    transfer_tiers: Dict[str, Dict[Tuple[str, str], str]] = field(
        default_factory=dict)
    #: behavior name -> translation-validation verdict line
    #: ("validated (N obligations)", "REFUTED (P80x: ...)",
    #: "interpreter fallback"); empty until the validator runs.
    verdicts: Dict[str, str] = field(default_factory=dict)
    #: the compile-time :class:`~repro.sim.compiled.analyze.Analysis`.
    #: The translation validator reuses it instead of re-running
    #: ``analyze_spec`` on an identical spec (the validator's
    #: independence lives in re-deriving per-variable/per-call facts
    #: and the trace semantics, not in repeating this pure function).
    analysis: object = None
    #: behavior name -> IR fingerprint, from this elaboration's one
    #: walk of the spec (:func:`~repro.sim.compiled.reuse.spec_walk`);
    #: the validator keys its facts on it instead of walking again.
    fingerprints: Dict[str, str] = field(default_factory=dict)
    #: every behavior, local, variable and procedure that walk met, in
    #: walk order: the identity half of the reuse keys.
    refs: List[object] = field(default_factory=list)

    @property
    def compiled_count(self) -> int:
        return len(self.processes)

    @property
    def total_count(self) -> int:
        return len(self.processes) + len(self.fallbacks)

    def describe(self) -> List[str]:
        """Human-readable per-process / per-channel report lines."""
        lines = [f"compiled {self.compiled_count}/{self.total_count} "
                 "behaviors"]
        for name in sorted(self.fallbacks):
            lines.append(f"  {name}: interpreter fallback "
                         f"({self.fallbacks[name]})")
        for name in sorted(self.verdicts):
            lines.append(
                f"  {name}: translation validation {self.verdicts[name]}")
        for (bus, channel), (mode, reason) in sorted(
                self.channel_modes.items()):
            suffix = f" ({reason})" if reason else ""
            lines.append(f"  {bus}.{channel}: {mode} transfer{suffix}")
        return lines


@lru_cache(maxsize=1024)
def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _scalar_bounds(dtype) -> Tuple[int, int]:
    """Representable range of a scalar dtype (for loop-var wrap
    elision)."""
    if isinstance(dtype, IntType) and dtype.signed:
        half = 1 << (dtype.bits - 1)
        return -half, half - 1
    return 0, (1 << dtype.bits) - 1


def _wrap_code(dtype, code: str) -> str:
    """Inline equivalent of the runtime's ``_wrap`` for ``dtype``."""
    if isinstance(dtype, IntType) and dtype.signed:
        half = 1 << (dtype.bits - 1)
        mask = (1 << dtype.bits) - 1
        return f"((({code} + {half}) & {mask}) - {half})"
    return f"(({code}) & {(1 << dtype.bits) - 1})"


class _BehaviorCompiler:
    """Lowers one behavior body to a ``run()`` generator source."""

    def __init__(self, runtime, behavior: Behavior, analysis: Analysis,
                 deferred_channels: frozenset):
        self.runtime = runtime
        self.behavior = behavior
        self.contested = analysis.contested
        self.touched = analysis.touches[behavior.name]
        self.deferred_channels = deferred_channels
        self.lines: List[str] = []
        self._bound: Dict[tuple, str] = {}
        #: (bound name, rebind descriptor) per binding, in binding
        #: order: the recipe :func:`_rebind` replays to build the
        #: namespace against each runtime that runs this source.
        self.recipe: List[Tuple[str, tuple]] = []
        self._tmp = 0
        #: Variable -> ("native", name) | ("env", bound var name)
        #:          | ("array", alias name)
        self.modes: Dict[Variable, Tuple[str, str]] = {}

    # -- namespace ----------------------------------------------------

    def bind(self, hint: str, rebind: tuple) -> str:
        """The namespace name of the object ``rebind`` describes.  The
        descriptor is the binding's identity: every access of one bus's
        ``arbiter.acquire`` (a fresh bound method each time) shares one
        name."""
        name = self._bound.get(rebind)
        if name is None:
            name = f"_b{len(self._bound)}_{_sanitize(hint)}"
            self._bound[rebind] = name
            self.recipe.append((name, rebind))
        return name

    def temp(self, prefix: str = "_t") -> str:
        self._tmp += 1
        return f"{prefix}{self._tmp}"

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    # -- variable access ----------------------------------------------

    def _classify(self) -> None:
        spec = self.runtime.spec
        loadable = set(spec.original.variables) \
            | set(self.behavior.local_variables)
        for variable in sorted(self.touched, key=lambda v: v.name):
            label = _sanitize(variable.name)
            if isinstance(variable.dtype, ArrayType):
                self.modes[variable] = ("array", f"_a_{label}")
            elif variable in self.contested:
                self.modes[variable] = (
                    "env", self.bind(f"v_{label}", ("var", variable.name)))
            else:
                self.modes[variable] = ("native", f"_l_{label}")
        self._loadable = loadable

    def read_scalar(self, variable: Variable) -> str:
        mode, name = self.modes[variable]
        if mode == "native":
            return name
        env_read = self.bind("env_read", ("env", "read"))
        return f"{env_read}({name})"

    def read_element(self, variable: Variable, index_code: str) -> str:
        _, arr = self.modes[variable]
        dtype = variable.dtype
        assert isinstance(dtype, ArrayType)
        check = self.bind(f"ixchk_{_sanitize(variable.name)}",
                          ("var_ixchk", variable.name))
        tmp = self.temp("_i")
        # Inline bounds test; out-of-range delegates to validate_index
        # for the interpreter's exact TypeSpecError.
        return (f"{arr}[{tmp} if 0 <= ({tmp} := {index_code}) "
                f"< {dtype.length} else {check}({tmp})]")

    def _expr(self, expr) -> str:
        return compile_expr(expr, self)

    # -- flush points -------------------------------------------------

    def _reads_contested(self, stmt: Stmt) -> bool:
        return any(read.variable in self.contested
                   for read in stmt.reads())

    def _needs_flush(self, stmt: Stmt) -> bool:
        if isinstance(stmt, Call):
            return False  # _emit_call flushes itself unless deferred
        if isinstance(stmt, Assign):
            return stmt.target.variable in self.contested \
                or self._reads_contested(stmt)
        if isinstance(stmt, (If, While)):
            return self._reads_contested(stmt)
        if isinstance(stmt, For):
            return stmt.var in self.contested
        return False

    def _flush(self, indent: int) -> None:
        self.emit(indent, "if t:")
        self.emit(indent + 1, "yield W(t)")
        self.emit(indent + 1, "t = 0")

    # -- statements ---------------------------------------------------

    def _emit_body(self, body, indent: int) -> None:
        for stmt in body:
            self._emit_stmt(stmt, indent)

    def _emit_stmt(self, stmt: Stmt, indent: int) -> None:
        kind = type(stmt)
        if kind is Nop:
            return
        if kind is WaitClocks:
            if stmt.clocks:
                self.emit(indent, f"t += {stmt.clocks}")
            return
        if self._needs_flush(stmt):
            self._flush(indent)
        if kind is Assign:
            self._emit_assign(stmt, indent)
        elif kind is If:
            self._emit_if(stmt, indent)
        elif kind is For:
            self._emit_for(stmt, indent)
        elif kind is While:
            self._emit_while(stmt, indent)
        elif kind is Call:
            self._emit_call(stmt, indent)
        else:
            raise CompileFallback(
                f"unsupported statement {type(stmt).__name__}")

    def _emit_assign(self, stmt: Assign, indent: int) -> None:
        target = stmt.target
        variable = target.variable
        if isinstance(target, ElementTarget):
            dtype = variable.dtype
            assert isinstance(dtype, ArrayType)
            # Value before index, like the interpreter's _do_assign.
            value = self.temp("_v")
            self.emit(indent, f"{value} = {self._expr(stmt.expr)}")
            index = self.temp("_i")
            self.emit(indent, f"{index} = {self._expr(target.index)}")
            _, arr = self.modes[variable]
            check = self.bind(f"ixchk_{_sanitize(variable.name)}",
                              ("var_ixchk", variable.name))
            self.emit(indent,
                      f"{arr}[{index} if 0 <= {index} < {dtype.length} "
                      f"else {check}({index})] = "
                      f"{_wrap_code(dtype.element, value)}")
        else:
            mode, name = self.modes[variable]
            wrapped = _wrap_code(variable.dtype, self._expr(stmt.expr))
            if mode == "native":
                self.emit(indent, f"{name} = {wrapped}")
            else:
                env_write = self.bind("env_write", ("env", "write"))
                self.emit(indent, f"{env_write}({name}, {wrapped})")
        self.emit(indent, "t += 1")

    def _emit_if(self, stmt: If, indent: int) -> None:
        self.emit(indent, f"if {self._expr(stmt.cond)} != 0:")
        self.emit(indent + 1, "t += 1")
        self._emit_body(stmt.then_body, indent + 1)
        self.emit(indent, "else:")
        self.emit(indent + 1, "t += 1")
        self._emit_body(stmt.else_body, indent + 1)

    def _emit_for(self, stmt: For, indent: int) -> None:
        variable = stmt.var
        mode, name = self.modes[variable]
        rng = f"range({stmt.lo}, {stmt.hi + 1})"
        if mode == "env":
            raw = self.temp("_f")
            self.emit(indent, f"for {raw} in {rng}:")
            self._flush(indent + 1)
            env_write = self.bind("env_write", ("env", "write"))
            self.emit(indent + 1,
                      f"{env_write}({name}, "
                      f"{_wrap_code(variable.dtype, raw)})")
        else:
            lo_ok, hi_ok = _scalar_bounds(variable.dtype)
            if lo_ok <= stmt.lo and stmt.hi <= hi_ok:
                # Every iterate is representable: the wrap is identity.
                self.emit(indent, f"for {name} in {rng}:")
            else:
                raw = self.temp("_f")
                self.emit(indent, f"for {raw} in {rng}:")
                self.emit(indent + 1,
                          f"{name} = {_wrap_code(variable.dtype, raw)}")
        self.emit(indent + 1, "t += 1")
        self._emit_body(stmt.body, indent + 1)

    def _emit_while(self, stmt: While, indent: int) -> None:
        self.emit(indent, "while True:")
        self.emit(indent + 1, f"if t >= {CHUNK_CLOCKS}:")
        self.emit(indent + 2, "yield W(t)")
        self.emit(indent + 2, "t = 0")
        if self._reads_contested(stmt):
            self._flush(indent + 1)
        self.emit(indent + 1, f"if {self._expr(stmt.cond)} == 0:")
        self.emit(indent + 2, "t += 1")
        self.emit(indent + 2, "break")
        self.emit(indent + 1, "t += 1")
        self._emit_body(stmt.body, indent + 1)

    # -- calls --------------------------------------------------------

    def _transfer_name(self, sim_bus, pair, deferred: bool) -> str:
        hint = f"xf_{_sanitize(pair.channel.name)}"
        if deferred:
            hint += f"_{FUSED}"
        return self.bind(
            hint, ("transfer", sim_bus.name, pair.channel.name, deferred))

    def _emit_call(self, stmt: Call, indent: int) -> None:
        # analyze._call_reason vetted shape and arity already.
        sim_bus, pair = self.runtime._proc_map[id(stmt.procedure)]
        channel = pair.channel
        procedure = stmt.procedure
        deferred = (sim_bus.name, channel.name) in self.deferred_channels
        note = " (deferred arbitration)" if deferred else ""
        self.emit(indent,
                  f"# call {procedure.name}: {sim_bus.name}."
                  f"{channel.name}{note}")
        if not deferred or self._reads_contested(stmt):
            self._flush(indent)
        args = list(stmt.args)
        addr = "None"
        if procedure.takes_address:
            addr = self.temp("_adr")
            self.emit(indent, f"{addr} = {self._expr(args.pop(0))}")
            check = self.bind(f"ixchk_{_sanitize(channel.variable.name)}",
                              ("chan_ixchk", sim_bus.name, channel.name))
            self.emit(indent, f"{check}({addr})")
        data = "None"
        if channel.is_write:
            packer = self.bind(f"pack_{_sanitize(channel.variable.name)}",
                               ("packer", sim_bus.name, channel.name))
            data = self.temp("_dat")
            self.emit(indent,
                      f"{data} = {packer}({self._expr(args[0])})")
        transfer = self._transfer_name(sim_bus, pair, deferred)
        result = self.temp("_r")
        if deferred:
            self.emit(indent,
                      f"{result} = yield from {transfer}"
                      f"({addr}, {data}, t)")
            self.emit(indent, "t = 0")
        else:
            acquire = self.bind(f"acq_{_sanitize(sim_bus.name)}",
                                ("acquire", sim_bus.name))
            release = self.bind(f"rel_{_sanitize(sim_bus.name)}",
                                ("release", sim_bus.name))
            me = repr(self.behavior.name)
            self.emit(indent, f"yield from {acquire}({me})")
            self.emit(indent, "try:")
            self.emit(indent + 1,
                      f"{result} = yield from {transfer}"
                      f"({addr}, {data})")
            self.emit(indent, "finally:")
            self.emit(indent + 1, f"{release}({me})")
        if channel.is_read:
            decode = self.bind(f"dec_{_sanitize(channel.variable.name)}",
                               ("decoder", sim_bus.name, channel.name))
            value = self.temp("_v")
            self.emit(indent, f"{value} = {decode}({result})")
            target = stmt.results[0]
            if isinstance(target, ElementTarget):
                index = self.temp("_i")
                self.emit(indent,
                          f"{index} = {self._expr(target.index)}")
                env_write_element = self.bind(
                    "env_write_element", ("env", "write_element"))
                tvar = self.bind(f"v_{_sanitize(target.variable.name)}",
                                 ("var", target.variable.name))
                self.emit(indent,
                          f"{env_write_element}({tvar}, {index}, "
                          f"{value})")
            else:
                tmode, tname = self.modes[target.variable]
                wrapped = _wrap_code(target.variable.dtype, value)
                if tmode == "native":
                    self.emit(indent, f"{tname} = {wrapped}")
                else:
                    env_write = self.bind("env_write", ("env", "write"))
                    self.emit(indent,
                              f"{env_write}({tname}, {wrapped})")

    # -- assembly -----------------------------------------------------

    def compile(self) -> str:
        self._classify()
        self.emit(0, "def run():")
        self.emit(1, "t = 0")
        # The statement body runs inside try/except so that a raising
        # statement (checked div/mod, index check, bus error) first
        # flushes the pending batched clocks: the kernel then wraps the
        # re-raised exception at the same simulated clock the
        # interpreter would report.
        self.emit(1, "try:")
        env_read = self.bind("env_read", ("env", "read"))
        for variable in sorted(self.modes, key=lambda v: v.name):
            mode, name = self.modes[variable]
            if mode == "env":
                continue
            if variable in self._loadable:
                vname = self.bind(f"v_{_sanitize(variable.name)}",
                                  ("var", variable.name))
                self.emit(2, f"{name} = {env_read}({vname})")
            # For-only loop variables are assigned by their loop before
            # any read; no prologue load (and no env declaration).
        self._emit_body(self.behavior.body, 2)
        self.emit(2, "if t:")
        self.emit(3, "yield W(t)")
        env_write = self.bind("env_write", ("env", "write"))
        original = set(self.runtime.spec.original.variables)
        for variable in sorted(self.modes, key=lambda v: v.name):
            mode, name = self.modes[variable]
            if mode == "native" and variable in original:
                vname = self.bind(f"v_{_sanitize(variable.name)}",
                                  ("var", variable.name))
                self.emit(2, f"{env_write}({vname}, {name})")
        self.emit(1, "except GeneratorExit:")
        self.emit(2, "raise")
        self.emit(1, "except BaseException:")
        self.emit(2, "if t:")
        self.emit(3, "yield W(t)")
        self.emit(2, "raise")
        return "\n".join(self.lines) + "\n"


#: When set, every generated source is passed through this
#: ``(behavior_name, source) -> source`` hook before being exec'd and
#: recorded.  This is the seam the translation validator's codegen
#: defect corpus (:mod:`repro.analysis.tv.mutations`) uses to plant
#: *runnable* miscompilations: the mutated text is both what the
#: validator sees and what the kernel executes, so every refutation can
#: be replayed to a real backend divergence.
_SOURCE_TRANSFORM: Optional[Callable[[str, str], str]] = None


class source_transform:
    """Context manager installing a codegen source-transform hook."""

    def __init__(self, fn: Callable[[str, str], str]):
        self.fn = fn
        self._saved: Optional[Callable[[str, str], str]] = None

    def __enter__(self):
        global _SOURCE_TRANSFORM
        self._saved = _SOURCE_TRANSFORM
        _SOURCE_TRANSFORM = self.fn
        return self.fn

    def __exit__(self, *exc_info):
        global _SOURCE_TRANSFORM
        _SOURCE_TRANSFORM = self._saved
        return False


# ----------------------------------------------------------------------
# Reuse
#
# A warm simulate() elaborates the same refined spec again and again.
# Everything compile_spec derives -- the analysis, the channel plan, the
# deferred set and each behavior's (source, binding recipe, code object)
# -- is a pure function of the spec's IR and the runtime inputs
# :func:`_runtime_key` lists, so each elaboration walks the IR once
# (:func:`~repro.sim.compiled.reuse.spec_walk`) and reuses that state,
# per spec object, while the key holds; only the namespaces are rebuilt
# against the new runtime.  Across specs, :data:`_SOURCE_MEMO` shares
# the emitted text of structurally equal behaviors (width sweeps,
# verify-then-simulate flows).  A key that missed some input would not
# run silently wrong code: the translation validator re-checks every
# elaboration against facts it plans under its own key, and the
# in-place-edit checks of ``tools/validate_compiled.py`` seed such bugs.
# ----------------------------------------------------------------------

def _dtype_code(dtype) -> str:
    if isinstance(dtype, ArrayType):
        elem = dtype.element
        sign = "s" if getattr(elem, "signed", False) else "u"
        return f"a{dtype.length}x{elem.bits}{sign}"
    return f"{dtype.bits}{'s' if getattr(dtype, 'signed', False) else 'u'}"


def _memo_key(runtime, behavior, analysis: Analysis,
              deferred_channels, fingerprint: str) -> tuple:
    """Everything the emitted text depends on.  Transfer tiers are not
    part of it: the text calls ``xf_<channel>`` whatever the tier, and
    :func:`_rebind` binds the current plan's.  ``_scalar_bounds`` and
    ``CHUNK_CLOCKS`` ride along so a monkeypatched codegen (the test
    suite forces unsound elision this way) never shares entries with
    the stock one."""
    touched = analysis.touches[behavior.name]
    loadable = set(runtime.spec.original.variables) \
        | set(behavior.local_variables)
    original = set(runtime.spec.original.variables)
    variables = ";".join(
        f"{v.name}:{_dtype_code(v.dtype)}"
        f":{v in analysis.contested:d}{v in loadable:d}{v in original:d}"
        for v in sorted(touched, key=lambda v: v.name))
    calls = []
    for stmt in walk_statements(behavior.body):
        if not isinstance(stmt, Call):
            continue
        entry = runtime._proc_map.get(id(stmt.procedure))
        if entry is None:
            calls.append("?")
            continue
        sim_bus, pair = entry
        key = (sim_bus.name, pair.channel.name)
        proc = stmt.procedure
        calls.append(
            f"{sim_bus.name}.{pair.channel.name}"
            f":{key in deferred_channels:d}{proc.takes_address:d}"
            f"{pair.channel.is_write:d}{pair.channel.is_read:d}")
    return (_scalar_bounds, CHUNK_CLOCKS,
            f"{behavior.name}|{fingerprint}|{variables}|"
            + ";".join(calls))


#: memo key -> (generated source, binding recipe, code object).
_SOURCE_MEMO: Dict[tuple, Tuple[str, tuple, CodeType]] = {}
_SOURCE_MEMO_LIMIT = 512


def _runtime_key(runtime, held: List[object]) -> tuple:
    """Every input besides the IR that analysis, planning and emission
    read: the spec name (code objects are named after it), the
    normalized stages, the shared variables, each bus's arbiter type,
    injector, protection, protocol shape and bound procedures, the
    recorder and trace flags, and the codegen's own parameters.  Objects
    keyed by identity are appended to ``held``, which the reused state
    keeps alive so no id can be recycled under it."""
    spec = runtime.spec
    buses = []
    for refined_bus in spec.buses:
        sim_bus = runtime.buses[refined_bus.name]
        pairs = []
        for pair in refined_bus.procedures.values():
            held.extend((pair, pair.accessor, pair.channel,
                         pair.channel.variable))
            pairs.append((id(pair), id(pair.accessor), id(pair.channel),
                          id(pair.channel.variable)))
        held.append(sim_bus.protection)
        buses.append((refined_bus.name, type(sim_bus.arbiter),
                      sim_bus.injector is not None, id(sim_bus.protection),
                      sim_bus.uses_handshake, sim_bus.uses_burst,
                      tuple(pairs)))
    held.extend(spec.original.variables)
    return (spec.name, tuple(map(tuple, runtime._stages)),
            tuple(map(id, spec.original.variables)), tuple(buses),
            runtime.recorder is not None, bool(runtime.trace),
            _scalar_bounds, CHUNK_CLOCKS)


@dataclass
class _Elaboration:
    """What :func:`compile_spec` reuses for one spec under one key."""

    analysis: Analysis
    channel_modes: Dict[Tuple[str, str], Tuple[str, str]]
    #: compile and analysis fallbacks, sorted by behavior name.
    fallbacks: Dict[str, str]
    #: behavior name -> (source, code object, spec-level namespace,
    #: the recipe entries each runtime binds).
    lowered: Dict[str, Tuple[str, CodeType, dict, tuple]]
    #: the objects the key names by identity.
    held: List[object] = field(default_factory=list)


#: spec -> key -> :class:`_Elaboration`.  A few keys per spec, so runs
#: with and without an observer alternate without evicting each other.
_ELABORATIONS = SpecMemo(limit=4)


def _bind_transfer(runtime, sim_bus, pair, initiator: str, deferred: bool,
                   channel_modes, tiers: Dict[Tuple[str, str], str]):
    """The transfer coroutine of one call site, built for the tier the
    current plan gives its channel; records that tier in ``tiers``."""
    site = (sim_bus.name, pair.channel.name)
    mode, _ = channel_modes[site]
    tiers[site] = mode
    return make_transfer(sim_bus, pair, initiator, mode,
                         storage=runtime.storage_for(pair.channel.variable),
                         deferred=deferred)


def _bind_spec_level(behavior, recipe, analysis: Analysis, pairs
                     ) -> Tuple[Dict[str, object], tuple]:
    """Resolve the recipe entries that name spec-level objects (helpers,
    variables, index checks) once per lowering: ``(namespace part,
    the entries each runtime must still bind)``."""
    base: Dict[str, object] = {"W": Wait}
    per_runtime = []
    varmap = {v.name: v for v in analysis.touches[behavior.name]}
    for name, desc in recipe:
        kind = desc[0]
        if kind == "static":
            base[name] = desc[1]
        elif kind == "var":
            base[name] = varmap[desc[1]]
        elif kind == "var_ixchk":
            base[name] = varmap[desc[1]].dtype.validate_index
        elif kind == "chan_ixchk":
            base[name] = \
                pairs[desc[1], desc[2]].channel.variable.dtype.validate_index
        else:
            per_runtime.append((name, desc))
    return base, tuple(per_runtime)


def _rebind(runtime, behavior, base, recipe, pair_map, channel_modes,
            tiers) -> Dict[str, object]:
    """Bind the runtime half of a recipe (environment, codecs, arbiter,
    transfers) over the spec-level namespace ``base``.  Transfers take
    their tier from ``channel_modes``, the current plan."""
    ns = dict(base)
    for name, desc in recipe:
        kind = desc[0]
        if kind == "env":
            ns[name] = getattr(runtime.env, desc[1])
        elif kind == "packer":
            _, pair = pair_map[desc[1], desc[2]]
            ns[name] = runtime.packer_for(pair.channel.variable)
        elif kind == "decoder":
            _, pair = pair_map[desc[1], desc[2]]
            ns[name] = runtime.decoder_for(pair.channel.variable)
        elif kind == "acquire":
            ns[name] = runtime.buses[desc[1]].arbiter.acquire
        elif kind == "release":
            ns[name] = runtime.buses[desc[1]].arbiter.release
        elif kind == "transfer":
            bus_name, chan_name, deferred = desc[1:]
            sim_bus, pair = pair_map[bus_name, chan_name]
            ns[name] = _bind_transfer(runtime, sim_bus, pair,
                                      behavior.name, deferred,
                                      channel_modes, tiers)
        else:  # pragma: no cover - descriptors are produced above
            raise KeyError(f"unknown rebind descriptor {kind!r}")
    return ns


def _elaborate(runtime, fingerprints: Dict[str, str]) -> _Elaboration:
    """Analyze, plan and lower a spec from scratch (emitted text still
    comes out of :data:`_SOURCE_MEMO` when an equal behavior has been
    lowered before)."""
    spec = runtime.spec
    analysis = analyze_spec(spec, runtime._stages, runtime._proc_map)
    channel_modes: Dict[Tuple[str, str], Tuple[str, str]] = {}
    deferred = set()
    for refined_bus in spec.buses:
        sim_bus = runtime.buses[refined_bus.name]
        deferrable = (
            type(sim_bus.arbiter) is ImmediateArbiter
            and sim_bus.name in analysis.uncontended_buses
        )
        for pair in refined_bus.procedures.values():
            site = (sim_bus.name, pair.channel.name)
            channel_modes[site] = plan_channel(
                sim_bus, pair, analysis.contested, analysis.bus_serialized,
                runtime.recorder, runtime.trace)
            if channel_modes[site][0] == FUSED and deferrable:
                deferred.add(site)
    deferred_channels = frozenset(deferred)

    pairs = {(refined_bus.name, pair.channel.name): pair
             for refined_bus in spec.buses
             for pair in refined_bus.procedures.values()}
    fallbacks = dict(analysis.fallbacks)
    lowered: Dict[str, Tuple[str, CodeType, dict, tuple]] = {}
    for behavior in spec.behaviors:
        if behavior.name in fallbacks:
            continue
        memo_key = _memo_key(runtime, behavior, analysis,
                             deferred_channels, fingerprints[behavior.name])
        filename = f"<compiled {spec.name}.{behavior.name}>"
        cached = _SOURCE_MEMO.get(memo_key)
        if cached is not None:
            source, recipe, code = cached
            if code.co_filename != filename:
                # Same text under another spec name: recompile so
                # tracebacks name the spec that is running.
                code = compile(source, filename, "exec")
                _SOURCE_MEMO[memo_key] = (source, recipe, code)
        else:
            compiler = _BehaviorCompiler(runtime, behavior, analysis,
                                         deferred_channels)
            try:
                source = compiler.compile()
            except CompileFallback as exc:
                fallbacks[behavior.name] = str(exc)
                continue
            recipe = tuple(compiler.recipe)
            code = compile(source, filename, "exec")
            if len(_SOURCE_MEMO) >= _SOURCE_MEMO_LIMIT:
                _SOURCE_MEMO.pop(next(iter(_SOURCE_MEMO)))
            _SOURCE_MEMO[memo_key] = (source, recipe, code)
        base, per_runtime = _bind_spec_level(behavior, recipe, analysis,
                                             pairs)
        lowered[behavior.name] = (source, code, base, per_runtime)
    # Deterministic rendering everywhere the dict is iterated (MANIFEST,
    # run reports, SimResult.fallbacks): sorted by process name.
    return _Elaboration(analysis=analysis, channel_modes=channel_modes,
                        fallbacks=dict(sorted(fallbacks.items())),
                        lowered=lowered)


def compile_spec(runtime) -> CompiledProgram:
    """Compile every compilable behavior of a
    :class:`~repro.sim.runtime.RefinedSimulation`."""
    spec = runtime.spec
    fingerprints, refs = spec_walk(spec)
    held: List[object] = []
    key = (_runtime_key(runtime, held), tuple(fingerprints.items()),
           tuple(map(id, refs)))
    state = _ELABORATIONS.get(spec, key)
    if state is None:
        state = _elaborate(runtime, fingerprints)
        state.held = refs + held
        _ELABORATIONS.put(spec, key, state)
    program = CompiledProgram(fallbacks=dict(state.fallbacks),
                              channel_modes=dict(state.channel_modes),
                              analysis=state.analysis,
                              fingerprints=fingerprints, refs=refs)
    pair_map = {
        (refined_bus.name, pair.channel.name):
            (runtime.buses[refined_bus.name], pair)
        for refined_bus in spec.buses
        for pair in refined_bus.procedures.values()
    }
    for behavior in spec.behaviors:
        lowered = state.lowered.get(behavior.name)
        if lowered is None:
            continue
        source, code, base, recipe = lowered
        tiers: Dict[Tuple[str, str], str] = {}
        ns = _rebind(runtime, behavior, base, recipe, pair_map,
                     program.channel_modes, tiers)
        if _SOURCE_TRANSFORM is not None:
            # A planted defect: run the transformed text, never cache it.
            source = _SOURCE_TRANSFORM(behavior.name, source)
            code = compile(source, f"<compiled {spec.name}."
                           f"{behavior.name}>", "exec")
        exec(code, ns)
        program.processes[behavior.name] = ns["run"]  # type: ignore
        program.sources[behavior.name] = source
        program.transfer_tiers[behavior.name] = tiers
    return program
