"""The compiled simulation backend is an optimization, not a second
semantics: for every observable -- transaction logs, final values,
per-behavior clocks, fault records -- it must agree with the reference
interpreter byte for byte.

Three layers of evidence:

* **Golden byte-invariance**: every committed golden under
  ``tests/data/`` replayed on the compiled backend produces the exact
  seed record, except the ``kernel`` counters section (the compiled
  backend batches statement clocks into single kernel waits, so steps
  and clock jumps legitimately differ while simulated time does not).

* **Differential fuzzing**: randomly generated two-behavior systems
  (with While loops, WaitClocks and contested shared state) and random
  fault plans on the protected FLC run on both backends and must agree
  on every :class:`SimResult` field.

* **Unit pins**: fallback reasons, ``--emit-sim-source`` output,
  backend validation, and the CLI/report plumbing.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tv.mutations import DEFECTS, check_defect
from repro.errors import SimulationError
from repro.partition.channels import default_bus_groups, extract_channels
from repro.partition.partitioner import Partition
from repro.apps.contended import (
    ARBITRATIONS,
    arbiter_factories,
    build_contended,
    reference_state,
)
from repro.protocols import (
    BURST_HANDSHAKE,
    FIXED_DELAY,
    FULL_HANDSHAKE,
    HALF_HANDSHAKE,
)
from repro.protogen.refine import generate_protocol, refine_system
from repro.sim.runtime import BACKENDS, RefinedSimulation, simulate
from repro.spec.behavior import Behavior
from repro.spec.expr import BinOp, Index, Ref
from repro.spec.stmt import Assign, For, If, WaitClocks, While
from repro.spec.system import SystemSpec
from repro.spec.types import ArrayType, IntType
from repro.spec.variable import Variable

from tests.conftest import make_fig3
from tests.golden_util import (
    GOLDEN_SYSTEMS,
    GOLDEN_VARIANTS,
    capture_system,
    capture_variant,
    dump,
    load_golden,
)

ARRAY_LEN = 6


def _strip_kernel(record):
    """Drop the kernel counters -- the one section batching may change."""
    record = dict(record)
    record.pop("kernel")
    return record


# ---------------------------------------------------------------------------
# Golden byte-invariance


@pytest.mark.parametrize("slug", GOLDEN_SYSTEMS)
def test_compiled_backend_reproduces_golden(slug):
    golden = load_golden(slug)
    record = capture_system(slug, backend="compiled")
    assert dump(_strip_kernel(record)) == dump(_strip_kernel(golden))


@pytest.mark.parametrize("slug", sorted(GOLDEN_VARIANTS))
def test_compiled_backend_reproduces_variant_golden(slug):
    golden = load_golden(slug)
    record = capture_variant(slug, backend="compiled")
    assert dump(_strip_kernel(record)) == dump(_strip_kernel(golden))


@pytest.mark.parametrize("slug", GOLDEN_SYSTEMS)
def test_transaction_logs_byte_identical(slug):
    """The headline oracle, stated directly: the serialized transaction
    log of the compiled run equals the committed golden's bytes."""
    golden = load_golden(slug)
    record = capture_system(slug, backend="compiled")
    assert (json.dumps(record["transactions"], sort_keys=True)
            == json.dumps(golden["transactions"], sort_keys=True))


# ---------------------------------------------------------------------------
# Differential fuzzing: random systems on both backends


def _assert_results_agree(interp, compiled):
    """Every SimResult observable, not just final values."""
    assert compiled.final_values == interp.final_values
    assert compiled.transactions == interp.transactions
    assert compiled.clocks == interp.clocks
    assert compiled.end_time == interp.end_time
    assert compiled.arbitration_wait == interp.arbitration_wait
    assert compiled.utilization == interp.utilization
    assert ([r.to_dict() for r in compiled.fault_records]
            == [r.to_dict() for r in interp.fault_records])
    assert set(compiled.stats.processes) == set(interp.stats.processes)
    for name, got in compiled.stats.processes.items():
        want = interp.stats.processes[name]
        assert (got.daemon, got.finished, got.start_time,
                got.finish_time) == (want.daemon, want.finished,
                                     want.start_time, want.finish_time), name
    assert compiled.backend == "compiled"
    assert interp.backend == "interp"


@st.composite
def expressions(draw, scalars, array, depth=0):
    kind = draw(st.sampled_from(
        ["const", "scalar", "binop", "index"] if depth < 2
        else ["const", "scalar"]))
    if kind == "const":
        return draw(st.integers(-80, 80))
    if kind == "scalar":
        return Ref(draw(st.sampled_from(scalars)))
    if kind == "index":
        return Index(array, draw(st.integers(0, ARRAY_LEN - 1)))
    from repro.spec.expr import as_expr
    lhs = as_expr(draw(expressions(scalars, array, depth + 1)))
    rhs = as_expr(draw(expressions(scalars, array, depth + 1)))
    op = draw(st.sampled_from(["+", "-", "*", "min", "max", "=", "<",
                               "and", "or"]))
    return BinOp(op, lhs, rhs)


@st.composite
def statements(draw, scalars, locals_, array, counter, depth=0):
    """Random statement; While loops count down ``counter`` so they
    always terminate while still exercising the chunked-flush path."""
    kinds = ["assign_local", "assign_remote", "assign_element", "wait"]
    if depth < 1:
        kinds += ["if", "for", "while"]
    kind = draw(st.sampled_from(kinds))
    from repro.spec.expr import as_expr
    expr = as_expr(draw(expressions(scalars + locals_, array)))
    if kind == "assign_local":
        return Assign(draw(st.sampled_from(locals_)), expr)
    if kind == "assign_remote":
        return Assign(draw(st.sampled_from(scalars)), expr)
    if kind == "assign_element":
        return Assign((array, draw(st.integers(0, ARRAY_LEN - 1))), expr)
    if kind == "wait":
        return WaitClocks(draw(st.integers(1, 5)))
    body = draw(st.lists(
        statements(scalars, locals_, array, counter, depth + 1),
        min_size=1, max_size=2))
    if kind == "if":
        cond = as_expr(draw(expressions(scalars + locals_, array)))
        else_body = draw(st.lists(
            statements(scalars, locals_, array, counter, depth + 1),
            min_size=0, max_size=2))
        return If(cond, body, else_body)
    if kind == "while":
        bound = draw(st.integers(1, 4))
        return While(BinOp("<", Ref(counter), bound),
                     body + [Assign(counter, BinOp("+", Ref(counter), 1))])
    loop_var = Variable(f"loop{draw(st.integers(0, 10**6))}", IntType(16))
    return For(loop_var, 0, draw(st.integers(0, 3)), body)


@st.composite
def systems(draw):
    """Two behaviors sharing a scalar and an array through one bus.

    The shared scalar is contested (both behaviors touch it), locals
    are not -- so the generated code exercises both the flushed
    environment path and the native-local fast path, plus 16-bit
    wrap-around via multiplication.
    """
    x = Variable("X", IntType(16), init=draw(st.integers(-40, 40)))
    arr = Variable("ARR", ArrayType(IntType(16), ARRAY_LEN))
    behaviors = []
    for name in ("P", "Q"):
        locals_ = [Variable(f"{name}_l{k}", IntType(16),
                            init=draw(st.integers(-10, 10)))
                   for k in range(2)]
        counter = Variable(f"{name}_ctr", IntType(16), init=0)
        body = draw(st.lists(
            statements([x], locals_, arr, counter),
            min_size=1, max_size=4))
        behaviors.append(Behavior(name, body,
                                  local_variables=locals_ + [counter]))
    return SystemSpec("fuzz", behaviors, [x, arr])


def _refine(system, protocol, width):
    partition = Partition(system)
    chip = partition.add_module("chip")
    memory = partition.add_module("memory")
    for behavior in system.behaviors:
        partition.assign(behavior, chip)
    for variable in system.variables:
        partition.assign(variable, memory)
    channels = extract_channels(partition)
    if not channels:
        return None
    group = default_bus_groups(partition, channels=channels)[0]
    return generate_protocol(system, group, width=width,
                             protocol=protocol)


@given(systems(),
       st.sampled_from([FULL_HANDSHAKE, HALF_HANDSHAKE, FIXED_DELAY]),
       st.integers(min_value=1, max_value=20),
       st.sampled_from([["P", "Q"], [["P"], ["Q"]], None]))
@settings(max_examples=40, deadline=None)
def test_backends_agree_on_random_systems(system, protocol, width,
                                          schedule):
    refined = _refine(system, protocol, width)
    if refined is None:
        return
    interp = simulate(refined, schedule=schedule, backend="interp")
    compiled = simulate(refined, schedule=schedule, backend="compiled")
    _assert_results_agree(interp, compiled)


@given(protection=st.sampled_from(["parity", "crc8"]),
       transaction=st.integers(0, 40),
       flip_mask=st.integers(1, 0b111))
@settings(max_examples=8, deadline=None)
def test_backends_agree_under_random_faults(protection, transaction,
                                            flip_mask):
    """Random bit-flip faults on the protected FLC: retries, recovery
    and fault records must match across backends (fault injection
    forces bus transfers onto the exact-clock interpreter tier, but
    behavior bodies stay compiled)."""
    from repro.apps.flc import build_flc
    from repro.busgen.algorithm import generate_bus
    from repro.protogen.refine import refine_system
    from repro.sim.faults import Fault, FaultKind, FaultPlan

    model = build_flc(250, 180)
    design = generate_bus(model.bus_b)
    refined = refine_system(model.system, [design], protection=protection)

    results = []
    for backend in BACKENDS:
        plan = FaultPlan(faults=[Fault(
            kind=FaultKind.BIT_FLIP, bus="B", flip_mask=flip_mask,
            transaction=transaction, word=0)])
        results.append(simulate(refined, schedule=model.schedule,
                                faults=plan, backend=backend))
    interp, compiled = results
    _assert_results_agree(interp, compiled)
    assert compiled.fault_records, "fault plan never fired"


# ---------------------------------------------------------------------------
# Unit pins


def _flc_refined():
    from repro.apps.flc import build_flc
    from repro.busgen.algorithm import generate_bus
    from repro.protogen.refine import refine_system

    model = build_flc(250, 180)
    design = generate_bus(model.bus_b)
    return model, refine_system(model.system, [design])


def test_flc_compiles_fully():
    model, refined = _flc_refined()
    sim = RefinedSimulation(refined, schedule=model.schedule,
                            backend="compiled")
    program = sim.compiled
    assert program is not None
    assert program.fallbacks == {}
    assert program.compiled_count == program.total_count


def test_whole_array_read_falls_back_with_reason():
    """A lazily-raising construct in dead code must not change behavior:
    the whole behavior stays on the interpreter, with the reason
    recorded, and both backends still agree."""
    x = Variable("X", IntType(16), init=3)
    arr = Variable("P_arr", ArrayType(IntType(16), 4))
    local = Variable("P_t", IntType(16), init=0)
    poisoned = Behavior("P", [
        Assign(x, BinOp("+", Ref(x), 1)),
        If(0, [Assign(local, Ref(arr))], []),  # dead whole-array read
    ], local_variables=[local, arr])
    clean = Behavior("Q", [Assign(x, BinOp("*", Ref(x), 2))])
    system = SystemSpec("fallback", [poisoned, clean], [x])
    refined = _refine(system, FULL_HANDSHAKE, 8)
    sim = RefinedSimulation(refined, schedule=["P", "Q"],
                            backend="compiled")
    assert "P" in sim.compiled.fallbacks
    assert "whole-array read" in sim.compiled.fallbacks["P"]
    assert "Q" not in sim.compiled.fallbacks
    interp = simulate(refined, schedule=["P", "Q"], backend="interp")
    compiled = simulate(refined, schedule=["P", "Q"], backend="compiled")
    _assert_results_agree(interp, compiled)


def test_emit_sim_source(tmp_path):
    model, refined = _flc_refined()
    simulate(refined, schedule=model.schedule, backend="compiled",
             emit_sim_source=str(tmp_path))
    sources = sorted(tmp_path.glob("*.py"))
    assert sources, "no generated sources written"
    text = sources[0].read_text()
    assert refined.name in text
    assert "protocol" in text and "width" in text
    manifests = list(tmp_path.glob("*MANIFEST.txt"))
    assert len(manifests) == 1
    # Every emitted file must be valid Python.
    for path in sources:
        compile(path.read_text(), str(path), "exec")


def test_emit_sim_source_requires_compiled_backend():
    model, refined = _flc_refined()
    with pytest.raises(SimulationError, match="backend='compiled'"):
        simulate(refined, schedule=model.schedule, backend="interp",
                 emit_sim_source="/tmp/nope")


def test_unknown_backend_rejected():
    model, refined = _flc_refined()
    with pytest.raises(SimulationError, match="interp.*compiled"):
        simulate(refined, schedule=model.schedule, backend="jit")


def test_result_records_backend():
    model, refined = _flc_refined()
    result = simulate(refined, schedule=model.schedule,
                      backend="compiled")
    assert result.backend == "compiled"
    from repro.obs.report import sim_section
    section = sim_section("flc", result)
    assert section["backend"] == "compiled"


class TestCli:
    def test_synth_backend_compiled(self, capsys):
        from repro.cli import main
        assert main(["synth", "answering-machine", "--simulate",
                     "--backend", "compiled"]) == 0
        out = capsys.readouterr().out
        assert "oracle check: OK" in out

    def test_emit_sim_source_flag(self, tmp_path, capsys):
        from repro.cli import main
        out_dir = tmp_path / "src"
        assert main(["synth", "flc", "--simulate", "--backend",
                     "compiled", "--emit-sim-source", str(out_dir)]) == 0
        assert list(out_dir.glob("*.py"))

    def test_emit_sim_source_requires_simulate(self, capsys):
        from repro.cli import main
        assert main(["synth", "flc",
                     "--emit-sim-source", "/tmp/nope"]) == 2
        err = capsys.readouterr().err
        assert "--simulate" in err

    def test_profile_reports_backend(self, capsys):
        from repro.cli import main
        assert main(["profile", "answering-machine", "--backend",
                     "compiled"]) == 0
        out = capsys.readouterr().out
        assert "backend: compiled" in out


# ---------------------------------------------------------------------------
# Codegen source memoization


class TestSourceMemo:
    """Re-elaborating an equal design point reuses the memoized
    generated source (only the namespace is rebound to the new
    runtime) and still matches the interpreter observable-for-
    observable."""

    @staticmethod
    def _refined():
        from repro.apps.flc import build_flc
        from repro.protogen.refine import refine_system

        model = build_flc()
        return (refine_system(model.system, [(model.bus_b, 8)]),
                model.schedule)

    def test_reelaboration_reuses_memoized_sources(self):
        spec1, schedule = self._refined()
        spec2, _ = self._refined()
        sim1 = RefinedSimulation(spec1, schedule=schedule,
                                 backend="compiled")
        sim2 = RefinedSimulation(spec2, schedule=schedule,
                                 backend="compiled")
        assert sim1.compiled.sources
        for name, source in sim1.compiled.sources.items():
            # The very same string object: the memo hit, emission
            # was skipped.
            assert sim2.compiled.sources[name] is source
        spec3, _ = self._refined()
        interp = simulate(spec3, schedule=schedule, backend="interp")
        _assert_results_agree(interp, sim2.run())

    def test_memoized_program_passes_translation_validation(self):
        from repro.analysis.tv import validate_refined

        spec, schedule = self._refined()
        report = validate_refined(spec, schedule=schedule)
        assert report.all_validated, report.render_text()


class TestCompileCache:
    """The source memo also holds each behavior's code object, so a warm
    re-elaboration neither emits nor compiles; a source-transform hook
    compiles its own text and never reaches the memo."""

    def test_warm_rerun_of_many_behaviors_compiles_nothing(self,
                                                           monkeypatch):
        from repro.sim.compiled import codegen
        from tests.test_stress import many_producers_system

        # More behaviors than the old 256-entry compile cache held.
        system, group, _, producers, _ = many_producers_system(
            producers=260, messages=1)
        refined = generate_protocol(system, group, width=8)
        calls = []

        def counting_compile(source, filename, mode):
            calls.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(codegen, "compile", counting_compile,
                            raising=False)
        first = simulate(refined, backend="compiled")
        assert first.fallbacks == {}
        assert len(calls) == producers
        calls.clear()
        second = simulate(refined, backend="compiled")
        assert calls == []
        _assert_results_agree(simulate(refined, backend="interp"), second)

    def test_cached_code_is_named_after_the_running_spec(self):
        """A memo hit from an equal behavior of another spec still
        compiles under this spec's name, so tracebacks point at it."""
        programs = {}
        for name in ("first", "second"):
            counter = Variable("COUNT", IntType(8))
            behavior = Behavior("B", [Assign(counter, Ref(counter) + 1)])
            system = SystemSpec(name, [behavior], [counter])
            partition = Partition(system)
            chip = partition.add_module("chip")
            memory = partition.add_module("memory")
            partition.assign(behavior, chip)
            partition.assign(counter, memory)
            group = default_bus_groups(partition)[0]
            refined = generate_protocol(system, group, width=8)
            programs[refined.name] = RefinedSimulation(
                refined, backend="compiled").compiled
        first, second = programs.values()
        assert second.sources["B"] is first.sources["B"]
        for name, program in programs.items():
            assert program.processes["B"].__code__.co_filename == \
                f"<compiled {name}.B>"

    @pytest.mark.parametrize("defect", DEFECTS, ids=[d.name for d in DEFECTS])
    def test_corpus_refuted_and_never_cached(self, defect):
        outcome = check_defect(defect)
        assert outcome.clean and outcome.mutated
        assert outcome.codes == (defect.code,), outcome.render_line()
        assert outcome.refuted and outcome.replay.confirmed
        # The mutated text ran under the hook, but a clean run afterwards
        # (served from the memo) executes the clean code: it agrees with
        # the interpreter, which the mutated code provably does not.
        spec, schedule = defect.build()
        compiled = simulate(spec, schedule=schedule, backend="compiled")
        assert compiled.fallbacks == {}
        spec, schedule = defect.build()
        _assert_results_agree(
            simulate(spec, schedule=schedule, backend="interp"), compiled)


# ---------------------------------------------------------------------------
# Contended buses: one arbiter serializes every access to the served
# variables, so their transfers take the fused tier


CONTENDED_PROTOCOLS = {
    "full": (FULL_HANDSHAKE, None),
    "half": (HALF_HANDSHAKE, None),
    "burst": (BURST_HANDSHAKE, None),
    "parity": (FULL_HANDSHAKE, "parity"),
}
CONTENDED_N, CONTENDED_M = 12, 3


def _contended(protocol="full"):
    model = build_contended(CONTENDED_N, CONTENDED_M)
    proto, protection = CONTENDED_PROTOCOLS[protocol]
    return model, generate_protocol(model.system, model.bus, width=8,
                                    protocol=proto, protection=protection)


@pytest.mark.parametrize("protocol", sorted(CONTENDED_PROTOCOLS))
@pytest.mark.parametrize("policy", ARBITRATIONS)
def test_contended_bus_fuses_and_agrees(policy, protocol):
    model, refined = _contended(protocol)
    factories = arbiter_factories(policy, model.bus.name)
    sim = RefinedSimulation(refined, backend="compiled",
                            arbiter_factories=factories)
    program = sim.compiled
    assert program.fallbacks == {}
    assert {mode for mode, _ in program.channel_modes.values()} \
        == {"fused"}
    assert {tier for tiers in program.transfer_tiers.values()
            for tier in tiers.values()} == {"fused"}
    compiled = sim.run()
    interp = simulate(refined, backend="interp",
                      arbiter_factories=factories)
    _assert_results_agree(interp, compiled)
    assert interp.arbitration_wait[model.bus.name] > 0  # really contended
    for name, values in reference_state(CONTENDED_N,
                                        CONTENDED_M).items():
        assert compiled.final_values[name] == values


def _served_channels(refined, variable_name):
    return {pair.channel.name for bus in refined.buses
            for pair in bus.procedures.values()
            if pair.channel.variable.name == variable_name}


def test_directly_touched_served_variable_stays_specialized():
    """A behavior on the memory module reads ``MEM`` without the bus:
    the arbiter no longer covers every access, so ``MEM`` transfers
    keep word-exact timing while ``ACC`` (bus-only) still fuses."""
    model = build_contended(6, 2)
    variables = {v.name: v for v in model.system.variables}
    mem = variables["MEM"]
    snap = Variable("SNAP", IntType(16))
    snoop = Behavior("SNOOP", [WaitClocks(5), Assign(snap, Index(mem, 0)),
                               WaitClocks(7), Assign(snap, Index(mem, 3))])
    system = SystemSpec("snooped", list(model.system.behaviors) + [snoop],
                        list(model.system.variables) + [snap])
    partition = Partition(system)
    chip = partition.add_module("chip")
    memory = partition.add_module("memory")
    for behavior in model.system.behaviors:
        partition.assign(behavior, chip)
    partition.assign(snoop, memory)
    for variable in system.variables:
        partition.assign(variable, memory)
    refined = generate_protocol(system, default_bus_groups(partition)[0],
                                width=8)
    sim = RefinedSimulation(refined, backend="compiled")
    modes = sim.compiled.channel_modes
    for (_, channel), (mode, reason) in modes.items():
        if channel in _served_channels(refined, "MEM"):
            assert mode == "specialized"
            assert "potentially-concurrent" in reason
        else:
            assert mode == "fused"
    _assert_results_agree(simulate(refined, backend="interp"), sim.run())


def test_variable_served_through_two_buses_stays_specialized():
    """Initiators on two chips reach ``MEM`` over two buses: two
    arbiters, so transfers on one may overlap transfers on the other."""
    model = build_contended(6, 2)
    partition = Partition(model.system)
    left = partition.add_module("left")
    right = partition.add_module("right")
    memory = partition.add_module("memory")
    for index, behavior in enumerate(model.system.behaviors):
        partition.assign(behavior, left if index % 2 else right)
    for variable in model.system.variables:
        partition.assign(variable, memory)
    groups = default_bus_groups(partition)
    assert len(groups) == 2
    refined = refine_system(model.system, [(group, 8) for group in groups])
    sim = RefinedSimulation(refined, backend="compiled")
    assert "MEM" not in {v.name for v in sim.compiled.analysis.bus_serialized}
    mem_channels = _served_channels(refined, "MEM")
    for (_, channel), (mode, _) in sim.compiled.channel_modes.items():
        if channel in mem_channels:
            assert mode == "specialized"
    _assert_results_agree(simulate(refined, backend="interp"), sim.run())


def test_recorder_after_detached_run_rebinds_without_recompiling(
        monkeypatch):
    """The generated source names no tier: attaching a flight recorder
    (which forces the specialized tier) re-binds the transfers but
    reuses the memoized source and its cached verdict."""
    from repro.analysis.tv import checker
    from repro.obs.flight import FlightRecorder
    from repro.sim.compiled import codegen

    model, refined = _contended("half")
    factories = arbiter_factories("rr", model.bus.name)
    detached = RefinedSimulation(refined, backend="compiled",
                                 arbiter_factories=factories)
    recorder = FlightRecorder()
    memo = set(codegen._SOURCE_MEMO)
    proofs = []
    real_check = checker._Checker.check

    def counting_check(self, source):
        proofs.append(self.facts.name)
        return real_check(self, source)

    monkeypatch.setattr(checker._Checker, "check", counting_check)
    observed = RefinedSimulation(refined, backend="compiled",
                                 arbiter_factories=factories,
                                 recorder=recorder)
    assert set(codegen._SOURCE_MEMO) <= memo
    assert proofs == []
    program = observed.compiled
    assert program.fallbacks == {}
    for name, source in program.sources.items():
        assert source is detached.compiled.sources[name]
        assert set(program.transfer_tiers[name].values()) \
            == {"specialized"}
    assert {mode for mode, _ in program.channel_modes.values()} \
        == {"specialized"}
    reference = FlightRecorder()
    _assert_results_agree(
        simulate(refined, backend="interp", arbiter_factories=factories,
                 recorder=reference),
        observed.run())
    # The re-bound transfers journal every word like the interpreter's.
    assert [e.to_dict() for e in recorder.events] \
        == [e.to_dict() for e in reference.events]


# ---------------------------------------------------------------------------
# Elaboration reuse: a warm re-elaboration of an unchanged spec walks its
# IR once and re-analyzes, re-plans, re-emits and re-compiles nothing;
# any in-place edit or observer change is seen on the next elaboration


class _ElaborationCounts:
    """Counts the work a compiled elaboration does, by patching the
    module attributes each stage looks up at call time."""

    def __init__(self, monkeypatch):
        from repro.analysis.tv import trace
        from repro.sim.compiled import analyze, codegen, reuse
        from repro.spec import behavior as behavior_mod

        self.analyses = 0
        self.facts = 0
        self.compiles = 0
        self.walks = {}
        self.other_walks = 0

        def count_analysis(real):
            def wrapper(*args, **kwargs):
                self.analyses += 1
                return real(*args, **kwargs)
            return wrapper

        for module in (codegen, trace):
            monkeypatch.setattr(module, "analyze_spec",
                                count_analysis(module.analyze_spec))

        real_facts = trace.BehaviorFacts

        class CountingFacts(real_facts):
            def __init__(inner, *args, **kwargs):
                self.facts += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(trace, "BehaviorFacts", CountingFacts)

        def counting_compile(source, filename, mode):
            self.compiles += 1
            return compile(source, filename, mode)

        monkeypatch.setattr(codegen, "compile", counting_compile,
                            raising=False)

        real_fingerprint = reuse.ir_fingerprint

        def counting_fingerprint(behavior, refs=None):
            self.walks[behavior.name] = self.walks.get(behavior.name, 0) + 1
            return real_fingerprint(behavior, refs)

        monkeypatch.setattr(reuse, "ir_fingerprint", counting_fingerprint)

        def count_walk(real):
            def wrapper(*args, **kwargs):
                self.other_walks += 1
                return real(*args, **kwargs)
            return wrapper

        for module in (analyze, codegen, trace):
            monkeypatch.setattr(module, "walk_statements",
                                count_walk(module.walk_statements))
        monkeypatch.setattr(behavior_mod, "walk",
                            count_walk(behavior_mod.walk))

    def reset(self):
        self.analyses = self.facts = self.compiles = self.other_walks = 0
        self.walks = {}


class TestElaborationReuse:
    """Per-spec reuse: exact work counts on a warm re-elaboration, and
    every in-place edit or observer change seen by the next one."""

    @staticmethod
    def _many(producers):
        from tests.test_stress import many_producers_system

        system, group, _, _, _ = many_producers_system(
            producers=producers, messages=1)
        return generate_protocol(system, group, width=8)

    @pytest.mark.parametrize("producers", [12, 520])
    def test_warm_reelaboration_does_only_the_walk(self, producers,
                                                  monkeypatch):
        """More behaviors than the 512-entry cross-spec source memo
        holds: the per-spec state still answers everything."""
        refined = self._many(producers)
        counts = _ElaborationCounts(monkeypatch)
        first = RefinedSimulation(refined, backend="compiled")
        assert first.compiled.fallbacks == {}
        assert counts.analyses == 1 and counts.facts == producers
        counts.reset()
        warm = RefinedSimulation(refined, backend="compiled")
        assert counts.analyses == 0
        assert counts.facts == 0
        assert counts.compiles == 0
        assert counts.walks == {b.name: 1 for b in refined.behaviors}
        assert counts.other_walks == 0
        assert warm.tv_report.all_validated
        assert warm.compiled.sources == first.compiled.sources
        if producers < 100:
            _assert_results_agree(simulate(refined, backend="interp"),
                                  warm.run())

    def test_dropped_spec_takes_its_state_along(self):
        import gc
        import weakref

        from repro.analysis.tv import checker
        from repro.sim.compiled import codegen

        refined = self._many(3)
        RefinedSimulation(refined, backend="compiled")
        key = id(refined)
        assert key in codegen._ELABORATIONS._slots
        assert key in checker._FACTS._slots
        alive = weakref.ref(refined)
        del refined
        gc.collect()
        assert alive() is None
        assert key not in codegen._ELABORATIONS._slots
        assert key not in checker._FACTS._slots

    @staticmethod
    def _edits():
        """In-place edits of a refined fig. 3 spec, each observable."""
        from repro.protogen.procedures import CommProcedure
        from repro.spec.expr import Const
        from repro.spec.stmt import Call

        def const_arg(refined):
            call = next(s for s in refined.behavior("Q").body
                        if isinstance(s, Call)
                        and isinstance(s.procedure, CommProcedure)
                        and s.procedure.channel.is_write)
            call.args[-1] = Const(13)

        def delay(refined):
            refined.behavior("Q").body.insert(0, WaitClocks(17))

        def replace(refined):
            old = refined.behaviors[0]
            refined.behaviors[0] = Behavior(
                old.name, [WaitClocks(5)] + list(old.body),
                local_variables=old.local_variables)

        return {"const_arg": const_arg, "delay": delay, "replace": replace}

    @pytest.mark.parametrize("first_backend", BACKENDS)
    @pytest.mark.parametrize("edit", ["const_arg", "delay", "replace"])
    def test_edit_after_a_run_is_seen_by_the_next_run(self, edit,
                                                     first_backend):
        fig3 = make_fig3()
        refined = generate_protocol(fig3.system, fig3.group, width=8)
        schedule = ["P", "Q"]
        for _ in range(2):
            before = simulate(refined, schedule=schedule,
                              backend=first_backend)
        self._edits()[edit](refined)
        compiled = simulate(refined, schedule=schedule, backend="compiled")
        interp = simulate(refined, schedule=schedule, backend="interp")
        assert compiled.fallbacks == {}
        _assert_results_agree(interp, compiled)
        assert (interp.final_values, interp.end_time) \
            != (before.final_values, before.end_time)

    def test_observers_between_calls_rebind_the_tiers(self):
        from repro.obs import SimMetrics
        from repro.obs.flight import FlightRecorder

        model, refined = _contended("full")
        factories = arbiter_factories("fifo", model.bus.name)

        def elaborate(**observers):
            return RefinedSimulation(refined, backend="compiled",
                                     arbiter_factories=factories,
                                     **observers)

        def tiers(sim):
            assert sim.compiled.fallbacks == {}
            return {tier for bound in sim.compiled.transfer_tiers.values()
                    for tier in bound.values()}

        assert tiers(elaborate()) == {"fused"}
        assert tiers(elaborate(recorder=FlightRecorder())) \
            == {"specialized"}
        assert tiers(elaborate()) == {"fused"}

        metrics = SimMetrics()
        observed = elaborate(metrics=metrics)
        assert tiers(observed) == {"fused"}
        observed.run()
        reference = SimMetrics()
        simulate(_contended("full")[1], backend="compiled",
                 arbiter_factories=factories, metrics=reference)
        assert metrics.bus(model.bus.name).to_dict() \
            == reference.bus(model.bus.name).to_dict()

    def test_arbiter_methods_bound_once_per_bus(self):
        """A behavior with two arbitrated call sites binds one
        acquire/release pair and still validates."""
        import re

        model, refined = _contended("full")
        sim = RefinedSimulation(
            refined, backend="compiled",
            arbiter_factories=arbiter_factories("rr", model.bus.name))
        source = sim.compiled.sources["INIT01"]
        assert len(re.findall(r"yield from _b\d+_acq_", source)) == 2
        assert len(set(re.findall(r"_b\d+_acq_\w+", source))) == 1
        assert len(set(re.findall(r"_b\d+_rel_\w+", source))) == 1
        assert sim.compiled.verdicts["INIT01"].startswith("validated")


def _validate_compiled_tool():
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).parent.parent / "tools" \
        / "validate_compiled.py"
    spec = importlib.util.spec_from_file_location("validate_compiled",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("bug, system", [
    ("const_blind_fingerprint", "contended"),
    ("recorder_blind_key", "contended"),
    # flc's uncontended bus defers arbitration: a stale deferred form
    # must still be refuted as P804, not as a pending-clock P802.
    ("recorder_blind_key", "flc"),
])
def test_seeded_reuse_key_bugs_are_caught(bug, system):
    tool = _validate_compiled_tool()
    assert tool._reuse_findings(system) == []
    seed, want = next((seed, want) for name, seed, want in tool.KEY_BUGS
                      if name == bug)
    with seed():
        kinds = {kind for kind, _ in tool._reuse_findings(system)}
    assert kinds == {want}
