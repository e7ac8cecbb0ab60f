"""Translation validation of the compiled simulation backend.

Four directions of evidence:

* **Soundness on clean builds**: every process of every built-in
  system validates at every protection level -- no spurious P8xx, no
  silent interpreter demotion -- and the gated compiled run agrees
  with the interpreter.
* **Refutability**: each seeded codegen defect
  (:mod:`repro.analysis.tv.mutations`) is refuted by *exactly* its own
  P8xx code, on a clean baseline, and the refutation replays to a
  concrete backend divergence.
* **The gate**: ``simulate(..., backend="compiled")`` demotes refuted
  processes to the interpreter (recorded on ``SimResult.fallbacks``,
  the run report, and the emitted MANIFEST) so a miscompile can cost
  speed, never correctness.
* **Obligation edges**: wrap-elision boundaries under hypothesis, a
  forced-unsound elision that must be refuted P803, and div/mod error
  parity between the backends.
* **Copy-free normalization**: the in-place ``normalize`` agrees with
  the copy-then-rename reference on random expressions and on every
  verdict of the seeded defect corpus, and never changes its input.
"""

import ast
import copy
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.tv import checker, pyparse, validate_refined
from repro.analysis.tv.mutations import (
    DEFECTS,
    _counter_spec,
    _validate_build,
    check_defect,
)
from repro.analysis.tv.pyparse import Renamer, normalize
from repro.busgen.algorithm import generate_bus
from repro.errors import DIAGNOSTIC_CODES, SimulationError
from repro.partition.channels import default_bus_groups, extract_channels
from repro.partition.partitioner import Partition
from repro.protocols import FIXED_DELAY
from repro.protogen.refine import generate_protocol, refine_system
from repro.sim.compiled import source_transform
from repro.sim.replay import replay_backend_divergence
from repro.sim.runtime import RefinedSimulation, simulate
from repro.spec.behavior import Behavior
from repro.spec.expr import BinOp, Ref
from repro.spec.stmt import Assign, For, WaitClocks
from repro.spec.system import SystemSpec
from repro.spec.types import IntType
from repro.spec.variable import Variable

P8XX = ("P801", "P802", "P803", "P804", "P805", "P806")


def _build_system(name):
    if name == "flc":
        from repro.apps.flc import build_flc

        model = build_flc()
        return model.system, model.bus_b, model.schedule
    if name == "answering-machine":
        from repro.apps.answering_machine import build_answering_machine

        model = build_answering_machine()
        return model.system, model.bus, model.schedule
    from repro.apps.ethernet import build_ethernet

    model = build_ethernet()
    return model.system, model.bus, model.schedule


def _single_behavior_refined(body, locals_, shared, protocol=FIXED_DELAY):
    """Refine a one-behavior system: behavior on chip, ``shared`` on
    memory (so the spec has a channel), everything else local."""
    behavior = Behavior("P", body, local_variables=locals_)
    system = SystemSpec("tv_test", [behavior], [shared])
    partition = Partition(system)
    chip = partition.add_module("chip")
    memory = partition.add_module("memory")
    partition.assign(behavior, chip)
    partition.assign(shared, memory)
    channels = extract_channels(partition)
    group = default_bus_groups(partition, channels=channels)[0]
    return generate_protocol(system, group, width=8, protocol=protocol)


# ---------------------------------------------------------------------------
# Soundness on clean builds


@pytest.mark.parametrize("system_name",
                         ["flc", "answering-machine", "ethernet"])
@pytest.mark.parametrize("protection", [None, "parity", "crc8"])
def test_every_builtin_process_validates(system_name, protection):
    """No spurious refutation, no silent demotion, on any system at
    any protection level."""
    system, group, schedule = _build_system(system_name)
    refined = refine_system(system, [generate_bus(group)],
                            protection=protection)
    report = validate_refined(refined, schedule=schedule)
    assert report.all_validated, report.render_text()
    assert not report.diagnostics()
    for verdict in report.verdicts.values():
        assert verdict.status == "validated"
        assert verdict.obligations > 0


def test_gated_compiled_run_agrees_with_interpreter():
    system, group, schedule = _build_system("flc")
    refined = refine_system(system, [generate_bus(group)])
    interp = simulate(refined, schedule=schedule, backend="interp")
    compiled = simulate(refined, schedule=schedule, backend="compiled")
    assert compiled.fallbacks == {}
    assert compiled.final_values == interp.final_values
    assert compiled.end_time == interp.end_time
    assert compiled.clocks == interp.clocks
    assert compiled.transactions == interp.transactions


def test_verdicts_are_cached_across_validations():
    """Same IR facts + same source text -> the cached ProcessVerdict
    object itself, not a re-proof."""
    spec, schedule = _counter_spec()
    first = validate_refined(spec, schedule=schedule)
    second = validate_refined(spec, schedule=schedule)
    for name, verdict in first.verdicts.items():
        assert second.verdicts[name] is verdict


def test_replay_on_clean_spec_is_not_confirmed():
    spec, schedule = _counter_spec()
    result = replay_backend_divergence(spec, schedule=schedule)
    assert not result.confirmed
    assert "identical" in result.detail


# ---------------------------------------------------------------------------
# Refutability: the seeded defect corpus


@pytest.mark.parametrize(
    "defect", DEFECTS, ids=[d.name for d in DEFECTS])
def test_defect_refuted_by_exactly_its_code(defect):
    outcome = check_defect(defect)
    assert outcome.clean, \
        f"{defect.name}: baseline must validate before mutation"
    assert outcome.mutated, \
        f"{defect.name}: transform matched nothing -- codegen drifted"
    assert outcome.codes == (defect.code,), outcome.render_line()
    assert outcome.refuted, outcome.render_line()
    assert outcome.replay.confirmed, (
        f"{defect.name}: refutation has no concrete counterexample\n"
        + outcome.replay.render_text())


def test_corpus_covers_every_code():
    assert {d.code for d in DEFECTS} == set(P8XX)
    assert len(DEFECTS) >= 6


def test_refutation_diagnostic_carries_line_and_replay_hint():
    defect = next(d for d in DEFECTS if d.name == "misfolded_constant")
    spec, schedule = defect.build()
    with source_transform(defect.transform):
        sim = RefinedSimulation(spec, schedule=schedule,
                                backend="compiled",
                                validate_compiled=False)
    from repro.analysis.tv import validate_program

    report = validate_program(sim)
    diags = report.diagnostics()
    assert diags
    for diag in diags:
        assert diag.code == "P806"
        assert diag.location is not None
        assert re.search(r"line \d+", diag.location.detail)
        assert "replay_backend_divergence" in diag.hint


def test_p8xx_codes_registered():
    for code in P8XX:
        assert code in DIAGNOSTIC_CODES


# ---------------------------------------------------------------------------
# The gate: refuted processes never run compiled


def test_gate_demotes_refuted_process_and_stays_correct():
    defect = next(d for d in DEFECTS if d.name == "misfolded_constant")
    spec, schedule = defect.build()
    interp = simulate(spec, schedule=schedule, backend="interp")
    with source_transform(defect.transform):
        gated = simulate(spec, schedule=schedule, backend="compiled")
    # The miscompiled process fell back to the interpreter...
    assert "P" in gated.fallbacks
    assert gated.fallbacks["P"].startswith(
        "translation validation refuted: P806")
    # ...so the gated run is still exactly right.
    assert gated.final_values == interp.final_values
    assert gated.end_time == interp.end_time
    assert gated.clocks == interp.clocks
    # Without the gate the same program is observably wrong.
    with source_transform(defect.transform):
        ungated = simulate(spec, schedule=schedule, backend="compiled",
                           validate_compiled=False)
    assert ungated.final_values != interp.final_values


# ---------------------------------------------------------------------------
# Transfer tiers: the source names none, so the bindings are checked


def _contended_sim(**kwargs):
    from repro.apps.contended import arbiter_factories, build_contended

    model = build_contended(6, 2)
    refined = generate_protocol(model.system, model.bus, width=8)
    return RefinedSimulation(
        refined, backend="compiled",
        arbiter_factories=arbiter_factories("priority", model.bus.name),
        **kwargs)


def test_binding_patched_away_from_its_plan_is_refuted_p804():
    sim = _contended_sim(validate_compiled=False)
    for source in sim.compiled.sources.values():
        assert "_xf_" in source and "_fused(" not in source
    tiers = sim.compiled.transfer_tiers
    victim = sorted(tiers)[0]
    site = sorted(tiers[victim])[0]
    assert tiers[victim][site] == "fused"
    tiers[victim][site] = "specialized"
    report = checker.validate_program(sim)
    assert [v.behavior for v in report.refutations()] == [victim]
    assert {d.code for d in report.diagnostics()} == {"P804"}
    assert "bound to the specialized tier" in report.verdicts[victim].reason
    # The source itself is sound: the cached verdict was not poisoned.
    tiers[victim][site] = "fused"
    assert checker.validate_program(sim).all_validated


def test_fallbacks_are_deterministically_sorted():
    defect = next(d for d in DEFECTS if d.name == "misfolded_constant")
    spec, schedule = defect.build()
    with source_transform(defect.transform):
        sim = RefinedSimulation(spec, schedule=schedule,
                                backend="compiled")
    keys = list(sim.compiled.fallbacks)
    assert keys == sorted(keys)
    result = sim.run()
    assert list(result.fallbacks) == sorted(result.fallbacks)


def test_manifest_and_verdicts_record_the_outcome(tmp_path):
    defect = next(d for d in DEFECTS if d.name == "misfolded_constant")
    spec, schedule = defect.build()
    with source_transform(defect.transform):
        sim = RefinedSimulation(spec, schedule=schedule,
                                backend="compiled",
                                emit_sim_source=str(tmp_path))
    assert "REFUTED" in sim.compiled.verdicts["P"]
    manifest = tmp_path / f"{spec.name}__MANIFEST.txt"
    text = manifest.read_text(encoding="utf-8")
    assert "REFUTED" in text
    # A clean build's manifest records the proof instead.
    clean_dir = tmp_path / "clean"
    RefinedSimulation(spec, schedule=schedule, backend="compiled",
                      emit_sim_source=str(clean_dir))
    clean = (clean_dir / f"{spec.name}__MANIFEST.txt").read_text(
        encoding="utf-8")
    assert "validated (" in clean


def test_sim_section_surfaces_fallbacks():
    from repro.obs.report import sim_section

    defect = next(d for d in DEFECTS if d.name == "misfolded_constant")
    spec, schedule = defect.build()
    with source_transform(defect.transform):
        result = simulate(spec, schedule=schedule, backend="compiled")
    section = sim_section("tv_counter", result)
    assert section["fallbacks"] == result.fallbacks
    assert section["fallbacks"]["P"].startswith(
        "translation validation refuted")
    interp = simulate(spec, schedule=schedule, backend="interp")
    assert sim_section("tv_counter", interp)["fallbacks"] == {}


# ---------------------------------------------------------------------------
# Obligation edges


def _loop_spec(bits, signed, hi):
    """One For loop accumulating its (possibly wrapping) loop variable
    into a 16-bit total that is then shipped over the bus."""
    shared = Variable("OUT", IntType(16), init=0)
    total = Variable("P_total", IntType(16), init=0)
    loop = Variable("li", IntType(bits, signed=signed))
    body = [
        For(loop, 0, hi,
            [Assign(total, BinOp("+", Ref(total), Ref(loop)))]),
        Assign(shared, Ref(total)),
    ]
    return _single_behavior_refined(body, [total], shared)


@given(bits=st.sampled_from([4, 8]), signed=st.booleans(),
       hi=st.integers(min_value=0, max_value=300))
@settings(max_examples=15, deadline=None)
def test_wrap_elision_boundary(bits, signed, hi):
    """Across the elision boundary (hi inside vs. outside the dtype's
    range) the lowering must both validate and agree with the
    interpreter -- elided exactly when the certificate covers it."""
    refined = _loop_spec(bits, signed, hi)
    report = validate_refined(refined)
    assert report.all_validated, report.render_text()
    interp = simulate(refined, backend="interp")
    compiled = simulate(refined, backend="compiled")
    assert compiled.fallbacks == {}
    assert compiled.final_values == interp.final_values
    assert compiled.end_time == interp.end_time


def test_forced_unsound_elision_is_refuted_p803(monkeypatch):
    """Widen the codegen's range certificate so it (unsoundly) elides
    the wrap of an overflowing 8-bit loop variable: the validator must
    refute P803 and the counterexample must replay."""
    from repro.sim.compiled import codegen

    monkeypatch.setattr(codegen, "_scalar_bounds",
                        lambda dtype: (-10**9, 10**9))
    refined = _loop_spec(8, True, 200)
    report = validate_refined(refined)
    assert not report.all_validated
    codes = {d.code for d in report.diagnostics()}
    assert codes == {"P803"}
    replay = replay_backend_divergence(refined)
    assert replay.confirmed, replay.render_text()


@pytest.mark.parametrize("op", ["/", "mod"])
def test_div_mod_by_zero_error_parity(op):
    """Both backends raise the same error, naming the same process at
    the same clock, when a lowered expression divides by zero."""
    shared = Variable("OUT", IntType(16), init=0)
    zero = Variable("P_zero", IntType(16), init=0)
    body = [
        WaitClocks(3),
        Assign(shared, BinOp(op, 10, Ref(zero))),
    ]
    refined = _single_behavior_refined(body, [zero], shared)
    errors = {}
    for backend in ("interp", "compiled"):
        with pytest.raises(SimulationError) as excinfo:
            simulate(refined, backend=backend)
        errors[backend] = str(excinfo.value)
    assert errors["interp"] == errors["compiled"]
    assert "at clock" in errors["interp"]


# ---------------------------------------------------------------------------
# Copy-free normalization


def _reference_normalize(node, renamer):
    """The copy-then-rename normalizer the in-place one replaced."""
    tree = copy.deepcopy(node)
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Name):
            sub.id = renamer.rename(sub.id)
    return ast.dump(tree, annotate_fields=False)


#: Compiler temporaries, namespace bindings and plain names.
_TEMPS = ("_t3", "_t0", "_v7", "_w1", "_i2", "_f1", "_r2", "_adr4",
          "_dat5")
_NAMES = _TEMPS + ("_b12_env_read", "_b3_div", "_b7_xf_ch0_specialized",
                   "x", "t", "env_read", "_x0")

_EXPRS = st.recursive(
    st.one_of(st.sampled_from(_NAMES), st.integers(0, 999).map(str)),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*&|<"), inner)
        .map(lambda p: f"({p[0]} {p[1]} {p[2]})"),
        inner.map(lambda e: f"(-{e})"),
        st.tuples(st.sampled_from(_NAMES), st.lists(inner, max_size=3))
        .map(lambda p: f"{p[0]}({', '.join(p[1])})"),
        st.tuples(st.sampled_from(_NAMES), inner)
        .map(lambda p: f"{p[0]}[{p[1]}]"),
        st.tuples(inner, inner, inner)
        .map(lambda p: f"({p[0]} if {p[1]} else {p[2]})"),
        st.tuples(st.sampled_from(_TEMPS), inner)
        .map(lambda p: f"({p[0]} := {p[1]})"),
    ),
    max_leaves=12)


def _renamer(seen):
    renamer = Renamer()
    for name in seen:
        renamer.rename(name)
    return renamer


@given(code=_EXPRS, seen=st.lists(st.sampled_from(_NAMES), max_size=4))
@settings(max_examples=200, deadline=None)
def test_normalize_matches_deepcopy_reference(code, seen):
    """Same dump, same renamer end state (first-occurrence order is
    ``ast.walk``'s breadth-first order), input left untouched -- also
    when the renamer arrives carrying earlier temporaries."""
    node = ast.parse(code, mode="eval").body
    before = ast.dump(node, include_attributes=True)
    ours, reference = _renamer(seen), _renamer(seen)
    assert normalize(node, ours) == _reference_normalize(node, reference)
    assert ours.snapshot() == reference.snapshot()
    assert ast.dump(node, include_attributes=True) == before


def test_normalize_renames_a_shared_name_node_like_the_reference():
    shared = ast.Name(id="_t9", ctx=ast.Load())
    node = ast.BinOp(
        left=shared, op=ast.Add(),
        right=ast.Call(func=ast.Name(id="_b4_div", ctx=ast.Load()),
                       args=[shared, ast.Name(id="_v1", ctx=ast.Load())],
                       keywords=[]))
    before = ast.dump(node)
    ours, reference = Renamer(), Renamer()
    assert normalize(node, ours) == _reference_normalize(node, reference)
    assert ours.snapshot() == reference.snapshot()
    assert ast.dump(node) == before


def test_normalize_restores_input_when_renaming_raises():
    class Exploding(Renamer):
        def rename(self, name):
            if name == "boom":
                raise RuntimeError(name)
            return super().rename(name)

    node = ast.parse("_t1 + f(_v2, _b3_div, boom, _w4)", mode="eval").body
    before = ast.dump(node, include_attributes=True)
    with pytest.raises(RuntimeError):
        normalize(node, Exploding())
    assert ast.dump(node, include_attributes=True) == before


@pytest.mark.parametrize(
    "defect", DEFECTS, ids=[d.name for d in DEFECTS])
def test_corpus_verdicts_unchanged_by_copy_free_normalize(defect,
                                                          monkeypatch):
    """Every verdict of the clean and the mutated build -- status,
    reason and P8xx diagnostics -- is what the copying normalizer
    gave."""
    spec, schedule = defect.build()

    def verdicts():
        outcome = {}
        for transform in (None, defect.transform):
            monkeypatch.setattr(checker, "_CACHE", {})
            report, _ = _validate_build(spec, schedule, transform)
            outcome[transform is None] = {
                name: (v.status, v.reason,
                       [d.to_dict() for d in v.diagnostics])
                for name, v in sorted(report.verdicts.items())}
        return outcome

    ours = verdicts()
    monkeypatch.setattr(pyparse, "normalize", _reference_normalize)
    assert verdicts() == ours
    assert any(defect.code in str(entry)
               for entry in ours[False].values())
