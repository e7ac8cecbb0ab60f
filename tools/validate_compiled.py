#!/usr/bin/env python
"""Trust gate for the compiled simulation backend.

Three checks, in increasing order of paranoia, over every built-in
system at every protection level -- plus a contended many-initiator
system (:mod:`repro.apps.contended`) under every arbitration policy,
where the arbiter alone serializes access to the served variables:

1. **Proof**: the translation validator (:mod:`repro.analysis.tv`)
   must discharge every obligation of every lowered process -- no
   refutation, no silent interpreter demotion, no spurious P8xx.
2. **Agreement**: the gated compiled run must agree with the reference
   interpreter on every observable (final values, end time,
   per-behavior clocks, transaction logs, utilization, arbitration
   waits).
3. **Refutability**: the seeded codegen-defect corpus
   (:mod:`repro.analysis.tv.mutations`) must be caught -- each planted
   miscompile refuted by *exactly* its own P8xx code and confirmed as
   a concrete divergence by :func:`repro.sim.replay.replay_backend_divergence`.
4. **Reuse**: a compiled elaboration reuses what it derived from an
   unchanged spec (:mod:`repro.sim.compiled.reuse`).  Per system the
   spec is elaborated twice, edited in place (a bus write's data
   constant, twice, then an inserted wait), and elaborated with a
   flight recorder and detached again; every run must validate and
   agree with the interpreter.  Two seeded reuse-key bugs must each be
   caught by exactly their own check: a fingerprint that ignores
   ``Const`` values by the differential check, a runtime key that
   ignores the recorder by P804.

A failure in (1), (2) or (4) means the backend could silently produce
wrong results; a failure in (3) or in (4)'s seeded bugs means a check
lost the ability to notice.  Either way the script exits non-zero and
CI fails the build.

Usage::

    PYTHONPATH=src python tools/validate_compiled.py [system ...]
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from repro.analysis.tv import validate_refined
from repro.analysis.tv.mutations import check_corpus
from repro.apps.contended import (
    ARBITRATIONS,
    arbiter_factories,
    build_contended,
)
from repro.busgen.algorithm import generate_bus
from repro.obs.flight import FlightRecorder
from repro.protogen.procedures import CommProcedure
from repro.protogen.refine import refine_system
from repro.sim.compiled import codegen, reuse
from repro.sim.compiled.analyze import walk_statements
from repro.sim.runtime import simulate
from repro.spec.expr import Const
from repro.spec.stmt import Call, WaitClocks

SYSTEMS = ("flc", "answering-machine", "ethernet", "contended")
PROTECTIONS = (None, "parity", "crc8")


def _build(name: str):
    if name == "flc":
        from repro.apps.flc import build_flc

        model = build_flc()
        return model.system, model.bus_b, model.schedule
    if name == "answering-machine":
        from repro.apps.answering_machine import build_answering_machine

        model = build_answering_machine()
        return model.system, model.bus, model.schedule
    if name == "ethernet":
        from repro.apps.ethernet import build_ethernet

        model = build_ethernet()
        return model.system, model.bus, model.schedule
    if name == "contended":
        model = build_contended()
        return model.system, model.bus, None
    raise SystemExit(f"unknown system {name!r}; choose from {SYSTEMS}")


def _agreement_failures(interp, compiled):
    """Observable-by-observable comparison; list of mismatch names."""
    checks = {
        "final_values": (interp.final_values, compiled.final_values),
        "end_time": (interp.end_time, compiled.end_time),
        "behavior_clocks": (interp.clocks, compiled.clocks),
        "transactions": (interp.transactions, compiled.transactions),
        "utilization": (interp.utilization, compiled.utilization),
        "arbitration_wait": (interp.arbitration_wait,
                             compiled.arbitration_wait),
    }
    return [name for name, (want, got) in checks.items() if want != got]


def _arbitrations(name: str, bus: str):
    """``(label, arbiter_factories)`` per arbitration policy a system
    is checked under: the runtime default, or every policy on the
    contended system."""
    if name != "contended":
        return [("", None)]
    return [(f" arb={policy:<8}", arbiter_factories(policy, bus))
            for policy in ARBITRATIONS]


def _bus_plan(name: str, group):
    # Every contended initiator starts at clock 0, so no width meets
    # the rate demand bus generation asks for: fix the width instead.
    return (group, 8) if name == "contended" else generate_bus(group)


def check_system(name: str) -> int:
    """Proof + agreement for one system; returns failure count."""
    failures = 0
    system, group, schedule = _build(name)
    plan = _bus_plan(name, group)
    for protection in PROTECTIONS:
        refined = refine_system(system, [plan], protection=protection)
        for arbitration, factories in _arbitrations(name, group.name):
            label = (f"{name:<18} protection={protection or 'none':<6}"
                     f"{arbitration}")
            failures += _check_build(label, refined, schedule, factories)
    return failures


def _check_build(label: str, refined, schedule, factories) -> int:
    """Proof + agreement for one refined build; 1 on failure."""
    report = validate_refined(refined, schedule=schedule,
                              arbiter_factories=factories)
    refuted = [n for n, v in report.verdicts.items() if v.refuted]
    demoted = [n for n, v in report.verdicts.items()
               if v.status == "fallback"]
    if refuted or demoted or report.diagnostics():
        print(f"FAIL {label} refuted={refuted} fallback={demoted} "
              f"diagnostics={len(report.diagnostics())}")
        for diag in report.diagnostics():
            print(f"     {diag.code}: {diag.message}")
        return 1

    interp = simulate(refined, schedule=schedule, backend="interp",
                      arbiter_factories=factories)
    compiled = simulate(refined, schedule=schedule, backend="compiled",
                        arbiter_factories=factories)
    if compiled.fallbacks:
        print(f"FAIL {label} unexpected fallbacks: {compiled.fallbacks}")
        return 1
    mismatched = _agreement_failures(interp, compiled)
    if mismatched:
        print(f"FAIL {label} backends disagree on "
              f"{', '.join(mismatched)}")
        return 1
    obligations = sum(v.obligations for v in report.verdicts.values())
    print(f"ok   {label} processes={len(report.verdicts):>2} "
          f"obligations={obligations:>4} backends agree")
    return 0


def check_mutations() -> int:
    """Refutability: the defect corpus; returns failure count."""
    failures = 0
    print("\nseeded codegen-defect corpus:")
    for outcome in check_corpus():
        print("  " + outcome.render_line())
        if not outcome.exact:
            failures += 1
    return failures


def _first_bus_write(refined):
    """The first write call, in spec order: the in-place edit site."""
    for behavior in refined.behaviors:
        for stmt in walk_statements(behavior.body):
            if isinstance(stmt, Call) \
                    and isinstance(stmt.procedure, CommProcedure) \
                    and stmt.procedure.channel.is_write:
                return behavior, stmt
    raise SystemExit("no bus write to edit")


def _reuse_findings(name: str):
    """Elaborate, re-elaborate, edit in place, observe: the findings
    (``differential`` / P8xx code, detail) of every compiled run that
    was refuted or disagreed with the interpreter."""
    system, group, schedule = _build(name)
    refined = refine_system(system, [_bus_plan(name, group)])
    factories = (arbiter_factories("fifo", group.name)
                 if name == "contended" else None)
    findings = []

    def compare(step: str, recorded: bool = False) -> None:
        runs = {}
        for backend in ("compiled", "interp"):
            runs[backend] = simulate(
                refined, schedule=schedule, backend=backend,
                arbiter_factories=factories,
                recorder=FlightRecorder() if recorded else None)
        for reason in runs["compiled"].fallbacks.values():
            code = reason.split("refuted: ", 1)[-1][:4]
            findings.append((code, f"{step}: {reason}"))
        mismatched = _agreement_failures(runs["interp"], runs["compiled"])
        if mismatched:
            findings.append(("differential", f"{step}: backends disagree "
                             f"on {', '.join(mismatched)}"))

    compare("first")
    compare("warm")
    behavior, call = _first_bus_write(refined)
    for value in (1, 2):
        call.args[-1] = Const(value)
        compare(f"{behavior.name} writes {value}")
    behavior.body.insert(0, WaitClocks(17))
    compare(f"{behavior.name} waits first")
    compare("recorder attached", recorded=True)
    compare("detached again")
    return findings


@contextmanager
def _patched(module, attr: str, value):
    saved = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield
    finally:
        setattr(module, attr, saved)


def _const_blind_fingerprint():
    """Seeded key bug: the IR fingerprint ignores ``Const`` values."""
    real = reuse._expr

    def expr(e, note):
        return "C" if type(e) is Const else real(e, note)

    return _patched(reuse, "_expr", expr)


def _recorder_blind_key():
    """Seeded key bug: the code generator's runtime key ignores the
    flight recorder."""
    real = codegen._runtime_key

    def runtime_key(runtime, held):
        recorder, runtime.recorder = runtime.recorder, None
        try:
            return real(runtime, held)
        finally:
            runtime.recorder = recorder

    return _patched(codegen, "_runtime_key", runtime_key)


#: (name, seeding context, the one check that must catch it).
KEY_BUGS = (
    ("const_blind_fingerprint", _const_blind_fingerprint, "differential"),
    ("recorder_blind_key", _recorder_blind_key, "P804"),
)


def check_reuse(systems) -> int:
    """Reuse on every system, then the seeded key bugs; returns the
    failure count."""
    failures = 0
    print("\nelaboration reuse (warm, edited in place, observed):")
    for name in systems:
        findings = _reuse_findings(name)
        if findings:
            failures += 1
            print(f"  FAIL {name}")
            for _, detail in findings:
                print(f"       {detail}")
        else:
            print(f"  ok   {name:<18} every run validated and agrees "
                  "with interp")
    print("\nseeded reuse-key bugs:")
    for bug, seed, want in KEY_BUGS:
        for name in systems:
            with seed():
                got = sorted({kind for kind, _ in _reuse_findings(name)})
            exact = got == [want]
            failures += not exact
            print(f"  {'ok' if exact else 'FAIL':4s} {bug:24s} "
                  f"{name:<18} want {want} got {','.join(got) or '-'}")
    return failures


def main(argv) -> int:
    systems = argv or list(SYSTEMS)
    failures = 0
    for name in systems:
        failures += check_system(name)
    failures += check_mutations()
    failures += check_reuse(systems)
    if failures:
        print(f"\n{failures} check(s) FAILED")
        return 1
    print("\nall compiled-backend validation checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
