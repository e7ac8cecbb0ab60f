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

A failure in (1) or (2) means the backend could silently produce wrong
results; a failure in (3) means the validator lost the ability to
notice.  Either way the script exits non-zero and CI fails the build.

Usage::

    PYTHONPATH=src python tools/validate_compiled.py [system ...]
"""

from __future__ import annotations

import sys

from repro.analysis.tv import validate_refined
from repro.analysis.tv.mutations import check_corpus
from repro.apps.contended import (
    ARBITRATIONS,
    arbiter_factories,
    build_contended,
)
from repro.busgen.algorithm import generate_bus
from repro.protogen.refine import refine_system
from repro.sim.runtime import simulate

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


def check_system(name: str) -> int:
    """Proof + agreement for one system; returns failure count."""
    failures = 0
    system, group, schedule = _build(name)
    # Every contended initiator starts at clock 0, so no width meets
    # the rate demand bus generation asks for: fix the width instead.
    plan = (group, 8) if name == "contended" else generate_bus(group)
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


def main(argv) -> int:
    systems = argv or list(SYSTEMS)
    failures = 0
    for name in systems:
        failures += check_system(name)
    failures += check_mutations()
    if failures:
        print(f"\n{failures} check(s) FAILED")
        return 1
    print("\nall compiled-backend validation checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
