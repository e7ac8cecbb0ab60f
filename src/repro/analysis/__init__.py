"""Static protocol analysis (linting) over refined designs.

This package checks a :class:`~repro.protogen.refine.RefinedSpec`
*without simulating it*: handshake deadlock/livelock via product
automata (P1xx), bus contention and multi-driver hazards (P2xx), width
and capacity arithmetic (P3xx), and dead-code warnings (P4xx).  The
error-code registry lives in :data:`repro.errors.DIAGNOSTIC_CODES`;
``docs/linting.md`` documents every code with a triggering example.

Distinct from :mod:`repro.sim.analysis`, which post-processes
*simulation traces*; this package never runs the design.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.contention": ("check_contention",),
    "repro.analysis.deadcode": ("check_dead_code",),
    "repro.analysis.deadlock": (
        "FsmTransform", "check_fsm_pair", "check_handshakes"),
    "repro.analysis.diagnostics": (
        "Diagnostic", "DiagnosticSet", "Severity", "SourceLocation"),
    "repro.analysis.mc": (
        "PropertyVerdict", "VerificationReport", "Witness", "check_temporal",
        "verify_refined"),
    "repro.analysis.product": ("ProductResult", "explore_product"),
    "repro.analysis.runner": ("PASSES", "analyze_refined"),
    "repro.analysis.width": ("check_widths",),
})

__all__ = [
    "Diagnostic",
    "DiagnosticSet",
    "FsmTransform",
    "PASSES",
    "ProductResult",
    "PropertyVerdict",
    "Severity",
    "SourceLocation",
    "VerificationReport",
    "Witness",
    "analyze_refined",
    "check_contention",
    "check_dead_code",
    "check_fsm_pair",
    "check_handshakes",
    "check_temporal",
    "check_widths",
    "explore_product",
    "verify_refined",
]
