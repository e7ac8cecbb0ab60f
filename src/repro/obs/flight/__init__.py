"""Causal transaction flight recorder with exact clock attribution.

Attach a :class:`FlightRecorder` to a run (``simulate(...,
recorder=FlightRecorder())``) to journal every protocol event with a
correlation id and account every simulated clock of every transfer to
an exclusive bucket.  See :mod:`repro.obs.flight.recorder` for the
event catalogue and bucket semantics, and ``repro-synth explain`` for
the CLI surface.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.flight.attribution": ("summarize",),
    "repro.obs.flight.critical": ("critical_path", "detect_anomalies"),
    "repro.obs.flight.explain": (
        "EXPLAIN_SCHEMA", "explain_payload", "flight_trace",
        "render_explain_text", "write_flight_trace"),
    "repro.obs.flight.recorder": (
        "BUCKETS", "EVENT_KINDS", "FlightEvent", "FlightRecorder",
        "FlightTransaction"),
})

__all__ = [
    "BUCKETS",
    "EVENT_KINDS",
    "EXPLAIN_SCHEMA",
    "FlightEvent",
    "FlightRecorder",
    "FlightTransaction",
    "critical_path",
    "detect_anomalies",
    "explain_payload",
    "flight_trace",
    "render_explain_text",
    "summarize",
    "write_flight_trace",
]
