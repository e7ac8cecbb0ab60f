"""Abstract interpretation over the spec language.

Interval + congruence domains (:mod:`~repro.analysis.absint.domain`), a
widening/narrowing fixpoint interpreter with loop trip-count bounds
(:mod:`~repro.analysis.absint.engine`), statically proven channel
access-count / bit-volume / rate bounds
(:mod:`~repro.analysis.absint.rates`) and the P5xx diagnostics pass
(:mod:`~repro.analysis.absint.passes`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.absint.domain": ("AbsVal", "Congruence", "Interval"),
    "repro.analysis.absint.engine": (
        "Finding", "TripBounds", "ValueAnalysis", "analyze_behavior",
        "analyze_behaviors", "analyze_refined_values"),
    "repro.analysis.absint.passes": ("check_value_flow",),
    "repro.analysis.absint.rates": (
        "ChannelStaticBounds", "StaticRateModel", "refined_channel_bounds",
        "static_channel_bounds", "static_group_bounds"),
})

__all__ = [
    "AbsVal",
    "ChannelStaticBounds",
    "Congruence",
    "Finding",
    "Interval",
    "StaticRateModel",
    "TripBounds",
    "ValueAnalysis",
    "analyze_behavior",
    "analyze_behaviors",
    "analyze_refined_values",
    "check_value_flow",
    "refined_channel_bounds",
    "static_channel_bounds",
    "static_group_bounds",
]
