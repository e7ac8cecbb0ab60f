"""Bus generation (Section 3 of the paper; ref [8]).

Determines the least-cost buswidth satisfying Equation 1 under
designer-weighted constraints.  See DESIGN.md section 3.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.busgen.algorithm": (
        "BusDesign", "WidthEvaluation", "buswidth_range", "generate_bus"),
    "repro.busgen.constraints": (
        "BusConstraint", "ConstraintKind", "ConstraintSet", "max_avg_rate",
        "max_buswidth", "max_peak_rate", "min_avg_rate", "min_buswidth",
        "min_peak_rate"),
    "repro.busgen.lanes": ("Lane", "LaneAllocation", "allocate_lanes"),
    "repro.busgen.split": ("SplitResult", "split_group"),
})

__all__ = [
    "BusConstraint",
    "Lane",
    "LaneAllocation",
    "allocate_lanes",
    "BusDesign",
    "ConstraintKind",
    "ConstraintSet",
    "SplitResult",
    "WidthEvaluation",
    "buswidth_range",
    "generate_bus",
    "max_avg_rate",
    "max_buswidth",
    "max_peak_rate",
    "min_avg_rate",
    "min_buswidth",
    "min_peak_rate",
    "split_group",
]
