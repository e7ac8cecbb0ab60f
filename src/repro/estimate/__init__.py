"""Performance and traffic estimation (substrate for the paper's
ref [10] estimator).  See DESIGN.md section 3."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.estimate.area": (
        "BusAreaEstimate", "ProcedureArea", "estimate_bus_area",
        "estimate_spec_area", "procedure_area"),
    "repro.estimate.perf": (
        "PerformanceEstimator", "ProcessEstimate", "comp_clocks_body",
        "sweep_widths", "transfer_clocks"),
    "repro.estimate.traffic": (
        "ChannelTraffic", "GroupTraffic", "channel_traffic",
        "format_traffic_table", "group_traffic", "interconnect_reduction"),
})

__all__ = [
    "BusAreaEstimate",
    "ChannelTraffic",
    "ProcedureArea",
    "estimate_bus_area",
    "estimate_spec_area",
    "procedure_area",
    "GroupTraffic",
    "PerformanceEstimator",
    "ProcessEstimate",
    "channel_traffic",
    "comp_clocks_body",
    "format_traffic_table",
    "group_traffic",
    "interconnect_reduction",
    "sweep_widths",
    "transfer_clocks",
]
