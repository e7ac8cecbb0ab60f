"""Discrete-event simulation of refined specifications.

Substrate #10-11 of the reproduction: the kernel, live buses, arbiters
and the runtime that executes refined specs end to end.
See DESIGN.md section 3.
"""

from repro._lazy import lazy_exports

#: The two simulation backends ``simulate`` can select between.  Kept
#: here rather than in :mod:`repro.sim.runtime` so argument parsers can
#: offer the choices without importing the kernel.
BACKENDS = ("interp", "compiled")

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.analysis": (
        "BusStats", "ChannelStats", "analyze_bus", "channel_stats",
        "format_bus_stats", "occupancy_timeline", "overlap_clocks"),
    "repro.sim.arbiter": (
        "Arbiter", "ImmediateArbiter", "PriorityArbiter", "RoundRobinArbiter",
        "TdmaArbiter"),
    "repro.sim.bus": ("SimBus", "StorageAdapter", "Transaction"),
    "repro.sim.kernel": (
        "Delta", "EventBus", "ProcessStats", "SimStats", "Simulator", "Wait",
        "WaitOn", "WaitUntil"),
    "repro.sim.runtime": ("RefinedSimulation", "SimResult", "simulate"),
    "repro.sim.signals": ("DataLines", "Signal"),
    "repro.sim.trace": (
        "bus_signals", "format_transactions", "write_bus_vcd", "write_vcd"),
})

__all__ = [
    "Arbiter",
    "BusStats",
    "ChannelStats",
    "analyze_bus",
    "channel_stats",
    "format_bus_stats",
    "occupancy_timeline",
    "overlap_clocks",
    "DataLines",
    "Delta",
    "EventBus",
    "ImmediateArbiter",
    "PriorityArbiter",
    "ProcessStats",
    "RefinedSimulation",
    "RoundRobinArbiter",
    "Signal",
    "SimBus",
    "SimResult",
    "SimStats",
    "Simulator",
    "StorageAdapter",
    "TdmaArbiter",
    "Transaction",
    "Wait",
    "WaitOn",
    "WaitUntil",
    "bus_signals",
    "format_transactions",
    "simulate",
    "write_bus_vcd",
    "write_vcd",
]
