"""repro: interface synthesis -- bus and protocol generation for
communication channels.

A from-scratch Python reproduction of Narayan & Gajski, *Protocol
Generation for Communication Channels*, DAC 1994, including every
substrate the paper depends on: the specification model, the system
partitioner, the performance estimator, the bus generation algorithm,
the five-step protocol generator, a VHDL backend and a clock-accurate
discrete-event simulator.

Quickstart
----------
::

    from repro import *

    # 1. Specify: behaviors accessing shared variables.
    X = Variable("X", IntType(16))
    P = Behavior("P", [Assign(X, 32)])
    Q = Behavior("Q", [Assign(Variable("y", IntType(16)), Ref(X))])
    system = SystemSpec("demo", [P, Q], [X])

    # 2. Partition onto modules; cross-module accesses become channels.
    partition = Partition(system)
    ...

    # 3. Bus generation picks the width; protocol generation refines.
    design = generate_bus(group)
    refined = generate_protocol(system, group, design.width)

    # 4. Simulate the refined spec or emit VHDL.
    result = simulate(refined)
    print(emit_refined_spec(refined))

See README.md for the full walk-through and DESIGN.md for the paper
mapping.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.busgen": (
        "BusConstraint", "LaneAllocation", "allocate_lanes", "BusDesign",
        "ConstraintKind", "ConstraintSet", "SplitResult", "WidthEvaluation",
        "buswidth_range", "generate_bus", "max_avg_rate", "max_buswidth",
        "max_peak_rate", "min_avg_rate", "min_buswidth", "min_peak_rate",
        "split_group"),
    "repro.channels": (
        "Channel", "ChannelGroup", "ChannelRates", "GroupRateModel",
        "average_rate", "peak_rate"),
    "repro.errors": (
        "BusGenError", "ChannelError", "ConstraintError", "DeadlockError",
        "EstimationError", "HdlError", "IdAssignmentError",
        "InfeasibleBusError", "PartitionError", "ProtocolError",
        "RefinementError", "ReproError", "SimulationError", "SpecError"),
    "repro.frontend": (
        "ParsedSpec", "parse_spec", "parse_spec_file", "print_spec"),
    "repro.estimate": (
        "BusAreaEstimate", "PerformanceEstimator", "estimate_bus_area",
        "estimate_spec_area", "ProcessEstimate", "interconnect_reduction",
        "sweep_widths", "transfer_clocks"),
    "repro.hdl": (
        "emit_bus_declaration", "emit_procedure", "emit_refined_spec",
        "validate_vhdl"),
    "repro.partition": (
        "ClosenessModel", "ImprovementReport", "improve_partition",
        "ModuleKind", "Partition", "SystemModule", "cluster_partition",
        "default_bus_groups", "extract_channels"),
    "repro.protocols": (
        "BURST_HANDSHAKE", "FIXED_DELAY", "FULL_HANDSHAKE", "HALF_HANDSHAKE",
        "HARDWIRED", "PROTOCOLS", "Protocol", "get_protocol"),
    "repro.protogen": (
        "BusStructure", "IdAssignment", "RefinedBus", "RefinedSpec",
        "assign_ids", "generate_protocol", "refine_system"),
    "repro.sim": (
        "ImmediateArbiter", "PriorityArbiter", "RoundRobinArbiter",
        "SimResult", "TdmaArbiter", "simulate"),
    "repro.verify": ("VerificationReport", "verify_refinement"),
    "repro.spec": (
        "ArrayType", "Assign", "Behavior", "BitType", "Call", "Const",
        "Direction", "For", "If", "Index", "IntType", "Ref", "SystemSpec",
        "UnOp", "Variable", "WaitClocks", "While", "run_reference", "vmax",
        "vmin"),
})

__version__ = "1.0.0"

__all__ = [
    "ArrayType",
    "BURST_HANDSHAKE",
    "Assign",
    "BusAreaEstimate",
    "BusConstraint",
    "BusDesign",
    "BusGenError",
    "BusStructure",
    "Behavior",
    "BitType",
    "Call",
    "Channel",
    "ChannelError",
    "ChannelGroup",
    "ChannelRates",
    "ClosenessModel",
    "Const",
    "ConstraintError",
    "ConstraintKind",
    "ConstraintSet",
    "DeadlockError",
    "Direction",
    "EstimationError",
    "FIXED_DELAY",
    "FULL_HANDSHAKE",
    "For",
    "GroupRateModel",
    "HALF_HANDSHAKE",
    "HARDWIRED",
    "HdlError",
    "IdAssignment",
    "IdAssignmentError",
    "If",
    "ImmediateArbiter",
    "ImprovementReport",
    "Index",
    "InfeasibleBusError",
    "IntType",
    "LaneAllocation",
    "ModuleKind",
    "PROTOCOLS",
    "ParsedSpec",
    "Partition",
    "PartitionError",
    "PerformanceEstimator",
    "PriorityArbiter",
    "ProcessEstimate",
    "Protocol",
    "ProtocolError",
    "Ref",
    "RefinedBus",
    "RefinedSpec",
    "RefinementError",
    "ReproError",
    "RoundRobinArbiter",
    "SimResult",
    "SimulationError",
    "SpecError",
    "SplitResult",
    "SystemModule",
    "SystemSpec",
    "TdmaArbiter",
    "UnOp",
    "Variable",
    "VerificationReport",
    "WaitClocks",
    "While",
    "WidthEvaluation",
    "allocate_lanes",
    "assign_ids",
    "average_rate",
    "buswidth_range",
    "cluster_partition",
    "default_bus_groups",
    "emit_bus_declaration",
    "emit_procedure",
    "emit_refined_spec",
    "estimate_bus_area",
    "estimate_spec_area",
    "extract_channels",
    "generate_bus",
    "generate_protocol",
    "get_protocol",
    "improve_partition",
    "interconnect_reduction",
    "max_avg_rate",
    "max_buswidth",
    "max_peak_rate",
    "min_avg_rate",
    "min_buswidth",
    "min_peak_rate",
    "parse_spec",
    "parse_spec_file",
    "peak_rate",
    "print_spec",
    "refine_system",
    "run_reference",
    "simulate",
    "split_group",
    "sweep_widths",
    "transfer_clocks",
    "validate_vhdl",
    "verify_refinement",
    "vmax",
    "vmin",
]
