"""Protocol generation (Section 4 of the paper): the five-step
refinement producing a simulatable bus-based specification.
See DESIGN.md section 3."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.protocols": (
        "BURST_HANDSHAKE", "FIXED_DELAY", "FULL_HANDSHAKE", "HALF_HANDSHAKE",
        "HARDWIRED", "PROTOCOLS", "Protocol", "get_protocol"),
    "repro.protogen.fsm": (
        "FsmState", "FsmTransition", "ProtocolFsm", "synthesize_fsm"),
    "repro.protogen.idassign": ("IdAssignment", "assign_ids"),
    "repro.protogen.procedures": (
        "ChannelProcedures", "CommProcedure", "FieldKind", "MessageField",
        "MessageLayout", "Role", "WordSlice", "WordSpec", "make_procedures"),
    "repro.protogen.report": (
        "bus_report", "performance_report", "synthesis_report"),
    "repro.protogen.refine": (
        "RefinedBus", "RefinedSpec", "generate_protocol", "refine_system",
        "remote_access_remains"),
    "repro.protogen.structure": ("BusStructure", "make_structure"),
    "repro.protogen.varproc": ("VariableProcess", "make_variable_processes"),
})

__all__ = [
    "BURST_HANDSHAKE",
    "BusStructure",
    "ChannelProcedures",
    "CommProcedure",
    "FIXED_DELAY",
    "FULL_HANDSHAKE",
    "FieldKind",
    "FsmState",
    "FsmTransition",
    "HALF_HANDSHAKE",
    "HARDWIRED",
    "IdAssignment",
    "MessageField",
    "MessageLayout",
    "PROTOCOLS",
    "Protocol",
    "ProtocolFsm",
    "RefinedBus",
    "RefinedSpec",
    "Role",
    "VariableProcess",
    "WordSlice",
    "WordSpec",
    "assign_ids",
    "generate_protocol",
    "get_protocol",
    "make_procedures",
    "make_structure",
    "make_variable_processes",
    "bus_report",
    "performance_report",
    "refine_system",
    "remote_access_remains",
    "synthesis_report",
    "synthesize_fsm",
]
