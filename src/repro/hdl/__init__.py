"""VHDL emission of refined specifications (Figures 4-5 of the paper)
plus a structural validator.  See DESIGN.md section 3."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.hdl.validate": (
        "ValidationReport", "count_procedures_per_channel", "validate_vhdl"),
    "repro.hdl.vhdl": (
        "emit_behavior", "emit_bus_declaration", "emit_procedure",
        "emit_refined_spec", "emit_variable_process", "vhdl_expr",
        "vhdl_type"),
    "repro.hdl.writer": ("SourceWriter",),
})

__all__ = [
    "SourceWriter",
    "ValidationReport",
    "count_procedures_per_channel",
    "emit_behavior",
    "emit_bus_declaration",
    "emit_procedure",
    "emit_refined_spec",
    "emit_variable_process",
    "validate_vhdl",
    "vhdl_expr",
    "vhdl_type",
]
