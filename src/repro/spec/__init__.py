"""System specification model (behaviors, variables, expressions).

This package is substrate #1 of the reproduction: the SpecCharts/VHDL
-flavoured specification model that the paper's interface synthesis
operates on.  See DESIGN.md section 3.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.spec.access": (
        "AccessSummary", "Direction", "analyze_behavior", "analyze_system",
        "total_traffic_bits"),
    "repro.spec.behavior": ("Behavior",),
    "repro.spec.expr": (
        "BinOp", "Const", "Environment", "Expr", "Index", "Ref", "UnOp",
        "as_expr", "vmax", "vmin"),
    "repro.spec.interp": (
        "AccessEvent", "InterpResult", "Interpreter", "run_reference"),
    "repro.spec.simplify": (
        "simplify_behavior", "simplify_body", "simplify_expr"),
    "repro.spec.stmt": (
        "Assign", "Call", "ElementTarget", "For", "If", "Nop", "ScalarTarget",
        "Stmt", "Target", "WaitClocks", "While", "map_body", "walk"),
    "repro.spec.system": ("SystemSpec",),
    "repro.spec.types": (
        "ArrayType", "BitType", "DataType", "IntType", "address_bits", "clog2",
        "data_bits", "message_bits"),
    "repro.spec.variable": ("Variable",),
})

__all__ = [
    "AccessEvent",
    "AccessSummary",
    "ArrayType",
    "Assign",
    "Behavior",
    "BinOp",
    "BitType",
    "Call",
    "Const",
    "DataType",
    "Direction",
    "ElementTarget",
    "Environment",
    "Expr",
    "For",
    "If",
    "Index",
    "IntType",
    "InterpResult",
    "Interpreter",
    "Nop",
    "Ref",
    "ScalarTarget",
    "Stmt",
    "SystemSpec",
    "Target",
    "UnOp",
    "Variable",
    "WaitClocks",
    "While",
    "address_bits",
    "analyze_behavior",
    "analyze_system",
    "as_expr",
    "clog2",
    "data_bits",
    "map_body",
    "message_bits",
    "run_reference",
    "simplify_behavior",
    "simplify_body",
    "simplify_expr",
    "total_traffic_bits",
    "vmax",
    "vmin",
    "walk",
]
