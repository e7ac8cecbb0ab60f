"""Expression lowering: spec expression IR -> Python source fragments.

Every fragment evaluates to a plain ``int`` (never ``bool`` -- the
interpreter's operator table returns ``int`` and golden JSON cares:
``json.dumps(True) != json.dumps(1)``) and preserves the interpreter's
evaluation order exactly: operands left to right, eagerly (``and`` /
``or`` do **not** short-circuit -- ``BinOp.evaluate`` computes both
sides before applying the operator, so a division by zero on the right
of a false ``and`` must still raise).  Division and modulus route
through the interpreter's own checked helpers so the ``ExprError``
messages match byte for byte.

Constant subtrees are folded at compile time, except when folding
would raise -- those are emitted unfolded so the error surfaces at run
time, where the interpreter would raise it.
"""

from __future__ import annotations

from typing import Protocol

from repro.errors import ReproError
from repro.spec.expr import (
    BinOp,
    Const,
    Environment,
    Expr,
    Index,
    Ref,
    UnOp,
    _checked_div,
    _checked_mod,
)
from repro.spec.types import ArrayType


class CompileFallback(Exception):
    """The construct cannot be lowered; interpret the whole behavior."""


class ExprContext(Protocol):
    """What expression lowering needs from the behavior compiler."""

    def read_scalar(self, variable) -> str: ...
    def read_element(self, variable, index_code: str) -> str: ...
    def bind(self, hint: str, rebind: tuple) -> str: ...


_EMPTY_ENV = Environment()

#: Operators safe to emit as native Python infix (int x int -> int).
_DIRECT = {"+": "+", "-": "-", "*": "*"}
_COMPARE = {"=": "==", "/=": "!=", "<": "<", "<=": "<=",
            ">": ">", ">=": ">="}


def compile_expr(expr: Expr, ctx: ExprContext) -> str:
    """Lower ``expr`` to a parenthesized Python expression string."""
    if expr.is_constant():
        try:
            value = expr.evaluate(_EMPTY_ENV)
        except ReproError:
            pass  # fold would raise; emit unfolded, raise at run time
        else:
            return repr(value) if value >= 0 else f"({value})"

    if isinstance(expr, Const):
        value = expr.value
        return repr(value) if value >= 0 else f"({value})"
    if isinstance(expr, Ref):
        if isinstance(expr.variable.dtype, ArrayType):
            raise CompileFallback(
                f"whole-array read of {expr.variable.name!r}")
        return ctx.read_scalar(expr.variable)
    if isinstance(expr, Index):
        return ctx.read_element(expr.variable,
                                compile_expr(expr.index, ctx))
    if isinstance(expr, BinOp):
        lhs = compile_expr(expr.lhs, ctx)
        rhs = compile_expr(expr.rhs, ctx)
        op = expr.op
        if op in _DIRECT:
            return f"({lhs} {_DIRECT[op]} {rhs})"
        if op in _COMPARE:
            return f"(1 if {lhs} {_COMPARE[op]} {rhs} else 0)"
        if op == "/":
            div = ctx.bind("div", ("static", _checked_div))
            return f"{div}({lhs}, {rhs})"
        if op == "mod":
            mod = ctx.bind("mod", ("static", _checked_mod))
            return f"{mod}({lhs}, {rhs})"
        if op == "and":
            # Eager on both sides, like the interpreter: `&` evaluates
            # both operands, then truthiness collapses to 0/1.
            return f"(1 if ({lhs} != 0) & ({rhs} != 0) else 0)"
        if op == "or":
            return f"(1 if ({lhs} != 0) | ({rhs} != 0) else 0)"
        if op in ("min", "max"):
            return f"{op}({lhs}, {rhs})"
        raise CompileFallback(f"unknown binary operator {op!r}")
    if isinstance(expr, UnOp):
        operand = compile_expr(expr.operand, ctx)
        if expr.op == "-":
            return f"(-{operand})"
        if expr.op == "not":
            return f"(1 if {operand} == 0 else 0)"
        if expr.op == "abs":
            return f"abs({operand})"
        raise CompileFallback(f"unknown unary operator {expr.op!r}")
    raise CompileFallback(f"unsupported expression {type(expr).__name__}")
