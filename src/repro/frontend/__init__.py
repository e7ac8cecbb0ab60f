"""Textual front end: a VHDL-flavoured specification language.

Parses ``.spec`` sources into :mod:`repro.spec` objects (and optional
partitions) and prints them back.  See DESIGN.md section 3.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.frontend.lexer": ("LexError", "Token", "tokenize"),
    "repro.frontend.parser": (
        "ParseError", "ParsedSpec", "parse_spec", "parse_spec_file"),
    "repro.frontend.printer": ("print_expr", "print_spec", "print_type"),
})

__all__ = [
    "LexError",
    "ParseError",
    "ParsedSpec",
    "Token",
    "parse_spec",
    "parse_spec_file",
    "print_expr",
    "print_spec",
    "print_type",
    "tokenize",
]
