"""Compiled simulation backend: lower refined specs to Python.

Selected with ``simulate(..., backend="compiled")``.  Each behavior is
translated to generated Python that batches per-statement clock costs
into single kernel waits; protocol transfers specialize per (protocol,
word width, protection).  Anything the lowering cannot prove safe falls
back -- per behavior, per channel -- to the interpreter, with the
reason recorded on the :class:`CompiledProgram`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.compiled.analyze": ("Analysis", "analyze_spec"),
    "repro.sim.compiled.codegen": (
        "CompiledProgram", "compile_spec", "source_transform"),
    "repro.sim.compiled.emit": ("emit_sources",),
    "repro.sim.compiled.exprgen": ("CompileFallback",),
})

__all__ = [
    "Analysis",
    "analyze_spec",
    "CompiledProgram",
    "compile_spec",
    "CompileFallback",
    "emit_sources",
    "source_transform",
]
