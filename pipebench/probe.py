"""Traced stand-in for ``python -m repro.cli`` (runs in the child).

Usage: ``python probe.py OUT.json -- <repro-synth arguments>``

Times ``import repro.cli``, wraps the public entry point of each layer
in a span of this file's own (patching the module attribute, and every
already-imported module that holds the same function, at the moment
the defining module is first imported), runs ``repro.cli.main`` with
the program's own ``repro.obs`` tracer active, and writes both span
lists to OUT.json.  The exit status is the command's.
"""

import time

_PROCESS_START_NS = time.perf_counter_ns()

import functools  # noqa: E402
import importlib.abc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

#: module -> {function: layer}.  Each function is the layer's public
#: entry point as the CLI reaches it.
TARGETS = {
    "repro.apps.flc": {"build_flc": "load",
                       "reference_ctrl_output": "load"},
    "repro.apps.answering_machine": {"build_answering_machine": "load",
                                     "reference_state": "load"},
    "repro.apps.ethernet": {"build_ethernet": "load",
                            "reference_state": "load"},
    "repro.frontend.parser": {"parse_spec_file": "load"},
    "repro.partition.partitioner": {"cluster_partition": "load"},
    "repro.partition.channels": {"default_bus_groups": "load"},
    "repro.busgen.algorithm": {"generate_bus": "busgen"},
    "repro.busgen.split": {"split_group": "busgen"},
    "repro.protogen.refine": {"refine_system": "protogen",
                              "generate_protocol": "protogen"},
    "repro.analysis": {"analyze_refined": "analysis.lint"},
    "repro.analysis.mc": {"verify_refined": "analysis.mc"},
    "repro.analysis.tv": {"validate_refined": "analysis.tv"},
    "repro.hdl.vhdl": {"emit_refined_spec": "hdl"},
    "repro.hdl.validate": {"validate_vhdl": "hdl"},
    "repro.sim.runtime": {"simulate": "sim"},
    "repro.verify": {"verify_refinement": "verify.refinement"},
    "repro.obs.flight.explain": {"explain_payload": "obs.explain",
                                 "render_explain_text": "obs.explain"},
}

SPANS = []
_PATCHED = set()


def _wrap(fn, layer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            SPANS.append({"name": layer, "fn": fn.__qualname__,
                          "start": start, "end": time.perf_counter_ns()})
    return wrapper


def _patch(module_name):
    module = sys.modules[module_name]
    for attr, layer in TARGETS[module_name].items():
        original = getattr(module, attr)
        if (module_name, attr) in _PATCHED:
            continue
        _PATCHED.add((module_name, attr))
        wrapper = _wrap(original, layer)
        for name, other in list(sys.modules.items()):
            if (name.startswith("repro") and other is not None
                    and getattr(other, attr, None) is original):
                setattr(other, attr, wrapper)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patches a target module right after it is first executed, so a
    lazy import inside a command still costs the command its time."""

    def find_spec(self, name, path, target=None):
        if name not in TARGETS:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        execute = spec.loader.exec_module

        def exec_module(module):
            execute(module)
            _patch(name)
        spec.loader.exec_module = exec_module
        return spec


def main():
    out_path = sys.argv[1]
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.meta_path.insert(0, _PatchOnImport())

    import_start = time.perf_counter_ns()
    import repro.cli
    import_end = time.perf_counter_ns()
    for module_name in TARGETS:
        if module_name in sys.modules:
            _patch(module_name)
    from repro import obs

    tracer = obs.Tracer()
    main_start = time.perf_counter_ns()
    try:
        with obs.tracing(tracer):
            code = repro.cli.main(argv)
    except SystemExit as stop:
        code = stop.code
        if isinstance(code, str):
            print(code, file=sys.stderr)
            code = 1
    main_end = time.perf_counter_ns()
    program = [{"name": s.name, "start": s.start_ns, "end": s.end_ns}
               for s in tracer.spans if s.end_ns is not None]
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"process_start": _PROCESS_START_NS,
                   "import": [import_start, import_end],
                   "main": [main_start, main_end],
                   "spans": SPANS, "program": program}, handle)
    sys.stdout.flush()
    return int(code or 0)


if __name__ == "__main__":
    sys.exit(main())
