"""Import hygiene: a cold command loads only what it runs.

Package ``__init__``s export lazily (PEP 562, :mod:`repro._lazy`) and
``repro.cli`` imports each subsystem inside the command that uses it,
so ``import repro.cli`` stays small.  Every check runs in a fresh
interpreter and reads ``sys.modules``; nothing here is timed.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Modules (and everything below them) ``import repro.cli`` must not
#: load.
CLI_IMPORT_FORBIDDEN = (
    "repro.analysis",
    "repro.sim.compiled",
    "repro.sim.runtime",
    "repro.hdl",
    "repro.explore",
    "repro.obs.flight",
    "repro.apps",
    "repro.frontend.parser",
    "repro.verify",
    "repro.busgen.algorithm",
    "repro.protogen.refine",
    "repro.estimate.perf",
)

#: Modules a fully cached ``explore --jobs 2`` must not load: no stage
#: computes, so neither the stage modules nor the process pool do.
WARM_EXPLORE_FORBIDDEN = (
    "repro.busgen.algorithm",
    "repro.protogen",
    "repro.sim.runtime",
    "repro.sim.kernel",
    "concurrent.futures.process",
)

#: Every package whose ``__init__`` exports lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.analysis.absint",
    "repro.analysis.mc",
    "repro.sim",
    "repro.sim.compiled",
    "repro.obs",
    "repro.obs.flight",
    "repro.hdl",
    "repro.explore",
    "repro.apps",
    "repro.frontend",
    "repro.spec",
    "repro.protogen",
    "repro.busgen",
    "repro.estimate",
    "repro.partition",
    "repro.channels",
)


def _run_fresh(code: str):
    """Run ``code`` in a fresh interpreter; return its last stdout
    line parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120, env=env)
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _loaded_under(modules, roots):
    return sorted(name for name in modules
                  for root in roots
                  if name == root or name.startswith(root + "."))


def test_import_cli_loads_no_subcommand_machinery():
    modules = _run_fresh("""
        import json, sys
        import repro.cli
        print(json.dumps(sorted(sys.modules)))
    """)
    assert _loaded_under(modules, CLI_IMPORT_FORBIDDEN) == []


def test_synth_vhdl_loads_neither_compiled_backend_nor_tv(tmp_path):
    target = str(tmp_path / "flc.vhd")
    modules = _run_fresh(f"""
        import contextlib, io, json, sys
        import repro.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = repro.cli.main(["synth", "flc", "--vhdl", {target!r}])
        assert code == 0, code
        print(json.dumps(sorted(sys.modules)))
    """)
    assert os.path.exists(target)
    assert _loaded_under(modules,
                         ("repro.sim.compiled", "repro.analysis.tv")) == []


def test_warm_parallel_explore_loads_no_stage_modules(tmp_path):
    from repro.explore import expand_grid, explore, parse_grid

    cache = str(tmp_path / "cache")
    grid = ["width=1,2", "protection=none,parity"]
    explore("_demo", expand_grid(parse_grid(grid)), jobs=1,
            cache_dir=cache)
    result = _run_fresh(f"""
        import contextlib, io, json, sys
        import repro.cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = repro.cli.main(["explore", "_demo", "--grid", *{grid!r},
                                   "--jobs", "2", "--cache", {cache!r}])
        print(json.dumps({{"code": code, "out": out.getvalue(),
                          "modules": sorted(sys.modules)}}))
    """)
    assert result["code"] == 0
    assert "hits 16  misses 0  writes 0" in result["out"]
    assert _loaded_under(result["modules"], WARM_EXPLORE_FORBIDDEN) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves_lazily(package):
    result = _run_fresh(f"""
        import importlib, json
        package = importlib.import_module({package!r})
        eager = [name for name in package.__all__ if name in vars(package)]
        missing = [name for name in package.__all__
                   if getattr(package, name, None) is None]
        listed = set(dir(package))
        try:
            package.no_such_export
            unknown = "resolved"
        except AttributeError:
            unknown = "AttributeError"
        print(json.dumps({{
            "eager": eager, "missing": missing,
            "undir": [n for n in package.__all__ if n not in listed],
            "unknown": unknown,
            "duplicates": len(package.__all__) - len(set(package.__all__)),
        }}))
    """)
    assert result == {"eager": [], "missing": [], "undir": [],
                      "unknown": "AttributeError", "duplicates": 0}


def test_star_import_resolves_the_public_api():
    result = _run_fresh("""
        import json
        import repro
        namespace = {}
        exec("from repro import *", namespace)
        print(json.dumps(sorted(set(repro.__all__) - set(namespace))))
    """)
    assert result == []


def test_lazy_name_is_the_defining_modules_object():
    from repro import sim
    from repro.busgen.algorithm import generate_bus
    from repro.sim.runtime import simulate

    assert repro.generate_bus is generate_bus
    assert repro.simulate is simulate
    assert sim.simulate is simulate
    with pytest.raises(ImportError):
        exec("from repro.sim import no_such_export", {})
