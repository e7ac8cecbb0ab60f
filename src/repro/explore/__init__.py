"""Design-space exploration: memoized grid sweeps over the pipeline.

The explorer turns the synthesis flow (partition -> busgen -> refine
-> sim/estimate) into a *task graph* whose results are
content-addressed: each stage's cache key is a digest of a
code-version salt, the stage parameters, and its upstream tasks'
keys.  Grid points that share a parameter prefix therefore share
cache entries -- a ``width x protection`` sweep computes each width's
bus generation once, not once per protection value.

Layers:

* :mod:`repro.explore.keys` -- canonical JSON, task keys, the system
  fingerprint;
* :mod:`repro.explore.cache` -- crash-safe on-disk cache with read
  gates (EX101 collision / EX102 stale / EX103 corrupt);
* :mod:`repro.explore.grid` -- ``--grid`` parsing and expansion;
* :mod:`repro.explore.systems` -- named/system-file loading;
* :mod:`repro.explore.tasks` -- the stage compute functions;
* :mod:`repro.explore.runner` -- inline and process-pool sweeps, the
  run report;
* :mod:`repro.explore.pareto` -- ranked front over (clocks, pins,
  area);
* :mod:`repro.explore.diffcheck` -- byte-identity differential
  checker (EX104);
* :mod:`repro.explore.defects` -- seeded cache-defect corpus proving
  each check catches exactly its bug.

CLI: ``repro-synth explore`` (see ``docs/explore.md``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.explore.cache": (
        "CacheIncident", "CacheStats", "ExploreCache", "NullCache"),
    "repro.explore.diffcheck": ("differential_check",),
    "repro.explore.grid": ("GridPoint", "expand_grid", "parse_grid"),
    "repro.explore.keys": ("Keyer", "TaskSpec", "code_salt"),
    "repro.explore.pareto": ("pareto_rank", "render_table"),
    "repro.explore.runner": ("canonical_report", "explore"),
    "repro.explore.systems": ("LoadedSystem", "load_system"),
    "repro.explore.tasks": ("build_point_tasks", "execute_task"),
})

__all__ = [
    "CacheIncident",
    "CacheStats",
    "ExploreCache",
    "GridPoint",
    "Keyer",
    "LoadedSystem",
    "NullCache",
    "TaskSpec",
    "build_point_tasks",
    "canonical_report",
    "code_salt",
    "differential_check",
    "execute_task",
    "expand_grid",
    "explore",
    "load_system",
    "pareto_rank",
    "parse_grid",
    "render_table",
]
