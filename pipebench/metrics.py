"""Metric definitions: operation records -> named values with units.

Each metric has exactly one definition here; README.md maps every one
to the layer it measures and the workload it moves on.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple

import gen

#: End-to-end metrics (printed by an untraced run): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
    "oneshot_p50_s": "s",
    "oneshot_tail_s": "s",
    "sim_txn_per_s": "1/s",
    "sweep_points_per_s": "1/s",
    "resweep_p50_s": "s",
}

#: Mean seconds per one-shot command spent in each layer (overlapping
#: spans of one layer count once): metric -> layer span name.
ONESHOT_LAYERS = {
    "cli.import_s": "cli.import",
    "load.time_s": "load",
    "busgen.time_s": "busgen",
    "protogen.time_s": "protogen",
    "sim.compile_s": "sim.compile",
    "analysis.tv_s": "analysis.tv",
    "analysis.lint_s": "analysis.lint",
    "analysis.mc_s": "analysis.mc",
    "verify.refinement_s": "verify.refinement",
    "hdl.emit_s": "hdl",
    "obs.explain_s": "obs.explain",
}

EXPLORE_STAGES = ("partition", "busgen", "refine", "sim")

#: Counts that depend on the seed only; a change that only makes the
#: program faster must leave every one of them identical.
EXACT_COUNTS = ("kernel.predicate_evals", "kernel.signal_wakeups",
                "kernel.timer_pops", "sim.sim_clocks",
                "sim.arb_wait_clocks", "explore.error_points")


def _per_layer_units() -> Dict[str, str]:
    units = {name: "s" for name in ONESHOT_LAYERS}
    units.update({"sim.elaborate_s": "s", "sim.run_s": "s"})
    for n in gen.LADDER:
        units[f"sim.us_per_txn.N{n:03d}"] = "us"
    units.update({
        "kernel.predicate_evals": "count",
        "kernel.signal_wakeups": "count",
        "kernel.timer_pops": "count",
        "sim.sim_clocks": "clocks",
        "sim.arb_wait_clocks": "clocks",
        "obs.attach_ratio.metrics": "ratio",
        "obs.attach_ratio.recorder": "ratio",
        "sim.backend_ratio": "ratio",
    })
    for stage in EXPLORE_STAGES:
        units[f"explore.{stage}.miss_ms"] = "ms"
        units[f"explore.{stage}.hit_ms"] = "ms"
    units.update({
        "explore.hit_ratio": "ratio",
        "explore.useful_compute_ratio": "ratio",
        "explore.pool_efficiency": "ratio",
        "explore.outside_s": "s",
        "explore.error_points": "count",
        "session.unattributed_s": "s",
        "oneshot.unattributed_s": "s",
        "simulate.unattributed_s": "s",
        "sweep.unattributed_s": "s",
        "trace_overhead_ratio": "ratio",
    })
    return units


PER_LAYER = _per_layer_units()


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    ``(value, percentile, sample count)``.  Needs eleven samples; with
    fewer it falls back to the maximum and reports percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return (ordered[-1] if ordered else 0.0), 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def fail_ratio(records: List[Dict[str, Any]]) -> float:
    """Failed / attempted operations, averaged over the three kinds.

    How many operations of each kind a run holds depends on the
    workload and ``--seconds``; weighting each kind equally keeps the
    ratio the same for every workload and run length.
    """
    ratios = []
    for kind in ("oneshot", "simulate", "sweep"):
        done = [r for r in records if r["op"] == kind]
        ratios.append(_ratio(sum(1 for r in done if not r["ok"]),
                             len(done)))
    return _mean(ratios)


def end_to_end(records: List[Dict[str, Any]], setup_samples: List[float],
               peak_rss_mb: float) -> Tuple[Dict[str, float], Dict]:
    """End-to-end values plus the details printed beside them."""
    oneshot = [r for r in records if r["op"] == "oneshot"]
    sims = [r for r in records if r["op"] == "simulate"]
    sweeps = [r for r in records if r["op"] == "sweep"]
    walls = [r["wall_s"] for r in oneshot]
    tail_value, tail_pct, tail_n = tail(walls)
    missing = [r for r in sweeps if r.get("misses", 0) > 0]
    resweeps = [r["wall_s"] for r in sweeps if r.get("misses", 1) == 0]
    values = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "fail_ratio": fail_ratio(records),
        "oneshot_p50_s": statistics.median(walls) if walls else 0.0,
        "oneshot_tail_s": tail_value,
        "sim_txn_per_s": _ratio(sum(r["txns"] for r in sims if "txns" in r),
                                sum(r["host_s"] for r in sims
                                    if "host_s" in r)),
        "sweep_points_per_s": _ratio(sum(r["points"] for r in missing),
                                     sum(r["wall_s"] for r in missing)),
        "resweep_p50_s": (statistics.median(resweeps) if resweeps
                          else 0.0),
    }
    details = {
        "oneshot_tail_percentile": round(tail_pct, 2),
        "oneshot_samples": tail_n,
        "setup_samples_s": setup_samples,
        "simulate_calls": len(sims),
        "sweeps": len(sweeps),
        "resweeps": len(resweeps),
    }
    return values, details


def per_layer(records: List[Dict[str, Any]], counts: Dict[str, int],
              session_unattributed_s: float,
              trace_overhead: float) -> Dict[str, float]:
    oneshot = [r for r in records if r["op"] == "oneshot" and "layers" in r]
    sims = [r for r in records if r["op"] == "simulate" and "host_s" in r]
    sweeps = [r for r in records if r["op"] == "sweep" and "stage_ms" in r]
    values: Dict[str, float] = {}
    for metric, layer in ONESHOT_LAYERS.items():
        values[metric] = _mean([r["layers"].get(layer, 0.0)
                                for r in oneshot])
    values["sim.elaborate_s"] = _mean([r["elaborate_s"] for r in sims])
    values["sim.run_s"] = _mean([r["run_s"] for r in sims])
    for n in gen.LADDER:
        rung = [r for r in sims if r["n"] == n]
        values[f"sim.us_per_txn.N{n:03d}"] = 1e6 * _ratio(
            sum(r["host_s"] for r in rung), sum(r["txns"] for r in rung))
    values.update(counts)
    values.update(_pair_ratios(sims))
    for stage in EXPLORE_STAGES:
        for state in ("miss", "hit"):
            values[f"explore.{stage}.{state}_ms"] = _mean(
                [ms for r in sweeps
                 for ms in r["stage_ms"].get(f"{stage}.{state}", [])])
    hits = sum(r["hits"] for r in sweeps)
    misses = sum(r["misses"] for r in sweeps)
    values["explore.hit_ratio"] = _ratio(hits, hits + misses)
    values["explore.useful_compute_ratio"] = _ratio(
        sum(r["distinct_computes"] for r in sweeps),
        sum(r["computes"] for r in sweeps))
    values["explore.pool_efficiency"] = _ratio(
        sum(r["point_wall_s"] for r in sweeps),
        sum(r["report_wall_s"] * r["jobs"] for r in sweeps))
    values["explore.outside_s"] = _mean(
        [r["wall_s"] - r["report_wall_s"] for r in sweeps])
    values["session.unattributed_s"] = session_unattributed_s
    values["oneshot.unattributed_s"] = _mean(
        [r["wall_s"] - r["layers"]["_covered"] for r in oneshot])
    values["simulate.unattributed_s"] = _mean(
        [r["host_s"] - r["elaborate_s"] - r["run_s"] for r in sims])
    values["sweep.unattributed_s"] = _mean(
        [r["report_wall_s"] - r["point_wall_s"] / r["jobs"]
         for r in sweeps])
    values["trace_overhead_ratio"] = trace_overhead
    return values


def _pair_ratios(sims: List[Dict[str, Any]]) -> Dict[str, float]:
    """Attached / detached and compiled / interp host time, each over
    calls of the same configuration within the same round."""
    detached: Dict[Any, float] = {}
    for r in sims:
        if r["observer"] == "none":
            detached[(r["round"], r["n"], r["backend"])] = r["host_s"]
    sums = {"metrics": [0.0, 0.0], "recorder": [0.0, 0.0],
            "backend": [0.0, 0.0]}
    for r in sims:
        key = (r["round"], r["n"], r["backend"])
        if r["observer"] != "none" and key in detached:
            sums[r["observer"]][0] += r["host_s"]
            sums[r["observer"]][1] += detached[key]
        if r["observer"] == "none" and r["backend"] == "compiled":
            interp = detached.get((r["round"], r["n"], "interp"))
            if interp is not None:
                sums["backend"][0] += r["host_s"]
                sums["backend"][1] += interp
    return {"obs.attach_ratio.metrics": _ratio(*sums["metrics"]),
            "obs.attach_ratio.recorder": _ratio(*sums["recorder"]),
            "sim.backend_ratio": _ratio(*sums["backend"])}
