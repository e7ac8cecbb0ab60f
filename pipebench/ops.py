"""The three operation kinds, each run closed-loop and checked.

Every ``run_*`` function returns one record dict; a record whose
``ok`` is false carries the reason.  In a traced run the same
operations are wrapped in the benchmark's own spans
(:class:`spans.Recorder`), and one-shot commands run under
``probe.py`` instead of ``python -m repro.cli``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import gen
from spans import Recorder, nest, union_ns

#: Wall-clock guard per child process; a hung child fails the
#: operation instead of the run.
CHILD_TIMEOUT_S = 60

SIMULATED = re.compile(r"^simulated (\d+) clocks; (\d+) bus transactions$",
                       re.MULTILINE)

#: Program span (``repro.obs``) -> layer, for spans read from a child.
PROGRAM_LAYERS = {
    "sim.compile": "sim.compile",
    "sim.validate": "analysis.tv",
    "analysis.pass.temporal": "analysis.mc",
}

HERE = os.path.dirname(os.path.abspath(__file__))


class Context:
    """What every operation of one run shares."""

    def __init__(self, root: str, work: str, traced: bool):
        self.root = root
        self.work = work
        self.traced = traced
        self.recorder = Recorder()
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = (
            src + os.pathsep + self.env["PYTHONPATH"]
            if self.env.get("PYTHONPATH") else src)
        self.ops = 0

    def child(self, argv: List[str]) -> subprocess.CompletedProcess:
        """Run a child in its own process group; on timeout the whole
        group (explore's pool workers too) is killed and reaped before
        ``TimeoutExpired`` propagates."""
        with subprocess.Popen(argv, cwd=self.root, env=self.env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
        return subprocess.CompletedProcess(argv, proc.returncode, out, err)

    def next_trace(self) -> int:
        self.ops += 1
        return self.ops


def _timed_child(ctx: Context, argv: List[str]):
    start = time.perf_counter_ns()
    try:
        proc = ctx.child(argv)
    except subprocess.TimeoutExpired:
        return None, start, time.perf_counter_ns()
    return proc, start, time.perf_counter_ns()


# -- one-shot commands ---------------------------------------------------------

def run_oneshot(ctx: Context, cell: Dict[str, Any]) -> Dict[str, Any]:
    """One cold ``repro-synth`` process, started after the last ended."""
    vhdl = os.path.join(ctx.work, "out.vhd")
    args = gen.command_argv(cell["kind"], cell["system"], cell["backend"],
                            vhdl)
    probe_out = os.path.join(ctx.work, "probe.json")
    if ctx.traced:
        argv = [sys.executable, os.path.join(HERE, "probe.py"), probe_out,
                "--"] + args
    else:
        argv = [sys.executable, "-m", "repro.cli"] + args
    trace = ctx.next_trace()
    with ctx.recorder.span("oneshot", trace=trace, kind=cell["kind"],
                           system=cell["system"]) as span:
        proc, start, end = _timed_child(ctx, argv)
    record = {"op": "oneshot", "kind": cell["kind"],
              "system": cell["system"], "backend": cell["backend"],
              "known_failing": cell["known_failing"],
              "wall_s": (end - start) / 1e9, "ok": True, "reason": None}
    if proc is None:
        record.update(ok=False, reason="timed out")
        return record
    reason = _check_oneshot(cell, proc)
    if reason is not None:
        record.update(ok=False, reason=reason)
    if ctx.traced and os.path.exists(probe_out):
        with open(probe_out, encoding="utf-8") as handle:
            record["layers"] = _import_probe(ctx, span["id"],
                                             json.load(handle))
        os.remove(probe_out)
    return record


def _check_oneshot(cell: Dict[str, Any], proc) -> Optional[str]:
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        return f"exit {proc.returncode}: {tail[:160]}"
    if cell["kind"] in ("simulate", "verify"):
        match = SIMULATED.search(proc.stdout)
        if match is None or int(match.group(2)) < 1:
            return "no simulated bus transactions reported"
        if (cell["system"] in gen.BUILTIN_SYSTEMS
                and "oracle check: OK" not in proc.stdout):
            return "oracle check did not print OK"
    return None


def _import_probe(ctx: Context, op_span: int,
                  probe: Dict[str, Any]) -> Dict[str, float]:
    """Attach a child's spans under the operation span; returns the
    seconds each layer covered (overlapping spans counted once)."""
    rec = ctx.recorder
    rec.add("cli.import", probe["import"][0], probe["import"][1], op_span)
    main = rec.add("cli.main", probe["main"][0], probe["main"][1], op_span)
    flat = [{"name": s["name"], "start": s["start"], "end": s["end"]}
            for s in probe["spans"]]
    flat += [{"name": PROGRAM_LAYERS[s["name"]], "start": s["start"],
              "end": s["end"]}
             for s in probe["program"] if s["name"] in PROGRAM_LAYERS]
    nested = nest(flat)
    order = sorted(range(len(flat)), key=lambda i: flat[i]["start"])
    ids = [0] * len(flat)
    for i in order:
        span, parent = nested[i]
        ids[i] = rec.add(span["name"], span["start"], span["end"],
                         main if parent is None else ids[parent])
    intervals: Dict[str, List] = {}
    for span in flat:
        intervals.setdefault(span["name"], []).append(
            (span["start"], span["end"]))
    layers = {name: union_ns(spans) / 1e9
              for name, spans in intervals.items()}
    layers["cli.import"] = (probe["import"][1] - probe["import"][0]) / 1e9
    top = [(s["start"], s["end"]) for s, parent in nested
           if parent is None]
    layers["_covered"] = (union_ns(top) / 1e9 + layers["cli.import"])
    return layers


# -- contended simulations -----------------------------------------------------

class PoolEntry:
    """One ladder rung's system, refined once, compiled once."""

    def __init__(self, config: Dict[str, Any]):
        from repro.protocols import get_protocol
        from repro.protogen.refine import generate_protocol

        self.config = config
        system, group = gen.build_contended(config)
        self.refined = generate_protocol(
            system, group, width=config["width"],
            protocol=get_protocol(config["protocol"]))
        self.factories = gen.arbiter_factories(config["arbitration"],
                                               group.name)
        self.expected = gen.expected_values(config)
        self.signature: Optional[str] = None

    def warm(self) -> Optional[str]:
        """First compiled run: pays code generation and translation
        validation, and fixes the signature every later call must
        reproduce.  Returns a failure reason or ``None``."""
        from repro.sim.runtime import simulate

        result = simulate(self.refined, backend="compiled",
                          arbiter_factories=self.factories)
        self.signature = signature(result)
        return self.check(result)

    def check(self, result) -> Optional[str]:
        for name, values in self.expected.items():
            if result.final_values[name] != values:
                return f"N={self.config['n']}: final {name} differs " \
                       "from the generator's expectation"
        return None


def signature(result) -> str:
    """Digest of what interp and compiled runs must agree on exactly:
    every behavior's clocks and every transaction."""
    payload = {
        "end": result.end_time,
        "clocks": sorted(result.clocks.items()),
        "transactions": {bus: [[t.start_time, t.end_time, t.channel,
                                str(t.direction), t.address, t.data,
                                t.initiator, t.retries] for t in log]
                         for bus, log in sorted(
                             result.transactions.items())},
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def run_simulate(ctx: Context, entry: PoolEntry,
                 call: Dict[str, Any]) -> Dict[str, Any]:
    """One warm in-process simulation of a pool entry."""
    from repro.obs import SimMetrics
    from repro.obs.flight import FlightRecorder
    from repro.sim.runtime import RefinedSimulation, simulate

    metrics = SimMetrics() if call["observer"] == "metrics" else None
    recorder = (FlightRecorder() if call["observer"] == "recorder"
                else None)
    kwargs = dict(arbiter_factories=entry.factories, metrics=metrics,
                  recorder=recorder, backend=call["backend"])
    record = {"op": "simulate", "n": entry.config["n"],
              "backend": call["backend"], "observer": call["observer"],
              "ok": True, "reason": None}
    trace = ctx.next_trace()
    try:
        with ctx.recorder.span("simulate", trace=trace, n=record["n"],
                               backend=call["backend"],
                               observer=call["observer"]):
            if ctx.traced:
                start = time.perf_counter_ns()
                with ctx.recorder.span("sim.elaborate") as elaborate:
                    simulation = RefinedSimulation(entry.refined, **kwargs)
                with ctx.recorder.span("sim.run") as run:
                    result = simulation.run()
                end = time.perf_counter_ns()
                record["elaborate_s"] = (elaborate["end_ns"]
                                         - elaborate["start_ns"]) / 1e9
                record["run_s"] = (run["end_ns"] - run["start_ns"]) / 1e9
            else:
                start = time.perf_counter_ns()
                result = simulate(entry.refined, **kwargs)
                end = time.perf_counter_ns()
    except Exception as error:  # a program failure fails this call only
        record.update(ok=False, reason=f"N={record['n']} {call['backend']}"
                      f": {type(error).__name__}: {error}")
        return record
    record["host_s"] = (end - start) / 1e9
    record["txns"] = sum(len(log) for log in result.transactions.values())
    reason = entry.check(result)
    if reason is None and signature(result) != entry.signature:
        reason = (f"N={record['n']} {call['backend']}/{call['observer']}: "
                  "clocks or transactions differ from the compiled "
                  "reference run")
    if reason is not None:
        record.update(ok=False, reason=reason)
    return record


def count_pass(entries: List[PoolEntry]) -> Dict[str, int]:
    """Exact simulated counts over the pool: each entry once on the
    interpreter with SimMetrics attached (untimed)."""
    from repro.obs import SimMetrics
    from repro.sim.runtime import simulate

    counts = {"kernel.predicate_evals": 0, "kernel.signal_wakeups": 0,
              "kernel.timer_pops": 0, "sim.sim_clocks": 0,
              "sim.arb_wait_clocks": 0}
    for entry in entries:
        metrics = SimMetrics()
        result = simulate(entry.refined, metrics=metrics,
                          arbiter_factories=entry.factories)
        counts["kernel.predicate_evals"] += metrics.kernel.predicate_evals
        counts["kernel.signal_wakeups"] += metrics.kernel.signal_wakeups
        counts["kernel.timer_pops"] += metrics.kernel.timer_pops
        counts["sim.sim_clocks"] += result.end_time
        counts["sim.arb_wait_clocks"] += sum(
            result.arbitration_wait.values())
    return counts


# -- explore sweeps ------------------------------------------------------------

class SweepBook:
    """What earlier sweeps of this run returned, for the cross checks:
    point metrics must not change across repeats or backends, and a
    repeat on the same backend must return the same sim payload."""

    def __init__(self) -> None:
        self.metrics: Dict[Any, Any] = {}
        self.payloads: Dict[Any, str] = {}
        self.last: Optional[Dict[str, Any]] = None

    def check(self, sweep: Dict[str, Any],
              results: List[Dict[str, Any]]) -> Optional[str]:
        for point in results:
            key = (sweep["system"], point["label"])
            if key in self.metrics and self.metrics[key] != point["metrics"]:
                return (f"{sweep['system']} {point['label']}: point "
                        "metrics changed between sweeps")
            self.metrics[key] = point["metrics"]
            if point["sim"] is not None:
                digest = hashlib.sha256(json.dumps(
                    point["sim"], sort_keys=True).encode()).hexdigest()
                pkey = key + (sweep["backend"],)
                if pkey in self.payloads and self.payloads[pkey] != digest:
                    return (f"{sweep['system']} {point['label']}: sim "
                            "payload changed on a repeat")
                self.payloads[pkey] = digest
        return None


def sweep_argv(sweep: Dict[str, Any], cache: str, jobs: int,
               report: str) -> List[str]:
    return (["explore", sweep["system"], "--grid"]
            + gen.grid_args(sweep["grid"])
            + ["--jobs", str(jobs), "--cache", cache,
               "--backend", sweep["backend"], "--report-out", report])


def run_sweep(ctx: Context, sweep: Dict[str, Any], cache: str,
              book: SweepBook) -> Dict[str, Any]:
    """One ``repro-synth explore --jobs 2`` process on the run's cache."""
    report_path = os.path.join(ctx.work, "report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    argv = ([sys.executable, "-m", "repro.cli"]
            + sweep_argv(sweep, cache, 2, report_path))
    trace = ctx.next_trace()
    with ctx.recorder.span("sweep", trace=trace, system=sweep["system"],
                           role=sweep["role"]):
        proc, start, end = _timed_child(ctx, argv)
    record = {"op": "sweep", "system": sweep["system"],
              "role": sweep["role"], "backend": sweep["backend"],
              "wall_s": (end - start) / 1e9, "ok": True, "reason": None}
    if proc is None or proc.returncode != 0 \
            or not os.path.exists(report_path):
        reason = "timed out" if proc is None else \
            f"exit {proc.returncode}: {proc.stderr.strip()[-160:]}"
        record.update(ok=False, reason=reason, points=0, misses=1)
        return record
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    stats = report["cache"]["stats"]
    results = report["results"]
    record.update(points=report["grid_points"], hits=stats["hits"],
                  misses=stats["misses"],
                  report_wall_s=report["wall_seconds"],
                  error_points=sum(1 for r in results
                                   if r["status"] == "error"),
                  point_wall_s=sum(r["wall_ms"] for r in results) / 1e3,
                  jobs=report["jobs"])
    computed = [(s["stage"], s["key"]) for r in results
                for s in r["stages"] if not s["cached"]]
    record["computes"] = len(computed)
    record["distinct_computes"] = len(set(computed))
    stage_ms: Dict[str, List[float]] = {}
    for point in results:
        for span in point["spans"]["spans"]:
            if span["name"] == "explore.point":
                continue
            stage = span["name"].split(".", 1)[1]
            state = "hit" if span["args"].get("cached") else "miss"
            stage_ms.setdefault(f"{stage}.{state}", []).append(
                span["duration_ns"] / 1e6)
    record["stage_ms"] = stage_ms
    if report["cache"]["incidents"]:
        incident = report["cache"]["incidents"][0]
        record.update(ok=False, reason=f"cache incident {incident['code']}")
    else:
        reason = book.check(sweep, results)
        if reason is not None:
            record.update(ok=False, reason=reason)
    book.last = sweep
    return record


def differential_check(ctx: Context, sweep: Dict[str, Any],
                       cache: str) -> Optional[str]:
    """Untimed ``explore --check`` (EX104) over the last sweep's grid:
    every entry it reads must match a fresh compute byte for byte."""
    report_path = os.path.join(ctx.work, "check.json")
    argv = ([sys.executable, "-m", "repro.cli"]
            + sweep_argv(sweep, cache, 1, report_path) + ["--check"])
    try:
        proc = ctx.child(argv)
    except subprocess.TimeoutExpired:
        return "explore --check timed out"
    if proc.returncode != 0 or not os.path.exists(report_path):
        return f"explore --check exit {proc.returncode}"
    with open(report_path, encoding="utf-8") as handle:
        diff = json.load(handle).get("differential") or {}
    if diff.get("incidents") or not diff.get("checked"):
        return "explore --check found cache entries differing from a " \
               "fresh compute (EX104)"
    return None
