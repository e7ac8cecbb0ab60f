"""Pipeline benchmark: cold CLI commands, contended simulation and
cached explore sweeps, end to end and (with ``--trace 1``) per layer.

Run from the root of a checkout::

    python3 pipebench/run.py --workload cli-oneshot --seed 1 \\
        --seconds 23 --trace 0

Every workload is one closed-loop client running all three operation
kinds (see gen.py): a fixed number of rounds of each kind the workload
does not stress, each spread evenly across the rounds of the kind it
stresses, as many as fill ``--seconds`` at nominal round costs
(``ROUND_S``).
The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it are a readable table.
"""

import time

_PROCESS_START_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import metrics  # noqa: E402
import ops  # noqa: E402
from spans import closed_problems, unattributed, union_ns  # noqa: E402

#: Workload -> the operation kind it stresses.
WORKLOADS = {
    "cli-oneshot": "oneshot",
    "sim-contended": "simulate",
    "explore-sweep": "sweep",
}
KINDS = ("oneshot", "simulate", "sweep")

#: Rounds of each kind a workload runs when it does not stress that
#: kind.  Two one-shot rounds (22 commands) put ten commands above the
#: median, so ``oneshot_tail_s`` is not a single sample there; two
#: simulate rounds (30 calls, about 4 s) keep one slow call from
#: moving ``sim_txn_per_s``.
SIDE_ROUNDS = {"oneshot": 2, "simulate": 2, "sweep": 1}

#: Nominal seconds one round of each kind takes on a two-core host
#: (11 commands, 15 calls, 13 sweeps).  A run holds the side rounds
#: plus the fewest rounds of the stressed kind that fill the rest of
#: ``--seconds`` at these costs, so the plan -- and with it
#: ``attempted`` and ``failed`` -- does not depend on host speed.
ROUND_S = {"oneshot": 5.0, "simulate": 1.5, "sweep": 7.5}

#: Set-up is repeated this many times per run (the run's own plus
#: fresh child processes) and reported as the median.
SETUP_SAMPLES = 3

#: No new round starts after this many seconds from process start, so
#: a run always ends well inside the three-minute limit.
HARD_STOP_S = 140


def home_rounds(home: str, seconds: float) -> int:
    """Rounds of the stressed kind in a run of ``seconds``."""
    side = sum(SIDE_ROUNDS[kind] * ROUND_S[kind]
               for kind in KINDS if kind != home)
    return max(1, math.ceil((seconds - side) / ROUND_S[home]))


def setup(root: str, seed: int) -> List[ops.PoolEntry]:
    """Everything before the first measured operation: import the
    program, build and refine the contended-system pool, and warm each
    entry on the compiled backend (code generation + translation
    validation happen here, not in the measured calls)."""
    sys.path.insert(0, os.path.join(root, "src"))
    import repro.cli  # noqa: F401  (the import is part of set-up)

    pool = [ops.PoolEntry(config) for config in gen.sim_pool(seed)]
    for entry in pool:
        reason = entry.warm()
        if reason is not None:
            raise SystemExit(f"set-up failed: {reason}")
    return pool


def setup_in_child(root: str, args) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=root, capture_output=True, text=True,
        timeout=ops.CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Session:
    """Runs operations closed-loop and keeps their records."""

    def __init__(self, ctx: ops.Context, seed: int,
                 pool: List[ops.PoolEntry], cache: str):
        self.ctx = ctx
        self.seed = seed
        self.pool = {entry.config["n"]: entry for entry in pool}
        self.cache = cache
        self.book = ops.SweepBook()
        self.dealer = gen.CommandDealer(seed)
        self.records: List[Dict[str, Any]] = []

    def round_ops(self, kind: str, index: int):
        if kind == "oneshot":
            return self.dealer.next_round()
        if kind == "simulate":
            return gen.sim_round(self.seed, index)
        return gen.sweep_round(self.seed, index)

    def run_op(self, kind: str, index: int, item) -> Dict[str, Any]:
        if kind == "oneshot":
            record = ops.run_oneshot(self.ctx, item)
        elif kind == "simulate":
            record = ops.run_simulate(self.ctx, self.pool[item["n"]], item)
        else:
            record = ops.run_sweep(self.ctx, item, self.cache, self.book)
        record["round"] = index
        self.records.append(record)
        return record

    def plan(self, home: str, seconds: float) -> List[Any]:
        """The run's operations, in order, as ``(kind, round, item)``:
        home_rounds() rounds of ``home``, with the SIDE_ROUNDS of each
        other kind spread evenly across them, each kind on its own, so
        every kind samples the whole run.  The plan depends on the
        seed and ``seconds`` only, so two runs with the same arguments
        attempt the same operations."""
        def kind_ops(kind, rounds):
            return [(kind, index, item) for index in range(rounds)
                    for item in self.round_ops(kind, index)]

        own = kind_ops(home, home_rounds(home, seconds))
        keyed = [(i / len(own), 0, op) for i, op in enumerate(own)]
        for kind in KINDS:
            if kind != home:
                side = kind_ops(kind, SIDE_ROUNDS[kind])
                keyed += [((i + 0.5) / len(side), 1, op)
                          for i, op in enumerate(side)]
        keyed.sort(key=lambda entry: entry[:2])
        return [op for _, _, op in keyed]

    def run(self, home: str, seconds: float) -> None:
        """Run the plan closed-loop.  Past HARD_STOP_S no further
        round of ``home`` starts (the side rounds still run, so every
        metric has samples); on a host this benchmark is sized for
        that never happens."""
        begun = set()
        for kind, index, item in self.plan(home, seconds):
            if kind == home and index not in begun:
                if index and ((time.perf_counter_ns() - _PROCESS_START_NS)
                              / 1e9 > HARD_STOP_S):
                    continue
                begun.add(index)
            self.run_op(kind, index, item)

    def replay(self, kind: str) -> List[Dict[str, Any]]:
        """Round 0 of ``kind`` once more, in order."""
        return [self.run_op(kind, 0, item)
                for item in self.round_ops(kind, 0)]


def replay_untraced(session: Session, kind: str, root: str,
                    work: str) -> float:
    """Re-run the first round of ``kind`` with tracing off (sweeps on
    a fresh cache); returns its total operation time."""
    ctx = ops.Context(root, work, traced=False)
    cache = os.path.join(work, "replay-cache")
    replay = Session(ctx, session.seed, list(session.pool.values()), cache)
    return _op_seconds(replay.replay(kind))


def _op_seconds(records: List[Dict[str, Any]]) -> float:
    return sum(r.get("wall_s", r.get("host_s", 0.0)) for r in records)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and exit (used by the "
                        "benchmark itself for the set-up samples)")
    parser.add_argument("--spans-out", metavar="FILE",
                        help="write the traced run's span forest here")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        print("error: run from the root of a repro checkout (no "
              "src/repro/cli.py here)", file=sys.stderr)
        return 2

    pool = setup(root, args.seed)
    first_setup = (time.perf_counter_ns() - _PROCESS_START_NS) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": first_setup}))
        return 0
    setup_samples = [first_setup] + [setup_in_child(root, args)
                                     for _ in range(SETUP_SAMPLES - 1)]

    work = os.path.join(root, ".bench_build", f"pipebench-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, root, work, pool, setup_samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root: str, work: str, pool, setup_samples) -> int:
    traced = bool(args.trace)
    home = WORKLOADS[args.workload]
    ctx = ops.Context(root, work, traced)
    cache = os.path.join(work, "cache")
    session = Session(ctx, args.seed, pool, cache)

    with ctx.recorder.span("session", trace=0, workload=args.workload):
        session.run(home, args.seconds)

    records = session.records
    problems = [r["reason"] for r in records
                if not r["ok"] and not r.get("known_failing")]
    if session.book.last is not None:
        reason = ops.differential_check(ctx, session.book.last, cache)
        if reason is not None:
            problems.append(reason)

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values, details = metrics.end_to_end(records, setup_samples,
                                         peak_kb / 1024)
    units = metrics.END_TO_END
    rows = [f"  oneshot_tail_s is p{details['oneshot_tail_percentile']} "
            f"of {details['oneshot_samples']} commands"]
    if traced:
        values, rows = layer_metrics(session, home, root, work, problems)
        units = metrics.PER_LAYER
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                json.dump(ctx.recorder.spans, handle)

    failed = sum(1 for r in records if not r["ok"])
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  operations {len(records)}  "
          f"failed {failed}")
    for kind in KINDS:
        done = [r for r in records if r["op"] == kind]
        print(f"  {kind:<10} {len(done):>4} ops  "
              f"{sum(1 for r in done if not r['ok']):>3} failed  "
              f"{_op_seconds(done):>7.2f} s")
    for name in units:
        print(f"  {name:<34} {values[name]:>12.4f} {units[name]}")
    for line in rows:
        print(line)
    for record in records:
        if not record["ok"]:
            label = ("known failure" if record.get("known_failing")
                     else "FAILURE")
            print(f"  {label}: {record['op']} {record.get('kind', '')} "
                  f"{record.get('system', record.get('n', ''))}: "
                  f"{record['reason']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({"details": details}))

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


def layer_metrics(session: Session, home: str, root: str, work: str,
                  problems: List[str]):
    """Per-layer values of a traced run, plus an unattributed row for
    every span whose children cover less than 90% of it.  Appends span
    forest defects to ``problems``."""
    records = session.records
    counts = ops.count_pass(list(session.pool.values()))
    counts["explore.error_points"] = sum(
        r.get("error_points", 0) for r in records
        if r["op"] == "sweep" and r["round"] == 0)
    spans = session.ctx.recorder.spans
    problems.extend(closed_problems(spans))
    root_span = spans[0]
    session_unattributed = (
        root_span["end_ns"] - root_span["start_ns"]
        - union_ns([(s["start_ns"], s["end_ns"]) for s in spans
                    if s["parent"] == root_span["id"]])) / 1e9
    first_home = [r for r in records if r["op"] == home and r["round"] == 0]
    overhead = _op_seconds(first_home) / replay_untraced(
        session, home, root, work)
    values = metrics.per_layer(records, counts, session_unattributed,
                               overhead)
    rows = [f"  span {row['parent'] + '.unattributed_s':<33} "
            f"{row['unattributed_ns'] / 1e9:>12.4f} s  (total over "
            f"{row['count']} spans; children cover "
            f"{1 - row['unattributed_ns'] / row['wall_ns']:.0%})"
            for row in unattributed(spans)]
    return values, rows


if __name__ == "__main__":
    sys.exit(main())
