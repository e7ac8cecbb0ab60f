"""Kernel scaling: wall time vs. process count and message size.

The event-driven scheduler's claim is that cost per clock follows the
*active* processes (timer pops + signal wakeups), not the registered
ones.  Two sweeps check it and record the numbers:

* **blocked-process sweep**: a fixed 4-process token ring does all the
  work while an increasing crowd of processes sleeps on never-changing
  signals.  Under the seed polling kernel every sleeper was re-polled
  every pass of every clock; here wall time must stay nearly flat and
  kernel predicate evaluations must not grow with the crowd at all.
* **message-size sweep**: a producer/consumer pair moves messages of
  1..64 words over a full START/DONE handshake on live signals; clocks
  per word must stay constant (2) and throughput roughly flat, showing
  per-word kernel cost independent of message size.
* **contended-arbiter sweep**: 16..256 requesters queue on one
  :class:`~repro.sim.arbiter.ImmediateArbiter`; each grant must wake
  only the granted requester, so kernel wakeups per grant stay at or
  below 2 whatever the queue length.  The count is machine-independent,
  so a regression to waking every waiter on every grant fails on any
  runner.

Writes ``benchmarks/reports/kernel_scaling.txt`` and
``BENCH_kernel_scaling.json`` (consumed by the CI regression gate).
"""

import time

from benchmarks._report import format_table, write_json_report, write_report
from repro.sim.arbiter import ImmediateArbiter
from repro.sim.kernel import Simulator, Wait, WaitOn
from repro.sim.signals import Signal

#: Clocks the token ring runs for (per measurement).
RING_CLOCKS = 2000
#: Active ring size, fixed across the sweep.
RING_SIZE = 4
#: Total registered process counts to sweep.
PROCESS_COUNTS = (10, 50, 200, 800)
#: Words per message in the handshake sweep.
MESSAGE_WORDS = (1, 4, 16, 64)
#: Messages per handshake measurement.
MESSAGES = 200
#: Requesters queued on one arbiter in the contended sweep.
WAITER_COUNTS = (16, 32, 64, 128, 256)
#: Bus transactions each requester makes in the contended sweep.
GRANTS_PER_WAITER = 4


def _build_ring(sim: Simulator, total_processes: int):
    """4 token-passing workers plus (total-4) never-woken sleepers."""
    tokens = [Signal(f"token{i}") for i in range(RING_SIZE)]

    def worker(me: int):
        mine = tokens[me]
        nxt = tokens[(me + 1) % RING_SIZE]
        last = mine.value
        if me == 0:
            # Kick one clock in, after every worker has subscribed.
            yield Wait(1)
            nxt.set(nxt.value + 1)
        for _ in range(RING_CLOCKS // RING_SIZE):
            yield WaitOn(mine, lambda: mine.value != last)
            last = mine.value
            yield Wait(1)
            nxt.set(nxt.value + 1)

    def sleeper(signal: Signal):
        yield WaitOn(signal, lambda: signal.value == 1)

    for i in range(RING_SIZE):
        sim.add_process(f"worker{i}", worker(i))
    for i in range(total_processes - RING_SIZE):
        sim.add_process(f"sleeper{i}", sleeper(Signal(f"never{i}")),
                        daemon=True)


def _run_ring(total_processes: int):
    sim = Simulator()
    _build_ring(sim, total_processes)
    started = time.perf_counter()
    stats = sim.run()
    wall = time.perf_counter() - started
    return wall, stats.end_time, sim.predicate_evals, sim.signal_wakeups


def _run_handshake(words_per_message: int):
    """One producer/consumer pair, full handshake, fixed message count."""
    start = Signal("START")
    done = Signal("DONE")
    data = Signal("DATA")

    def producer():
        for message in range(MESSAGES):
            for word in range(words_per_message):
                data.set((message + word + 1) & 0xFFFF)
                start.set(1)
                yield Wait(1)
                assert done.value == 1
                start.set(0)
                yield Wait(1)
                assert done.value == 0

    def consumer():
        received = 0
        total = MESSAGES * words_per_message
        while received < total:
            yield WaitOn(start, lambda: start.value == 1)
            received += 1
            done.set(1)
            yield WaitOn(start, lambda: start.value == 0)
            done.set(0)

    sim = Simulator()
    sim.add_process("consumer", consumer(), daemon=True)
    sim.add_process("producer", producer())
    started = time.perf_counter()
    stats = sim.run()
    wall = time.perf_counter() - started
    return wall, stats.end_time


def _run_contended(waiters: int):
    """``waiters`` requesters each hold one ImmediateArbiter for one
    clock, ``GRANTS_PER_WAITER`` times; all start at clock 0."""
    sim = Simulator()
    arbiter = ImmediateArbiter(sim)

    def requester(name: str):
        for _ in range(GRANTS_PER_WAITER):
            yield from arbiter.acquire(name)
            yield Wait(1)
            arbiter.release(name)

    for i in range(waiters):
        name = f"req{i}"
        sim.add_process(name, requester(name))
    started = time.perf_counter()
    stats = sim.run()
    wall = time.perf_counter() - started
    return (wall, stats.end_time, len(arbiter.grants), sim.signal_wakeups,
            sim.predicate_evals)


def _best_of(fn, *args, repeats: int = 3):
    best = None
    for _ in range(repeats):
        result = fn(*args)
        if best is None or result[0] < best[0]:
            best = result
    return best


def test_blocked_processes_do_not_slow_the_kernel():
    """Wall time and predicate evals stay ~flat as sleepers are added."""
    sweep = {}
    for count in PROCESS_COUNTS:
        wall, end_time, evals, wakeups = _best_of(_run_ring, count)
        sweep[count] = {
            "wall_seconds": round(wall, 4),
            "sim_clocks": end_time,
            "predicate_evals": evals,
            "signal_wakeups": wakeups,
        }

    smallest = sweep[PROCESS_COUNTS[0]]
    largest = sweep[PROCESS_COUNTS[-1]]
    # Same work -> same schedule.
    assert largest["sim_clocks"] == smallest["sim_clocks"]
    # Predicate evaluations differ only by the one registration-time
    # check each extra sleeper makes -- nothing per clock.
    extra = PROCESS_COUNTS[-1] - PROCESS_COUNTS[0]
    assert largest["predicate_evals"] - smallest["predicate_evals"] == extra
    # 80x the processes must not cost anywhere near 80x the time; the
    # generous 6x bound absorbs CI noise while ruling out O(processes)
    # per-clock scans (the seed kernel measures ~40x here).
    assert largest["wall_seconds"] < smallest["wall_seconds"] * 6

    rows = [[count,
             sweep[count]["wall_seconds"],
             sweep[count]["sim_clocks"],
             sweep[count]["predicate_evals"],
             sweep[count]["signal_wakeups"]]
            for count in PROCESS_COUNTS]
    lines = ["Kernel scaling: fixed 4-process ring + blocked sleepers", ""]
    lines += format_table(
        ["processes", "wall s", "clocks", "pred evals", "wakeups"], rows)
    _SECTIONS["blocked_process_sweep"] = {
        str(count): sweep[count] for count in PROCESS_COUNTS
    }
    _SECTIONS.setdefault("_lines", []).extend(lines + [""])


def test_message_size_scales_linearly():
    """Clocks per word are constant; per-word wall cost ~flat."""
    sweep = {}
    for words in MESSAGE_WORDS:
        wall, end_time = _best_of(_run_handshake, words)
        total_words = MESSAGES * words
        sweep[words] = {
            "wall_seconds": round(wall, 4),
            "sim_clocks": end_time,
            "clocks_per_word": end_time / total_words,
            "words_per_second": round(total_words / wall),
        }

    for words in MESSAGE_WORDS:
        assert sweep[words]["clocks_per_word"] == 2.0
    # Per-word cost must not degrade with message size (no O(words^2)).
    first = sweep[MESSAGE_WORDS[0]]["words_per_second"]
    last = sweep[MESSAGE_WORDS[-1]]["words_per_second"]
    assert last > first / 4

    rows = [[words,
             sweep[words]["wall_seconds"],
             sweep[words]["sim_clocks"],
             sweep[words]["clocks_per_word"],
             sweep[words]["words_per_second"]]
            for words in MESSAGE_WORDS]
    lines = ["Kernel scaling: full-handshake message-size sweep "
             f"({MESSAGES} messages)", ""]
    lines += format_table(
        ["words/msg", "wall s", "clocks", "clk/word", "words/s"], rows)
    _SECTIONS["message_size_sweep"] = {
        str(words): sweep[words] for words in MESSAGE_WORDS
    }
    _SECTIONS.setdefault("_lines", []).extend(lines)


def test_contended_arbiter_wakes_one_requester_per_grant():
    """Wakeups per grant stay <= 2 as the arbiter's queue grows."""
    sweep = {}
    for waiters in WAITER_COUNTS:
        wall, end_time, grants, wakeups, evals = _best_of(
            _run_contended, waiters)
        sweep[waiters] = {
            "wall_seconds": round(wall, 4),
            "sim_clocks": end_time,
            "grants": grants,
            "signal_wakeups": wakeups,
            "wakeups_per_grant": round(wakeups / grants, 3),
            "predicate_evals_per_grant": round(evals / grants, 3),
        }

    for waiters in WAITER_COUNTS:
        row = sweep[waiters]
        # One clock per grant, back to back: the bus never idles.
        assert row["grants"] == waiters * GRANTS_PER_WAITER
        assert row["sim_clocks"] == row["grants"]
        # Waking every waiter on every grant would make this ~waiters.
        assert row["wakeups_per_grant"] <= 2, (waiters, row)

    rows = [[waiters,
             sweep[waiters]["wall_seconds"],
             sweep[waiters]["grants"],
             sweep[waiters]["wakeups_per_grant"],
             sweep[waiters]["predicate_evals_per_grant"]]
            for waiters in WAITER_COUNTS]
    lines = ["Kernel scaling: requesters contending for one "
             f"ImmediateArbiter ({GRANTS_PER_WAITER} grants each)", ""]
    lines += format_table(
        ["waiters", "wall s", "grants", "wakeups/grant", "evals/grant"],
        rows)
    _SECTIONS["contended_arbiter_sweep"] = {
        str(waiters): sweep[waiters] for waiters in WAITER_COUNTS
    }
    _SECTIONS.setdefault("_lines", []).extend([""] + lines)


_SECTIONS = {}


def test_zz_write_reports():
    """Runs last (alphabetically): persists every sweep's artifacts."""
    lines = _SECTIONS.pop("_lines", ["(sweeps did not run)"])
    write_report("kernel_scaling", lines)
    write_json_report("kernel_scaling", {
        "benchmark": "kernel_scaling",
        **_SECTIONS,
    })
