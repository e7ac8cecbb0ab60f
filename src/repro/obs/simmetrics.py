"""Live simulator metrics: kernel, bus and arbiter collectors.

:class:`SimMetrics` is the per-run container the simulation layer
threads through its components (``simulate(..., metrics=SimMetrics())``):

* :class:`KernelMetrics` hooks :class:`~repro.sim.kernel.Simulator` --
  delta passes, per-process step counts and how long each process sat
  blocked on a predicate (handshake wait) versus sleeping on a timer.
* :class:`BusMetrics` hooks :class:`~repro.sim.bus.SimBus` -- completed
  transactions, bus words moved, busy clocks and a handshake-latency
  histogram (whole-message clocks).
* :class:`ArbiterMetrics` hooks :class:`~repro.sim.arbiter.Arbiter` --
  request/grant counts per requester, queue depth at request time and
  a grant-wait histogram.

Every hook sits behind an ``if metrics is not None`` guard in the hot
code, so a run without metrics pays one pointer test per event.  All
collectors reduce to plain dicts via ``to_dict`` for the exporters in
:mod:`repro.obs.export`; the run report in :mod:`repro.obs.report`
unifies them with the post-hoc transaction statistics of
:mod:`repro.sim.analysis`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Histogram bucket upper bounds, in clocks.
LATENCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


class Histogram:
    """Fixed-bucket histogram (Prometheus-style cumulative ``le``)."""

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[int] = LATENCY_BUCKETS):
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)   # last = +Inf
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative(self) -> List[Dict[str, Any]]:
        """Cumulative ``[{le, count}]`` rows ending with ``+Inf``."""
        rows: List[Dict[str, Any]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.counts):
            running += bucket
            rows.append({"le": bound, "count": running})
        rows.append({"le": "+Inf", "count": running + self.counts[-1]})
        return rows

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Linear interpolation inside the winning bucket, exactly like
        Prometheus's ``histogram_quantile``, but clamped to the
        observed ``[min, max]`` so a wide bucket cannot report a value
        outside the data.  The overflow bucket reports ``max``.
        Returns None for an empty histogram.
        """
        if not self.count:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        rank = q * self.count
        running = 0
        for index, bound in enumerate(self.bounds):
            previous = running
            running += self.counts[index]
            if running >= rank and self.counts[index]:
                lower = self.bounds[index - 1] if index else 0
                fraction = ((rank - previous) / self.counts[index]
                            if self.counts[index] else 0.0)
                value = lower + (bound - lower) * fraction
                return float(min(max(value, self.min), self.max))
        return float(self.max)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "buckets": self.cumulative(),
        }


class _ProcessCounters:
    __slots__ = ("steps", "blocked_clocks", "timer_clocks", "since")

    def __init__(self) -> None:
        self.steps = 0
        #: Clocks spent waiting on a WaitUntil predicate (handshakes,
        #: schedule dependencies, arbitration).
        self.blocked_clocks = 0
        #: Clocks spent sleeping on a Wait timer (doing "work").
        self.timer_clocks = 0
        #: Clock up to which the two counters above are credited: the
        #: process's last step.
        self.since = 0


class KernelMetrics:
    """Scheduler-level counters, fed by the simulation kernel.

    A process's blocked/timer state only changes when it steps, so the
    clocks it spends in each state are credited per process at its
    steps -- the whole interval since its previous step goes to the
    state it held -- rather than by visiting every process at every
    clock advance.  The credit still owed to unfinished processes (the
    stretch since their last step) is added when the run ends, or
    computed on the fly by :meth:`to_dict` if the run stopped early.
    Processes must be registered before the run starts (every caller
    does): one registered later would be credited from clock 0.
    """

    def __init__(self) -> None:
        self.end_clock = 0
        self.clock_jumps = 0
        self.passes = 0
        self.steps = 0
        #: Event-kernel counters, filled by ``on_run_end``: how many
        #: wait predicates were evaluated, how many processes the
        #: EventBus woke, and how many timer-heap wakeups were served.
        self.predicate_evals = 0
        self.signal_wakeups = 0
        self.timer_pops = 0
        self._processes: Dict[str, _ProcessCounters] = {}
        #: The kernel's process list, passed at every clock advance and
        #: held until the run ends (see :meth:`_owed`).
        self._roster: Sequence[Any] = ()

    def _process(self, name: str) -> _ProcessCounters:
        counters = self._processes.get(name)
        if counters is None:
            counters = self._processes[name] = _ProcessCounters()
        return counters

    # -- kernel hooks ------------------------------------------------------

    def on_step(self, process: Any, now: int) -> None:
        """Called as ``process`` starts a step at clock ``now``, while
        it still holds the wait state of its previous step."""
        self.steps += 1
        counters = self._process(process.name)
        counters.steps += 1
        held = now - counters.since
        if held:
            if process.predicate is not None:
                counters.blocked_clocks += held
            else:
                counters.timer_clocks += held
            counters.since = now

    def on_pass(self) -> None:
        self.passes += 1

    def on_advance(self, now: int, next_time: int,
                   processes: Sequence[Any]) -> None:
        """Called once per clock jump with the kernel's process list
        (kept by reference, not visited)."""
        self._roster = processes
        self.clock_jumps += 1
        self.end_clock = next_time

    def on_run_end(self, predicate_evals: int = 0, signal_wakeups: int = 0,
                   timer_pops: int = 0) -> None:
        """Called once when the kernel's run loop completes."""
        self.predicate_evals = predicate_evals
        self.signal_wakeups = signal_wakeups
        self.timer_pops = timer_pops
        for name, blocked, held in self._owed():
            counters = self._process(name)
            if blocked:
                counters.blocked_clocks += held
            else:
                counters.timer_clocks += held
        for counters in self._processes.values():
            counters.since = 0
        self._roster = ()

    def _owed(self) -> Iterator[Tuple[str, bool, int]]:
        """``(name, blocked, clocks)`` per unfinished process: the
        clocks since its last step (up to the last advance), not yet
        credited to the state it has held since."""
        for process in self._roster:
            if process.finished:
                continue
            counters = self._processes.get(process.name)
            held = self.end_clock - (counters.since if counters else 0)
            if held:
                yield process.name, process.predicate is not None, held

    def to_dict(self) -> Dict[str, Any]:
        processes = {
            name: {
                "steps": c.steps,
                "blocked_clocks": c.blocked_clocks,
                "timer_clocks": c.timer_clocks,
            }
            for name, c in self._processes.items()
        }
        for name, blocked, held in self._owed():
            row = processes.setdefault(
                name, {"steps": 0, "blocked_clocks": 0, "timer_clocks": 0})
            row["blocked_clocks" if blocked else "timer_clocks"] += held
        return {
            "end_clock": self.end_clock,
            "clock_jumps": self.clock_jumps,
            "passes": self.passes,
            "steps": self.steps,
            "predicate_evals": self.predicate_evals,
            "signal_wakeups": self.signal_wakeups,
            "timer_pops": self.timer_pops,
            "processes": dict(sorted(processes.items())),
        }


class BusMetrics:
    """Per-bus transfer counters, fed by :class:`~repro.sim.bus.SimBus`."""

    def __init__(self, name: str):
        self.name = name
        self.transactions = 0
        self.words = 0
        self.busy_clocks = 0
        self.latency = Histogram()
        self.per_channel: Dict[str, int] = {}
        self.reads = 0
        self.writes = 0
        #: Message retransmissions on protected buses.
        self.retries = 0
        #: Faults the injector actually fired on this bus.
        self.faults_injected = 0

    def on_transaction(self, transaction: Any, words: int,
                       busy_clocks: int) -> None:
        self.transactions += 1
        self.words += words
        self.busy_clocks += busy_clocks
        self.retries += getattr(transaction, "retries", 0)
        self.latency.observe(transaction.clocks)
        channel = transaction.channel
        self.per_channel[channel] = self.per_channel.get(channel, 0) + 1
        if transaction.direction.name == "WRITE":
            self.writes += 1
        else:
            self.reads += 1

    def utilization(self, end_clock: int) -> float:
        if end_clock <= 0:
            return 0.0
        return self.busy_clocks / end_clock

    def to_dict(self, end_clock: int = 0) -> Dict[str, Any]:
        return {
            "transactions": self.transactions,
            "words": self.words,
            "busy_clocks": self.busy_clocks,
            "utilization": self.utilization(end_clock),
            "reads": self.reads,
            "writes": self.writes,
            "retries": self.retries,
            "faults_injected": self.faults_injected,
            "per_channel": dict(sorted(self.per_channel.items())),
            "latency_clocks": self.latency.to_dict(),
        }


class ArbiterMetrics:
    """Per-bus arbitration counters, fed by the arbiter base class."""

    def __init__(self, name: str):
        self.name = name
        self.requests = 0
        self.grants: Dict[str, int] = {}
        self.wait = Histogram()
        self.max_queue_depth = 0
        self._queue_depth_sum = 0

    def on_request(self, queue_depth: int) -> None:
        self.requests += 1
        self._queue_depth_sum += queue_depth
        if queue_depth > self.max_queue_depth:
            self.max_queue_depth = queue_depth

    def on_grant(self, requester: str, wait_clocks: int) -> None:
        self.grants[requester] = self.grants.get(requester, 0) + 1
        self.wait.observe(wait_clocks)

    @property
    def mean_queue_depth(self) -> float:
        if not self.requests:
            return 0.0
        return self._queue_depth_sum / self.requests

    def to_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "grants": dict(sorted(self.grants.items())),
            "max_queue_depth": self.max_queue_depth,
            "mean_queue_depth": self.mean_queue_depth,
            "wait_clocks": self.wait.to_dict(),
        }


class SimMetrics:
    """All live collectors for one simulation run."""

    def __init__(self) -> None:
        self.kernel = KernelMetrics()
        self.buses: Dict[str, BusMetrics] = {}
        self.arbiters: Dict[str, ArbiterMetrics] = {}

    def bus(self, name: str) -> BusMetrics:
        metrics = self.buses.get(name)
        if metrics is None:
            metrics = self.buses[name] = BusMetrics(name)
        return metrics

    def arbiter(self, name: str) -> ArbiterMetrics:
        metrics = self.arbiters.get(name)
        if metrics is None:
            metrics = self.arbiters[name] = ArbiterMetrics(name)
        return metrics

    def to_dict(self) -> Dict[str, Any]:
        end_clock = self.kernel.end_clock
        return {
            "kernel": self.kernel.to_dict(),
            "buses": {name: bus.to_dict(end_clock)
                      for name, bus in sorted(self.buses.items())},
            "arbiters": {name: arb.to_dict()
                         for name, arb in sorted(self.arbiters.items())},
        }
