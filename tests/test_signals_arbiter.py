"""Unit tests for signals, data lines and bus arbiters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ArbitrationError, SimulationError
from repro.sim.arbiter import (
    Arbiter,
    ImmediateArbiter,
    PriorityArbiter,
    RoundRobinArbiter,
    TdmaArbiter,
)
from repro.sim.kernel import Simulator, Wait, WaitOn
from repro.sim.signals import DataLines, Signal


class TestSignal:
    def test_set_and_read(self):
        signal = Signal("s", init=3)
        assert signal.value == 3
        signal.set(7)
        assert signal.value == 7

    def test_trace_records_changes(self):
        time = [0]
        signal = Signal("s", clock=lambda: time[0], trace=True)
        time[0] = 5
        signal.set(1)
        time[0] = 9
        signal.set(2)
        assert signal.changes == [(0, 0), (5, 1), (9, 2)]

    def test_redundant_sets_not_recorded(self):
        signal = Signal("s", clock=lambda: 0, trace=True)
        signal.set(0)
        assert signal.changes == [(0, 0)]


class TestDataLines:
    def test_resolution_ors_disjoint_drivers(self):
        data = DataLines("d", 8)
        data.drive("accessor", 0x0F, 0x0F)
        data.drive("server", 0xA0, 0xF0)
        assert data.value == 0xAF

    def test_overlapping_drivers_conflict(self):
        data = DataLines("d", 8)
        data.drive("accessor", 0x0F, 0x0F)
        with pytest.raises(SimulationError, match="conflict"):
            data.drive("server", 0x01, 0x01)

    def test_same_role_replaces(self):
        data = DataLines("d", 8)
        data.drive("accessor", 0x0F, 0xFF)
        data.drive("accessor", 0xF0, 0xF0)
        assert data.value == 0xF0

    def test_release(self):
        data = DataLines("d", 8)
        data.drive("accessor", 0xFF, 0xFF)
        data.release("accessor")
        assert data.value == 0

    def test_zero_mask_releases(self):
        data = DataLines("d", 8)
        data.drive("accessor", 0xFF, 0xFF)
        data.drive("accessor", 0, 0)
        assert data.value == 0

    def test_mask_exceeding_width_rejected(self):
        data = DataLines("d", 4)
        with pytest.raises(SimulationError, match="width"):
            data.drive("accessor", 0x10, 0x10)

    def test_value_outside_mask_rejected(self):
        data = DataLines("d", 8)
        with pytest.raises(SimulationError, match="outside"):
            data.drive("accessor", 0xFF, 0x0F)


def run_acquire_release(arbiter_factory, names, hold=3):
    """Run several processes contending for a bus; returns grant log."""
    sim = Simulator()
    arbiter = arbiter_factory(sim)
    order = []

    def proc(name):
        yield from arbiter.acquire(name)
        order.append((name, sim.now))
        yield Wait(hold)
        arbiter.release(name)

    for name in names:
        sim.add_process(name, proc(name))
    sim.run()
    return order, arbiter


class TestImmediateArbiter:
    def test_fifo_order(self):
        order, arbiter = run_acquire_release(ImmediateArbiter, ["a", "b", "c"])
        assert [name for name, _ in order] == ["a", "b", "c"]
        assert [t for _, t in order] == [0, 3, 6]

    def test_wait_clocks_accumulated(self):
        _, arbiter = run_acquire_release(ImmediateArbiter, ["a", "b", "c"])
        # b waits 3, c waits 6.
        assert arbiter.wait_clocks == 9

    def test_nested_acquire_rejected(self):
        sim = Simulator()
        arbiter = ImmediateArbiter(sim)

        def proc():
            yield from arbiter.acquire("p")
            yield from arbiter.acquire("p")

        sim.add_process("p", proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_release_by_non_owner_rejected(self):
        sim = Simulator()
        arbiter = ImmediateArbiter(sim)
        with pytest.raises(ArbitrationError):
            arbiter.release("nobody")


class TestPriorityArbiter:
    def test_higher_priority_preempts_queue(self):
        """When the bus frees, the highest-priority waiter wins even if
        it asked later."""
        sim = Simulator()
        arbiter = PriorityArbiter(sim, priorities={"lo": 5, "hi": 1})
        order = []

        def holder():
            yield from arbiter.acquire("holder")
            yield Wait(5)
            arbiter.release("holder")

        def requester(name, start):
            yield Wait(start)
            yield from arbiter.acquire(name)
            order.append(name)
            yield Wait(1)
            arbiter.release(name)

        sim.add_process("holder", holder())
        sim.add_process("lo", requester("lo", 1))
        sim.add_process("hi", requester("hi", 2))
        sim.run()
        assert order == ["hi", "lo"]

    def test_grant_delay_costs_clocks(self):
        sim = Simulator()
        arbiter = PriorityArbiter(sim, priorities={}, grant_delay=4)
        times = {}

        def proc():
            yield from arbiter.acquire("p")
            times["granted"] = sim.now
            arbiter.release("p")

        sim.add_process("p", proc())
        sim.run()
        assert times["granted"] == 4


class TestRoundRobinArbiter:
    def test_rotation(self):
        order, _ = run_acquire_release(
            lambda sim: RoundRobinArbiter(sim, ["a", "b", "c"]),
            ["a", "b", "c"])
        assert [name for name, _ in order] == ["a", "b", "c"]

    def test_rotation_starts_after_last_owner(self):
        sim = Simulator()
        arbiter = RoundRobinArbiter(sim, ["a", "b"])
        order = []

        def proc(name, rounds):
            for _ in range(rounds):
                yield from arbiter.acquire(name)
                order.append(name)
                yield Wait(1)
                arbiter.release(name)

        sim.add_process("a", proc("a", 2))
        sim.add_process("b", proc("b", 2))
        sim.run()
        assert order == ["a", "b", "a", "b"]

    def test_empty_members_rejected(self):
        with pytest.raises(ArbitrationError):
            RoundRobinArbiter(Simulator(), [])


class TestTdmaArbiter:
    def test_requester_waits_for_its_slot(self):
        sim = Simulator()
        arbiter = TdmaArbiter(sim, schedule=["a", "b"], slot_clocks=10)
        times = {}

        def proc(name):
            yield from arbiter.acquire(name)
            times[name] = sim.now
            yield Wait(1)
            arbiter.release(name)

        sim.add_process("b", proc("b"))
        sim.run()
        # b's slot begins at clock 10.
        assert times["b"] == 10

    def test_own_slot_grants_immediately(self):
        sim = Simulator()
        arbiter = TdmaArbiter(sim, schedule=["a", "b"], slot_clocks=10)
        times = {}

        def proc():
            yield from arbiter.acquire("a")
            times["a"] = sim.now
            arbiter.release("a")

        sim.add_process("a", proc())
        sim.run()
        assert times["a"] == 0

    def test_unscheduled_requester_rejected(self):
        sim = Simulator()
        arbiter = TdmaArbiter(sim, schedule=["a"], slot_clocks=4)

        def proc():
            yield from arbiter.acquire("ghost")

        sim.add_process("ghost", proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_validation(self):
        with pytest.raises(ArbitrationError):
            TdmaArbiter(Simulator(), [], 4)
        with pytest.raises(ArbitrationError):
            TdmaArbiter(Simulator(), ["a"], 0)


# ---------------------------------------------------------------------------
# Grant wake-ups: one release wakes exactly the granted requester


def _names(k):
    return [f"w{i:03d}" for i in range(k)]


ARBITER_POLICIES = {
    "immediate": lambda sim, names: ImmediateArbiter(sim),
    # Reverse priorities so the grant order is not the request order.
    "priority": lambda sim, names: PriorityArbiter(
        sim, {name: -i for i, name in enumerate(names)}),
    "round_robin": lambda sim, names: RoundRobinArbiter(sim, names),
}


def run_herd(policy, k):
    """A holder owns the bus while ``k`` requesters queue behind it.

    Returns, per grant after the first, the kernel's (signal_wakeups,
    predicate_evals) delta between the release and the moment the next
    owner resumes, plus the whole-run totals.
    """
    sim = Simulator()
    names = _names(k)
    arbiter = ARBITER_POLICIES[policy](sim, ["holder"] + names)
    before = []
    deltas = []

    def counters():
        return (sim.signal_wakeups, sim.predicate_evals)

    def holder():
        yield from arbiter.acquire("holder")
        yield Wait(5)
        before.append(counters())
        arbiter.release("holder")

    def requester(name):
        yield from arbiter.acquire(name)
        wakeups, evals = counters()
        last_wakeups, last_evals = before.pop()
        deltas.append((wakeups - last_wakeups, evals - last_evals))
        yield Wait(1)
        before.append(counters())
        arbiter.release(name)

    sim.add_process("holder", holder())
    for name in names:
        sim.add_process(name, requester(name))
    sim.run()
    return deltas, counters(), arbiter


class TestGrantWakeups:
    @pytest.mark.parametrize("k", [4, 64, 256])
    @pytest.mark.parametrize("policy", sorted(ARBITER_POLICIES))
    def test_one_release_wakes_one_process(self, policy, k):
        deltas, (wakeups, evals), arbiter = run_herd(policy, k)
        assert len(deltas) == k
        # Each release wakes the granted requester and nobody else, and
        # one predicate evaluation confirms the grant.
        assert set(deltas) == {(1, 1)}
        # Whole run: one wake-up per blocked requester, and predicate
        # evaluations linear in k (one at block time, one at grant).
        assert wakeups == k
        assert evals == 2 * k
        assert len(arbiter.grants) == k + 1

    def test_grant_order_per_policy(self):
        names = _names(4)
        _, _, fifo = run_herd("immediate", 4)
        _, _, prio = run_herd("priority", 4)
        _, _, rr = run_herd("round_robin", 4)
        assert [n for _, n in fifo.grants] == ["holder"] + names
        assert [n for _, n in prio.grants] == ["holder"] + names[::-1]
        assert [n for _, n in rr.grants] == ["holder"] + names

    def test_priority_ties_stay_fifo(self):
        order, _ = run_acquire_release(
            lambda sim: PriorityArbiter(sim, {"c": 0, "a": 1, "b": 1,
                                              "d": 1}),
            ["x", "b", "a", "d", "c"])
        assert [name for name, _ in order] == ["x", "c", "b", "a", "d"]


# ---------------------------------------------------------------------------
# Differential check against the shared-wire reference arbiters


class HerdArbiter(Arbiter):
    """Reference: the shared-wire wake-up discipline.  Every waiter
    sleeps on one grant event that is bumped on every release and every
    grant, so all waiters wake and re-test ownership."""

    def __init__(self, sim, grant_delay=0):
        super().__init__(sim, grant_delay)
        self._grant_event = Signal("arbiter.grant")

    def acquire(self, requester):
        if requester in self._waiting or self._owner == requester:
            raise ArbitrationError(
                f"{requester} issued a nested bus acquire")
        request_time = self.sim.now
        self._waiting.append(requester)
        if self.metrics is not None:
            self.metrics.on_request(len(self._waiting))
        if self.recorder is not None:
            self.recorder.on_request(self.recorder_bus, requester,
                                     request_time)
        self._try_grant()
        if self._owner != requester:
            yield WaitOn((self._grant_event,),
                         lambda: self._owner == requester)
        if self.grant_delay:
            yield Wait(self.grant_delay)
        waited = self.sim.now - request_time
        self.wait_clocks += waited
        self.grants.append((self.sim.now, requester))
        if self.metrics is not None:
            self.metrics.on_grant(requester, waited)
        if self.recorder is not None:
            self.recorder.on_grant(self.recorder_bus, requester,
                                   self.sim.now)

    def release(self, requester):
        if self._owner != requester:
            raise ArbitrationError(
                f"{requester} released a bus owned by {self._owner}")
        self._owner = None
        self._grant_event.set(self._grant_event.value + 1)
        self._try_grant()

    def _try_grant(self):
        if self._owner is not None:
            return
        chosen = self._pick_next()
        if chosen is not None:
            self._waiting.remove(chosen)
            self._owner = chosen
            self._grant_event.set(self._grant_event.value + 1)


class HerdPriorityArbiter(HerdArbiter):
    def __init__(self, sim, priorities, grant_delay=0):
        super().__init__(sim, grant_delay)
        self.priorities = dict(priorities)

    def _pick_next(self):
        if not self._waiting:
            return None
        return min(self._waiting,
                   key=lambda name: (self.priorities.get(name, 1 << 30),
                                     self._waiting.index(name)))


class HerdRoundRobinArbiter(HerdArbiter):
    def __init__(self, sim, members, grant_delay=0):
        super().__init__(sim, grant_delay)
        self.members = list(members)
        self._last_index = len(self.members) - 1

    def _pick_next(self):
        if not self._waiting:
            return None
        count = len(self.members)
        for offset in range(1, count + 1):
            candidate = self.members[(self._last_index + offset) % count]
            if candidate in self._waiting:
                self._last_index = self.members.index(candidate)
                return candidate
        return self._waiting[0]


def contended_system(roles, messages):
    """``len(roles)`` initiators on one bus to one memory module:
    writers (``w``) store a slice, readers (``r``) sum one into their
    ``ACC`` slot, read-modify-write initiators (``m``) bump one."""
    from repro.partition.channels import default_bus_groups
    from repro.partition.partitioner import Partition
    from repro.spec.behavior import Behavior
    from repro.spec.expr import Index, Ref
    from repro.spec.stmt import Assign, For
    from repro.spec.system import SystemSpec
    from repro.spec.types import ArrayType, IntType
    from repro.spec.variable import Variable

    n = len(roles)
    mem = Variable("MEM", ArrayType(IntType(16), n * messages),
                   init=[(k * 37) % 256 for k in range(n * messages)])
    acc = Variable("ACC", ArrayType(IntType(32), n))
    behaviors = []
    for p, role in enumerate(roles):
        i = Variable("i", IntType(16))
        base = p * messages
        slot = (mem, Ref(i) + base)
        if role == "w":
            body = [For(i, 0, messages - 1, [Assign(slot, Ref(i) * 3 + p)])]
            local = []
        elif role == "r":
            total = Variable("total", IntType(32), init=0)
            body = [For(i, 0, messages - 1,
                        [Assign(total, Ref(total) + Index(*slot))]),
                    Assign((acc, p), Ref(total))]
            local = [total]
        else:
            body = [For(i, 0, messages - 1,
                        [Assign(slot, Index(*slot) + (p + 1))])]
            local = []
        behaviors.append(Behavior(f"INIT{p:02d}", body,
                                  local_variables=local))
    system = SystemSpec("contended", behaviors, [mem, acc])
    partition = Partition(system)
    chip = partition.add_module("chip")
    memory = partition.add_module("memory")
    for behavior in behaviors:
        partition.assign(behavior, chip)
    partition.assign(mem, memory)
    partition.assign(acc, memory)
    return system, default_bus_groups(partition)[0]


def _factory(policy, reference, priorities, delay):
    if policy == "fifo":
        cls = HerdArbiter if reference else ImmediateArbiter
        return lambda sim, members: cls(sim)
    if policy == "priority":
        cls = HerdPriorityArbiter if reference else PriorityArbiter
        return lambda sim, members: cls(
            sim, dict(zip(members, priorities)), grant_delay=delay)
    cls = HerdRoundRobinArbiter if reference else RoundRobinArbiter
    return lambda sim, members: cls(sim, members, grant_delay=delay)


def _observe(refined, bus, factory, backend):
    from repro.sim.runtime import simulate

    made = []

    def tracked(sim, members):
        made.append(factory(sim, members))
        return made[0]

    result = simulate(refined, arbiter_factories={bus: tracked},
                      backend=backend)
    arbiter = made[0]
    return (arbiter.grants, arbiter.wait_clocks, result.clocks,
            result.transactions, result.final_values, result.end_time)


@st.composite
def contended_configs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    roles = draw(st.text(alphabet="wrm", min_size=n, max_size=n))
    return {
        "roles": roles,
        "messages": draw(st.integers(min_value=1, max_value=4)),
        "policy": draw(st.sampled_from(["fifo", "priority", "round_robin"])),
        # A small range, so equal priorities (FIFO tie-break) are common.
        "priorities": draw(st.lists(st.integers(0, 2), min_size=n,
                                    max_size=n)),
        "delay": draw(st.integers(min_value=0, max_value=2)),
        "protocol": draw(st.sampled_from(
            ["full_handshake", "half_handshake", "fixed_delay",
             "burst_handshake"])),
        "width": draw(st.sampled_from([4, 8, 16])),
    }


@given(contended_configs(), st.sampled_from(["interp", "compiled"]))
@settings(max_examples=30, deadline=None)
def test_per_requester_wires_match_shared_wire_reference(config, backend):
    from repro.protocols import get_protocol
    from repro.protogen.refine import generate_protocol

    system, group = contended_system(config["roles"], config["messages"])
    refined = generate_protocol(system, group, width=config["width"],
                                protocol=get_protocol(config["protocol"]))
    args = (config["policy"], config["priorities"], config["delay"])
    got = _observe(refined, group.name, _factory(args[0], False, *args[1:]),
                   backend)
    want = _observe(refined, group.name, _factory(args[0], True, *args[1:]),
                    backend)
    assert got[1] > 0, "no requester ever waited: nothing was contended"
    assert got == want
