"""Contended many-initiator system: one bus, one memory, N masters.

Not one of the paper's evaluation systems.  The paper's bus-generation
model assumes transfers of different channels never collide; this
system is the opposite extreme, used to exercise arbitration: every
initiator starts at clock 0 and fights for the single bus to the
memory module.

* **chip**: ``INIT00`` ... ``INIT<N-1>``.  Initiator ``p`` owns the
  slice ``MEM[p*M .. p*M + M - 1]`` and, by ``p % 3``, either writes
  it, sums it into ``ACC[p]``, or bumps every element by ``p + 1``
  (read-modify-write), so the bus server's read path runs beside its
  write path.
* **memory**: ``MEM`` (``N*M`` 16-bit words) and ``ACC`` (``N`` 32-bit
  sums).

No behavior touches ``MEM`` or ``ACC`` except through the bus, so the
arbiter alone serializes every access to them.  :func:`arbiter_factories`
builds the ``simulate(arbiter_factories=...)`` argument for each policy
in :data:`ARBITRATIONS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.channels.group import ChannelGroup
from repro.partition.channels import default_bus_groups
from repro.partition.partitioner import Partition
from repro.spec.behavior import Behavior
from repro.spec.expr import Index, Ref
from repro.spec.stmt import Assign, For
from repro.spec.system import SystemSpec
from repro.spec.types import ArrayType, IntType
from repro.spec.variable import Variable

#: Arbitration policies :func:`arbiter_factories` knows.
ARBITRATIONS = ("fifo", "priority", "rr", "tdma")
#: TDMA slot length: shorter than most messages, so a transfer often
#: runs past its own slot.
TDMA_SLOT_CLOCKS = 4


@dataclass
class ContendedModel:
    """The built contended system."""

    system: SystemSpec
    bus: ChannelGroup


def initial_memory(initiators: int, messages: int) -> List[int]:
    """``MEM``'s initial contents."""
    return [(k * 37 + 11) % 256 for k in range(initiators * messages)]


def build_contended(initiators: int = 12,
                    messages: int = 3) -> ContendedModel:
    """``initiators`` masters, ``messages`` elements of ``MEM`` each."""
    n, m = initiators, messages
    mem = Variable("MEM", ArrayType(IntType(16), n * m),
                   init=initial_memory(n, m))
    acc = Variable("ACC", ArrayType(IntType(32), n))
    behaviors = []
    for p in range(n):
        i = Variable("i", IntType(16))
        base = p * m
        element = Ref(i) + base
        if p % 3 == 0:
            body = [For(i, 0, m - 1, [Assign((mem, element),
                                             Ref(i) * 3 + p)])]
            behaviors.append(Behavior(f"INIT{p:02d}", body))
        elif p % 3 == 1:
            total = Variable("total", IntType(32), init=0)
            body = [For(i, 0, m - 1, [Assign(total, Ref(total)
                                             + Index(mem, element))]),
                    Assign((acc, p), Ref(total))]
            behaviors.append(Behavior(f"INIT{p:02d}", body,
                                      local_variables=[total]))
        else:
            body = [For(i, 0, m - 1, [Assign((mem, element),
                                             Index(mem, element)
                                             + (p + 1))])]
            behaviors.append(Behavior(f"INIT{p:02d}", body))
    system = SystemSpec(f"contended{n}", behaviors, [mem, acc])
    partition = Partition(system)
    chip = partition.add_module("chip")
    memory = partition.add_module("memory")
    for behavior in behaviors:
        partition.assign(behavior, chip)
    partition.assign(mem, memory)
    partition.assign(acc, memory)
    return ContendedModel(system=system,
                          bus=default_bus_groups(partition)[0])


def reference_state(initiators: int, messages: int) -> Dict[str, List[int]]:
    """Final ``MEM`` and ``ACC`` any correct simulation leaves."""
    n, m = initiators, messages
    mem = initial_memory(n, m)
    acc = [0] * n
    for p in range(n):
        for i in range(p * m, p * m + m):
            if p % 3 == 0:
                mem[i] = (i - p * m) * 3 + p
            elif p % 3 == 1:
                acc[p] += mem[i]
            else:
                mem[i] += p + 1
    return {"MEM": mem, "ACC": acc}


def arbiter_factories(policy: str,
                      bus: str) -> Optional[Dict[str, Callable]]:
    """``simulate(arbiter_factories=...)`` for one policy of
    :data:`ARBITRATIONS` (``None`` keeps the runtime's FIFO default).
    Priorities follow member order; TDMA gives each member one slot of
    :data:`TDMA_SLOT_CLOCKS` clocks."""
    from repro.sim.arbiter import (
        PriorityArbiter,
        RoundRobinArbiter,
        TdmaArbiter,
    )

    if policy == "fifo":
        return None
    if policy == "priority":
        def factory(sim, members):
            return PriorityArbiter(
                sim, {name: rank for rank, name in enumerate(members)})
    elif policy == "rr":
        def factory(sim, members):
            return RoundRobinArbiter(sim, members)
    elif policy == "tdma":
        def factory(sim, members):
            return TdmaArbiter(sim, members, TDMA_SLOT_CLOCKS)
    else:
        raise ValueError(f"unknown arbitration {policy!r}; expected one "
                         f"of {', '.join(ARBITRATIONS)}")
    return {bus: factory}
