"""Seeded input generator for the pipeline benchmark.

Everything a run feeds the program comes from here and from the seed
alone: the `repro-synth` command rounds, the contended many-initiator
systems simulated in process, and the explore sweep grids.  Nothing is
drawn from the clock or from the program's outputs, so the same seed
gives byte-identical inputs (``python3 pipebench/gen.py --seed 7``
prints them as canonical JSON).

Three operation kinds exist, and every workload runs all three (see
README.md for why):

* ``oneshot`` -- a cold ``repro-synth`` subprocess;
* ``simulate`` -- a warm in-process ``simulate()`` call;
* ``sweep`` -- a ``repro-synth explore`` subprocess over a shared cache.

Operations come in *rounds* whose composition is fixed (only the order
and the drawn parameters vary with the seed), so a metric's value does
not swing with which operations a seed happened to pick.
"""

from __future__ import annotations

import argparse
import json
import random
from typing import Any, Dict, List

#: Inputs of the one-shot commands: the three built-in systems (which
#: carry oracle reference outputs) and the example ``.spec`` files.
BUILTIN_SYSTEMS = ("flc", "answering-machine", "ethernet")
SPEC_FILES = ("examples/specs/fig3.spec",
              "examples/specs/gcd_accelerator.spec",
              "examples/specs/pipeline_dsp.spec")
INPUTS = BUILTIN_SYSTEMS + SPEC_FILES

#: One-shot command kinds, in catalogue order.
COMMAND_KINDS = ("simulate", "verify", "vhdl", "lint", "explain")
#: The kinds that take ``--backend``.
BACKEND_KINDS = ("simulate", "verify", "explain")

#: Catalogue cells that fail today.  They stay in the mix and count
#: into ``fail_ratio``:
#:
#: * multi-bus VHDL fails validation (duplicate process labels, a
#:   missing ``ID`` field, DATA/ID width mismatches) -> exit 2;
#: * gcd_accelerator's GCD_UNIT is estimated at 41 clocks but measured
#:   at 29, so ``--verify`` fails -> exit 1.
KNOWN_FAILING = frozenset({
    ("vhdl", "examples/specs/fig3.spec"),
    ("vhdl", "examples/specs/gcd_accelerator.spec"),
    ("vhdl", "examples/specs/pipeline_dsp.spec"),
    ("verify", "examples/specs/gcd_accelerator.spec"),
})


#: Initiator counts of the contended-system ladder; one pool entry each.
LADDER = (16, 32, 64, 128, 256)
#: Messages per initiator at each rung: keeps a call near 350-450 bus
#: transactions whatever N is, so per-transaction cost is comparable.
MESSAGES_PER_RUNG = {16: 16, 32: 8, 64: 4, 128: 2, 256: 1}
#: Protocol, arbitration and bus width of each rung.  They are fixed
#: rather than drawn: together they set most of a call's host cost per
#: transaction, and drawing them made the pool's cost swing by a third
#: from seed to seed.  Every protocol and arbitration still appears on
#: some rung.
SIM_RUNGS = {
    16: ("half_handshake", "fifo", 12),
    32: ("burst_handshake", "rr", 11),
    64: ("full_handshake", "priority", 10),
    128: ("half_handshake", "rr", 12),
    256: ("full_handshake", "fifo", 11),
}
BACKENDS = ("interp", "compiled")
OBSERVERS = ("metrics", "recorder")

#: Explore systems; every sweep round visits each once.
SWEEP_SYSTEMS = BUILTIN_SYSTEMS
#: Widths of the sweep grids.  The cache is shared by the whole run,
#: so each round needs fresh keys: it takes the next arbitration
#: (which changes only the ``sim`` key, the stage that costs), and
#: every third round the widths step up by one.  Rounds therefore cost
#: about the same, however many a run holds.
SWEEP_WIDTHS = (5, 8, 12)
SWEEP_ARBITRATIONS = ("fifo", "priority", "rr")


def _rng(seed: int, *stream: Any) -> random.Random:
    # String seeds hash deterministically (unlike hash() of a str).
    return random.Random(":".join(str(part) for part in (seed,) + stream))


# -- one-shot commands ---------------------------------------------------------

def command_argv(kind: str, system: str, backend: str,
                 vhdl_path: str) -> List[str]:
    """``repro-synth`` arguments of one catalogue cell."""
    if kind == "simulate":
        return ["synth", system, "--simulate", "--backend", backend]
    if kind == "verify":
        return ["synth", system, "--simulate", "--verify",
                "--backend", backend]
    if kind == "vhdl":
        return ["synth", system, "--vhdl", vhdl_path]
    if kind == "lint":
        return ["lint", system]
    if kind == "explain":
        return ["explain", system, "--backend", backend]
    raise ValueError(f"unknown command kind {kind!r}")


class CommandDealer:
    """Deals one-shot rounds of eleven commands: one known-failing cell
    and ten passing ones.

    The passing cells are balanced per round: every command kind runs
    once on a built-in system and once on a ``.spec`` file (``--vhdl``,
    which passes on built-ins only, runs on two built-ins); each
    built-in fills two of the six built-in slots, and each ``.spec``
    file one of the three slots of the kinds that pass on all of them.
    From round 1 on the seed draws which kind meets which input,
    which half of the backend-taking commands runs compiled, and the
    failing cell (a deck reshuffled when it runs out).  Round 0 is the
    same eleven commands for every seed, in a seeded order: it is half
    of what a workload that does not stress one-shot commands runs of
    them, and a drawn composition made that workload's
    ``oneshot_tail_s`` swing by a third between seeds.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rounds = 0
        self._failing: List[Any] = []

    def _failing_cell(self, rng: random.Random) -> Any:
        if not self._failing:
            self._failing = sorted(KNOWN_FAILING)
            rng.shuffle(self._failing)
        return self._failing.pop()

    def next_round(self) -> List[Dict[str, Any]]:
        index = self.rounds
        self.rounds += 1
        rng = _rng(self.seed if index else "reference", "oneshot", index)
        builtin_slots = ["simulate", "verify", "vhdl", "vhdl", "lint",
                         "explain"]
        builtins = list(BUILTIN_SYSTEMS) * 2
        rng.shuffle(builtins)
        while builtins[2] == builtins[3]:
            rng.shuffle(builtins)
        specs = list(SPEC_FILES)
        rng.shuffle(specs)
        cells = [self._failing_cell(rng) if index
                 else rng.choice(sorted(KNOWN_FAILING))]
        cells += list(zip(builtin_slots, builtins))
        cells += list(zip(("simulate", "lint", "explain"), specs))
        passing_verify = [system for system in SPEC_FILES
                          if ("verify", system) not in KNOWN_FAILING]
        cells.append(("verify", rng.choice(passing_verify)))
        # Half the commands that take a backend run each (the odd one
        # drawn), so a round's cost does not move with the draw.
        timed = [cell for cell in cells if cell[0] in BACKEND_KINDS]
        backends = [BACKENDS[i % 2] for i in range(len(timed))]
        rng.shuffle(backends)
        backend_of = dict(zip(timed, backends))
        round_ = [{"kind": kind, "system": system,
                   "backend": backend_of.get((kind, system), "interp"),
                   "known_failing": (kind, system) in KNOWN_FAILING}
                  for kind, system in cells]
        _rng(self.seed, "order", index).shuffle(round_)
        return round_


# -- contended simulations -----------------------------------------------------

def sim_pool(seed: int) -> List[Dict[str, Any]]:
    """One contended-system configuration per ladder rung; the seed
    draws which initiator takes which behaviour and the memory
    contents."""
    pool = []
    for n in LADDER:
        rng = _rng(seed, "pool", n)
        # As many of each behaviour as n allows (the remainder drawn),
        # in seeded positions: the behaviours cost differently per
        # transaction, so drawing each initiator's role on its own
        # made a rung's cost move with the seed.
        roles = list("wrm" * (n // 3)) + rng.sample("wrm", n % 3)
        rng.shuffle(roles)
        protocol, arbitration, width = SIM_RUNGS[n]
        pool.append({
            "n": n,
            "messages": MESSAGES_PER_RUNG[n],
            "roles": "".join(roles),
            "protocol": protocol,
            "arbitration": arbitration,
            "width": width,
            "init_salt": rng.randrange(256),
        })
    return pool


def arbiter_factories(arbitration: str, bus: str):
    """``simulate(arbiter_factories=...)`` for one pool entry (``None``
    keeps the runtime's FIFO default)."""
    from repro.sim.arbiter import PriorityArbiter, RoundRobinArbiter

    if arbitration == "fifo":
        return None
    if arbitration == "priority":
        def factory(sim, members):
            return PriorityArbiter(
                sim, {name: index for index, name in enumerate(members)})
    else:
        def factory(sim, members):
            return RoundRobinArbiter(sim, members)
    return {bus: factory}


def expected_values(config: Dict[str, Any]) -> Dict[str, List[int]]:
    """Final ``MEM``/``ACC`` contents a correct simulation must leave."""
    n, m = config["n"], config["messages"]
    mem = initial_memory(config)
    acc = [0] * n
    for p, role in enumerate(config["roles"]):
        base = p * m
        for i in range(m):
            if role == "w":
                mem[base + i] = i * 3 + p
            elif role == "r":
                acc[p] += mem[base + i]
            else:
                mem[base + i] += p + 1
    return {"MEM": mem, "ACC": acc}


def initial_memory(config: Dict[str, Any]) -> List[int]:
    size = config["n"] * config["messages"]
    salt = config["init_salt"]
    return [(k * 37 + salt) % 256 for k in range(size)]


def build_contended(config: Dict[str, Any]):
    """The spec and single bus group of one pool configuration.

    N initiators share one bus to one memory module.  Writers store a
    slice, readers sum a slice into their ``ACC`` slot, and
    read-modify-write initiators bump every element of their slice, so
    the bus server's read path runs beside its write path.
    """
    from repro.partition.channels import default_bus_groups
    from repro.partition.partitioner import Partition
    from repro.spec.behavior import Behavior
    from repro.spec.expr import Index, Ref
    from repro.spec.stmt import Assign, For
    from repro.spec.system import SystemSpec
    from repro.spec.types import ArrayType, IntType
    from repro.spec.variable import Variable

    n, m = config["n"], config["messages"]
    mem = Variable("MEM", ArrayType(IntType(16), n * m),
                   init=initial_memory(config))
    acc = Variable("ACC", ArrayType(IntType(32), n))
    behaviors = []
    for p, role in enumerate(config["roles"]):
        i = Variable("i", IntType(16))
        base = p * m
        name = f"INIT{p:03d}"
        if role == "w":
            behaviors.append(Behavior(name, [
                For(i, 0, m - 1, [Assign((mem, Ref(i) + base),
                                         Ref(i) * 3 + p)]),
            ]))
        elif role == "r":
            total = Variable("total", IntType(32), init=0)
            behaviors.append(Behavior(name, [
                For(i, 0, m - 1, [Assign(total, Ref(total)
                                         + Index(mem, Ref(i) + base))]),
                Assign((acc, p), Ref(total)),
            ], local_variables=[total]))
        else:
            behaviors.append(Behavior(name, [
                For(i, 0, m - 1, [Assign((mem, Ref(i) + base),
                                         Index(mem, Ref(i) + base)
                                         + (p + 1))]),
            ]))
    system = SystemSpec(f"contended{n}", behaviors, [mem, acc])
    partition = Partition(system)
    chip = partition.add_module("chip")
    memory = partition.add_module("memory")
    for behavior in behaviors:
        partition.assign(behavior, chip)
    partition.assign(mem, memory)
    partition.assign(acc, memory)
    return system, default_bus_groups(partition)[0]


def sim_round(seed: int, index: int) -> List[Dict[str, Any]]:
    """Fifteen calls: per rung, the configuration detached on both
    backends plus one observed call.  Observers alternate across rungs
    and rounds, and the observed call's backend every second round, so
    every round has both observers and any two (four) consecutive
    rounds give each rung both observers (on both backends); the seed
    draws the order."""
    calls = []
    for slot, n in enumerate(LADDER):
        calls.append({"n": n, "backend": "interp", "observer": "none"})
        calls.append({"n": n, "backend": "compiled", "observer": "none"})
        calls.append({"n": n,
                      "backend": BACKENDS[(slot + index // 2) % 2],
                      "observer": OBSERVERS[(slot + index) % 2]})
    _rng(seed, "simulate", index).shuffle(calls)
    return calls


# -- explore sweeps ------------------------------------------------------------

def grid_args(grid: Dict[str, List[Any]]) -> List[str]:
    return [f"{axis}={','.join(str(v) for v in values)}"
            for axis, values in grid.items()]


def sweep_round(seed: int, index: int) -> List[Dict[str, Any]]:
    """Thirteen sweeps over the three systems.

    Per system: a grid G1 on one backend (cold: at least its ``sim``
    stage misses), G1 again on the other backend (every stage hits but
    ``sim``), and two exact repeats of G1 that read only hits.  One
    system per round (rotating with the round index) also sweeps a
    partly overlapping G2: one point shared with G1, two that end in a
    structured error payload by design (parity on the half handshake).
    Each system's cold backend and arbitration rotate with the round
    index rather than being drawn, because a cold interp sweep costs
    several times a cold compiled one: drawing them moved a round's
    cost with the seed.  The seed draws the order of the systems.
    """
    rng = _rng(seed, "sweep", index)
    systems = list(SWEEP_SYSTEMS)
    overlap_system = systems[index % len(systems)]
    rng.shuffle(systems)
    cycle, step = divmod(index, len(SWEEP_ARBITRATIONS))
    w1, w2, w3 = (width + cycle for width in SWEEP_WIDTHS)
    sweeps = []
    for system in systems:
        slot = SWEEP_SYSTEMS.index(system)
        arbitration = SWEEP_ARBITRATIONS[
            (step + slot) % len(SWEEP_ARBITRATIONS)]
        backend = BACKENDS[(slot + index) % 2]
        other = BACKENDS[1 - BACKENDS.index(backend)]
        g1 = {"width": [w1, w2], "protection": ["none", "parity"],
              "arbitration": [arbitration]}
        sweeps.append({"system": system, "grid": g1, "backend": backend,
                       "role": "cold"})
        sweeps.append({"system": system, "grid": g1, "backend": other,
                       "role": "other-backend"})
        if system == overlap_system:
            g2 = {"width": [w2, w3],
                  "protocol": ["full_handshake", "half_handshake"],
                  "protection": ["parity"],
                  "arbitration": [arbitration]}
            sweeps.append({"system": system, "grid": g2,
                           "backend": backend, "role": "overlap"})
        for _ in range(2):
            sweeps.append({"system": system, "grid": g1,
                           "backend": backend, "role": "repeat"})
    return sweeps


def describe(seed: int, rounds: int = 2) -> Dict[str, Any]:
    """Canonical description of the first ``rounds`` rounds of each
    kind, plus the simulation pool."""
    dealer = CommandDealer(seed)
    return {
        "seed": seed,
        "oneshot": [dealer.next_round() for _ in range(rounds)],
        "simulate_pool": sim_pool(seed),
        "simulate": [sim_round(seed, r) for r in range(rounds)],
        "sweep": [sweep_round(seed, r) for r in range(rounds)],
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description="print the benchmark inputs a seed generates")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args()
    print(json.dumps(describe(args.seed, args.rounds), sort_keys=True,
                     separators=(",", ":")))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
