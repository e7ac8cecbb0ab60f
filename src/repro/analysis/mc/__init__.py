"""Temporal model checker over generated protocol FSMs (P7xx).

The package layers on top of the product-automaton engine of
:mod:`repro.analysis.product`:

* :mod:`repro.analysis.mc.graph` -- the counter-extended product graph
  (a Kripke structure whose states carry a retry-budget counter);
* :mod:`repro.analysis.mc.checker` -- fair-liveness / response checks,
  retry-termination proofs with clock bounds, NACK-commit safety;
* :mod:`repro.analysis.mc.races` -- the signal-race detector (reachable
  simultaneous drive sets per channel, symbolic drive windows from the
  abstract interpreter across channels);
* :mod:`repro.analysis.mc.witness` -- replayable JSON counterexample
  schedules (:mod:`repro.sim.replay` runs them through the event
  kernel);
* :mod:`repro.analysis.mc.passes` -- the lint pass and the
  ``repro-synth verify`` engine.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.mc.checker": (
        "PROPERTY_IDS", "PropertyVerdict", "VerificationReport",
        "check_channel"),
    "repro.analysis.mc.graph": ("TemporalGraph", "build_temporal_graph"),
    "repro.analysis.mc.passes": ("check_temporal", "verify_refined"),
    "repro.analysis.mc.witness": ("Witness", "WitnessStep"),
})

__all__ = [
    "PROPERTY_IDS",
    "PropertyVerdict",
    "TemporalGraph",
    "VerificationReport",
    "Witness",
    "WitnessStep",
    "build_temporal_graph",
    "check_channel",
    "check_temporal",
    "verify_refined",
]
