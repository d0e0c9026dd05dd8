"""repro.sim — deterministic network-fault simulation and fuzzing.

The modeled network of :mod:`repro.services.network` is perfectly
reliable; the paper's adversary — and any real network — is not.  This
subsystem closes that gap in three layers:

* :mod:`repro.sim.faults` — the :class:`FaultyNetwork` family: message
  drop, duplication, cross-pair reorder, bounded clock skew, and
  partition/heal as **explicit, explorable transitions** with per-link
  :class:`FaultBudget` budgets.  Each fault instance is its own
  deterministic task, so exhaustive exploration, reduction, and the
  store-backed engine compose unchanged; the zero budget is state-for-state
  the benign network.
* :mod:`repro.sim.harness` — FoundationDB-style deterministic
  simulation: :func:`simulate` drives any system plus fault schedule
  from a single seed, and every run is replayable **bit-for-bit**
  through the existing :class:`~repro.ioa.scheduler.ScriptedScheduler`
  (:func:`replay`, :func:`verify_replay`, JSON replay scripts).
* :mod:`repro.sim.fuzz` — the adversary fuzzer: :func:`fuzz` generates
  candidate protocols (:class:`CandidateSpec`, including the seeded
  :class:`RandomTableProcess` family) and fault schedules, checks the
  consensus axioms each run, **shrinks** failing schedules to minimal
  counterexamples via delta debugging, and emits them as replay
  scripts; :func:`probe_with_adversary` escalates a spec to the full
  bivalence-preserving adversary pipeline.

CLI: ``repro sim`` (single seeded run / ``--replay`` verification) and
``repro fuzz`` (campaigns).  See ``docs/simulation.md``.
"""

from .faults import FaultBudget, FaultyChannel, FaultyNetwork, faulty_network_type
from .fuzz import (
    FAMILIES,
    CandidateSpec,
    Counterexample,
    FuzzReport,
    RandomTableProcess,
    build_candidate,
    fuzz,
    probe_with_adversary,
    random_spec,
    shrink_counterexample,
)
from .harness import (
    ReplayMismatch,
    SimConfig,
    SimResult,
    SimScheduler,
    balanced_proposals,
    is_quiescent,
    load_script,
    replay,
    save_script,
    script_document,
    simulate,
    verify_replay,
)

__all__ = [
    "FAMILIES",
    "CandidateSpec",
    "Counterexample",
    "FaultBudget",
    "FaultyChannel",
    "FaultyNetwork",
    "FuzzReport",
    "RandomTableProcess",
    "ReplayMismatch",
    "SimConfig",
    "SimResult",
    "SimScheduler",
    "balanced_proposals",
    "build_candidate",
    "faulty_network_type",
    "fuzz",
    "is_quiescent",
    "load_script",
    "probe_with_adversary",
    "random_spec",
    "replay",
    "save_script",
    "script_document",
    "shrink_counterexample",
    "simulate",
    "verify_replay",
]
