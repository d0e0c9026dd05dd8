"""repro — an executable reproduction of
"The Impossibility of Boosting Distributed Service Resilience"
(Attie, Guerraoui, Kuznetsov, Lynch, Rajsbaum; ICDCS 2005 / I&C 2011).

The library implements the paper's full formal framework over I/O
automata, every canonical service the paper defines, the proof machinery
of the three impossibility theorems as runnable analysis code, and the
two possibility constructions as concrete protocols.

Layering (bottom to top):

* :mod:`repro.ioa`       — I/O automata: actions, composition, executions,
  fairness, schedulers (Section 2.1.1);
* :mod:`repro.types`     — sequential types and service types
  (Sections 2.1.2, 5.1, 6.1);
* :mod:`repro.services`  — canonical atomic objects, registers,
  failure-oblivious services, totally ordered broadcast, general
  services, failure detectors (Figs. 1, 4-11);
* :mod:`repro.system`    — process automata, the complete system ``C``,
  failure schedules (Section 2.2);
* :mod:`repro.analysis`  — valence, bivalent initializations, the hook
  construction, similarity, the constructive refutation engine, and the
  end-to-end boosting adversary (Sections 3, 5.3, 6.3); re-exported as
  :mod:`repro.core`;
* :mod:`repro.engine`    — the exploration engine behind the analysis
  layer: state fingerprinting, a disk-backed state store, checkpoints
  with resume, and unified budgets;
* :mod:`repro.obs`       — tracing, metrics, profiling, and trace replay
  for every layer above (disabled by default, zero-overhead when off);
* :mod:`repro.protocols` — the Section 4 and Section 6.3 possibility
  constructions, plus the doomed candidates the adversary refutes;
* :mod:`repro.sim`       — deterministic network-fault simulation
  (:class:`~repro.sim.FaultyNetwork`, seeded harness, bit-for-bit
  replay scripts) and the adversary fuzzer with counterexample
  shrinking.

Quickstart::

    from repro import Budget, refute_candidate
    from repro.protocols import delegation_consensus_system

    system = delegation_consensus_system(n=3, resilience=1)
    verdict = refute_candidate(system, budget=Budget(max_states=100_000))
    assert verdict.refuted  # Theorem 2, witnessed on this instance

Stable top-level surface: the names re-exported below (the analysis
entry points, :class:`Budget`, :class:`ReductionConfig`,
:class:`ExplorationEngine`, the :class:`StateStore` /
:class:`StoreConfig` storage-backend surface, and the
:class:`RunLedger` / :class:`RunRecord` run-ledger surface) are the
supported public API; everything else is importable from its subpackage
but may move between minor versions.  See ``docs/api.md``.
"""

from . import (
    analysis,
    core,
    engine,
    ioa,
    obs,
    protocols,
    services,
    sim,
    system,
    types,
)
from .analysis import analyze_valence, explore, find_hook, refute_candidate
from .engine import (
    Budget,
    ExplorationEngine,
    ReductionConfig,
    StateStore,
    StoreConfig,
)
from .obs import RunLedger, RunRecord

__version__ = "1.0.0"

__all__ = [
    "Budget",
    "ExplorationEngine",
    "ReductionConfig",
    "RunLedger",
    "RunRecord",
    "StateStore",
    "StoreConfig",
    "analysis",
    "analyze_valence",
    "core",
    "engine",
    "explore",
    "find_hook",
    "ioa",
    "obs",
    "protocols",
    "refute_candidate",
    "services",
    "sim",
    "system",
    "types",
    "__version__",
]
