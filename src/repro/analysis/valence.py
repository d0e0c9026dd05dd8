"""Valence of executions (Section 3.2) and Lemma 4.

A finite failure-free input-first execution ``alpha`` is

* **0-valent** if some failure-free extension contains ``decide(0)`` and
  none contains ``decide(1)``;
* **1-valent** symmetrically;
* **univalent** if 0- or 1-valent;
* **bivalent** if extensions with both decisions exist.

Lemma 3 states that for a system solving consensus every such execution
is bivalent or univalent — i.e. *some* decision is always reachable.
Broken candidates can violate this, so this module adds a fourth
classification, ``BLOCKED``, for states from which no failure-free
extension ever decides; finding a ``BLOCKED`` state is already a
refutation of the candidate (its failure-free fair executions cannot all
terminate).

Under the determinism assumptions, valence is a function of the final
state of the execution, so the analysis computes valence per *state*
over the exhaustively explored failure-free graph.

Lemma 4 ("C has a bivalent initialization") is implemented
constructively, following the paper's chain argument: walk the
initializations ``alpha_0, ..., alpha_n`` where ``alpha_i`` gives value 1
to the first ``i`` processes; validity pins the endpoints to opposite
valences, so somewhere along the chain sits either a bivalent
initialization or an adjacent 0-valent/1-valent pair differing in one
process's input — and the paper's argument turns the latter into
bivalence of the second element.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Hashable, Sequence

from ..ioa.automaton import State
from ..ioa.execution import Execution
from ..obs.events import VALENCE_VERDICT, encode_value
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.sinks import NULL_TRACER, Tracer
from ..system.system import DistributedSystem
from .explorer import StateGraph, explore, reachable_decision_sets
from .view import DeterministicSystemView


class Valence(enum.Enum):
    """The valence classification of a state/execution."""

    ZERO = "0-valent"
    ONE = "1-valent"
    BIVALENT = "bivalent"
    BLOCKED = "blocked"  # no failure-free extension decides (Lemma 3 violated)

    @property
    def is_univalent(self) -> bool:
        return self in (Valence.ZERO, Valence.ONE)


def classify(decision_set: frozenset) -> Valence:
    """Valence from the set of reachable decision values."""
    if decision_set == frozenset({0}):
        return Valence.ZERO
    if decision_set == frozenset({1}):
        return Valence.ONE
    if decision_set >= frozenset({0, 1}):
        return Valence.BIVALENT
    return Valence.BLOCKED


@dataclass
class ValenceAnalysis:
    """Valence of every state reachable (failure-free) from a root.

    Produced by :func:`analyze_valence`; wraps the explored graph, the
    reachable decision sets indexed by graph position, and the derived
    valence map.
    """

    view: DeterministicSystemView
    graph: StateGraph
    decision_sets: Sequence[frozenset]
    #: The :class:`repro.engine.ReducedView` the graph was explored
    #: through, or ``None`` for a full exploration.  When set, ``graph``
    #: holds canonical orbit representatives only, so valence lookups
    #: canonicalize first (sound: symmetric states have equal valence)
    #: and consumers that walk *edges* must use :meth:`successors_of`.
    reduction: object | None = None

    def valence(self, state: State) -> Valence:
        """The valence of ``state`` (must be an explored state, up to symmetry)."""
        if self.reduction is not None:
            state = self.reduction.canonical(state)
        return classify(self.decision_sets[self.graph.position[state]])

    def successors_of(self, state: State) -> list:
        """Successor edges of ``state`` for graph walks (hook search).

        On a full exploration this is the precomputed adjacency.  Under
        reduction the graph's edges jump between orbit representatives —
        following them would splice symmetric-but-different executions —
        so raw single-step semantics are recomputed from the view
        instead (the walk stays exact; only valence lookups quotient).
        """
        if self.reduction is None:
            return self.graph.successors(state)
        return self.view.successors(state)

    def is_bivalent(self, state: State) -> bool:
        return self.valence(state) is Valence.BIVALENT

    def is_univalent(self, state: State) -> bool:
        return self.valence(state).is_univalent

    def _states_of(self, valence: Valence) -> list[State]:
        return [
            state
            for state, decided in zip(self.graph.order, self.decision_sets)
            if classify(decided) is valence
        ]

    def bivalent_states(self) -> list[State]:
        """All explored bivalent states."""
        return self._states_of(Valence.BIVALENT)

    def blocked_states(self) -> list[State]:
        """All explored states violating Lemma 3 (no reachable decision)."""
        return self._states_of(Valence.BLOCKED)

    def counts(self) -> dict[Valence, int]:
        """Histogram of valences over the explored graph."""
        histogram = {valence: 0 for valence in Valence}
        for decided in self.decision_sets:
            histogram[classify(decided)] += 1
        return histogram

    def summary(self) -> str:
        """One-line human summary (the shared report protocol)."""
        histogram = self.counts()
        parts = ", ".join(
            f"{count} {valence.value}"
            for valence, count in histogram.items()
            if count
        )
        reduced = " [reduced]" if self.reduction is not None else ""
        return (
            f"valence: {len(self.graph)} states / "
            f"{self.graph.edge_count()} transitions{reduced}: {parts or 'empty'}"
        )

    def to_json(self) -> dict:
        """JSON-serializable payload (the shared report protocol)."""
        return {
            "states": len(self.graph),
            "transitions": self.graph.edge_count(),
            "reduced": self.reduction is not None,
            "valences": {
                valence.value: count for valence, count in self.counts().items()
            },
        }


def analyze_valence(
    system: DistributedSystem,
    root: State,
    *,
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
    engine=None,
    reduction=None,
    budget=None,
) -> ValenceAnalysis:
    """Explore from ``root`` and compute the valence of every state.

    ``budget`` is a :class:`repro.engine.Budget` bounding the
    exploration (``None`` means ``Budget(max_states=200_000)``).

    ``engine`` may be a preconfigured
    :class:`repro.engine.ExplorationEngine` (store, deadline,
    checkpointing); its own budget then governs the exploration, and the
    ``budget`` argument here is ignored.

    ``reduction`` may be a :class:`repro.engine.ReductionConfig`; the
    exploration then runs through a
    :class:`~repro.engine.reduction.ReducedView` (symmetry quotient
    and/or ample-set POR), and the returned analysis canonicalizes
    valence lookups.  Both reductions preserve reachable decision sets
    (see ``docs/reduction.md``), so every valence verdict is unchanged.
    """
    view = DeterministicSystemView(system)
    view.check_failure_free(root)
    explore_view = view
    reduced = None
    if reduction is not None and reduction.enabled:
        from ..engine.reduction import build_reduced_view

        reduced = build_reduced_view(view, root, reduction)
        explore_view = reduced
    if engine is None:
        graph = explore(
            explore_view, root, budget=budget, tracer=tracer, metrics=metrics
        )
    else:
        graph = engine.explore(explore_view, root, tracer=tracer, metrics=metrics)
    decisions = reachable_decision_sets(graph, view)
    if metrics.enabled:
        metrics.counter("valence.analyses").inc()
    return ValenceAnalysis(
        view=view, graph=graph, decision_sets=decisions, reduction=reduced
    )


@dataclass(frozen=True)
class InitializationValence:
    """One initialization with its assignment and classified valence."""

    assignment: tuple[tuple[Hashable, Hashable], ...]
    execution: Execution
    valence: Valence


@dataclass
class Lemma4Result:
    """Outcome of the Lemma 4 chain construction.

    ``chain`` lists the valence of each ``alpha_i``; ``bivalent`` holds a
    bivalent initialization when one exists.  ``critical_pair`` records
    the adjacent 0-valent/(1-or-bivalent) indices the paper's argument
    pivots on, when the chain had to be used (i.e. when no ``alpha_i``
    was directly bivalent, the pair's second element is proven bivalent
    by the argument of Lemma 4 — a situation that cannot actually arise
    for systems satisfying the termination property, which is why
    ``bivalent`` is then set to that element).
    """

    chain: list[InitializationValence]
    bivalent: InitializationValence | None
    critical_pair: tuple[int, int] | None

    def summary(self) -> str:
        """One-line human summary (the shared report protocol)."""
        valences = " ".join(entry.valence.value for entry in self.chain)
        if self.bivalent is not None:
            index = next(
                position
                for position, entry in enumerate(self.chain)
                if entry is self.bivalent
            )
            found = f"bivalent initialization at chain index {index}"
        else:
            found = "no bivalent initialization"
        return f"lemma4: {found} (chain: {valences})"

    def to_json(self) -> dict:
        """JSON-serializable payload (the shared report protocol)."""
        bivalent_index = None
        if self.bivalent is not None:
            bivalent_index = next(
                position
                for position, entry in enumerate(self.chain)
                if entry is self.bivalent
            )
        return {
            "chain": [
                {
                    "assignment": encode_value(entry.assignment),
                    "valence": entry.valence.value,
                }
                for entry in self.chain
            ],
            "bivalent_index": bivalent_index,
            "critical_pair": (
                None if self.critical_pair is None else list(self.critical_pair)
            ),
        }


def lemma4_bivalent_initialization(
    system: DistributedSystem,
    *,
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
    engine=None,
    reduction=None,
    budget=None,
) -> Lemma4Result:
    """Find a bivalent initialization, per the proof of Lemma 4.

    Builds the chain ``alpha_0 .. alpha_n`` (``alpha_i``: processes
    ``1..i`` propose 1, the rest propose 0), classifies each by
    exhaustive exploration, and returns the first bivalent one together
    with the full chain.  For a correct consensus system the chain
    endpoints are 0-valent and 1-valent by validity, so a bivalent
    element or a critical adjacent pair must exist.

    ``budget`` bounds each exploration of the chain.
    """
    endpoints = list(system.process_ids)
    chain: list[InitializationValence] = []
    for split in range(len(endpoints) + 1):
        assignment = {
            endpoint: (1 if position < split else 0)
            for position, endpoint in enumerate(endpoints)
        }
        execution = system.initialization(assignment)
        analysis = analyze_valence(
            system,
            execution.final_state,
            tracer=tracer,
            metrics=metrics,
            engine=engine,
            reduction=reduction,
            budget=budget,
        )
        valence = analysis.valence(execution.final_state)
        if tracer.enabled:
            tracer.emit(
                VALENCE_VERDICT,
                assignment=tuple(sorted(assignment.items(), key=lambda kv: str(kv[0]))),
                valence=valence.value,
            )
        if metrics.enabled:
            metrics.counter("valence.initializations").inc()
        chain.append(
            InitializationValence(
                assignment=tuple(sorted(assignment.items(), key=lambda kv: str(kv[0]))),
                execution=execution,
                valence=valence,
            )
        )
    bivalent = next(
        (entry for entry in chain if entry.valence is Valence.BIVALENT), None
    )
    critical_pair = None
    for index in range(len(chain) - 1):
        if chain[index].valence is Valence.ZERO and chain[index + 1].valence in (
            Valence.ONE,
            Valence.BIVALENT,
        ):
            critical_pair = (index, index + 1)
            break
    return Lemma4Result(chain=chain, bivalent=bivalent, critical_pair=critical_pair)
