"""Exhaustive exploration of failure-free state spaces.

The valence notions of Section 3.2 quantify over *all* failure-free
extensions of an execution.  For the finite-state instances this library
analyzes, that quantification is decided exactly by exhausting the
reachable task-transition graph.  This module provides:

* :func:`explore` — breadth-first reachability from a root state under
  the deterministic task semantics, producing a :class:`StateGraph`;
* :class:`StateGraph` — the explored graph by discovery position: the
  states in discovery order, the visited dict mapping each state to its
  position, and per expanded position the task-labeled edges as
  ``(task, action, successor_index)`` rows;
* :func:`reachable_decision_sets` — for every explored position, the
  set of values decided in *some* failure-free extension; computed as
  one backward-reachability pass per decision value over the integer
  graph (sound for cyclic graphs), this is precisely the semantic
  ingredient of valence.

Budgets: exploration takes a :class:`repro.engine.Budget` and raises
:class:`ExplorationBudget` when exceeded, so callers can distinguish
"exhausted the space" from "the space is too large" — the latter is the
signal to switch to the bounded adversary of
:mod:`repro.analysis.adversary`.

:func:`explore` is now a thin compatibility wrapper over
:class:`repro.engine.ExplorationEngine` (one worker) — the engine
adds worker-pool parallelism, fingerprint visited sets, checkpoints,
and deadlines behind the same semantics, and its
budget error :class:`~repro.engine.budget.BudgetExhausted` subclasses
:class:`ExplorationBudget`, so existing handlers keep working while the
message now reports the progress made before exhaustion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..ioa.actions import Action
from ..ioa.automaton import State, Task
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.sinks import NULL_TRACER, Tracer
from .view import DeterministicSystemView


class ExplorationBudget(RuntimeError):
    """The reachable state space exceeded the caller's budget."""


@dataclass
class StateGraph:
    """An explored failure-free task-transition graph, by discovery position.

    Three tables hold the whole graph:

    * ``order`` — the states in discovery order (``order[0]`` is the
      root);
    * ``position`` — state to its index in ``order``: the engine's
      visited dict, handed over rather than rebuilt;
    * ``succ`` — for each expanded position ``p``, the outgoing edges of
      ``order[p]`` as ``(task, action, successor_index)`` rows.
      Breadth-first search expands states in discovery order, so the
      expanded states are exactly ``order[:len(succ)]``.

    ``states`` (``position``'s keys) iterates in discovery order, so
    every consumer that walks it — witness searches, similarity scans,
    valence histograms — is deterministic across runs, and it compares
    equal to a ``set`` of the same states.  The graph is exactly the
    reachable fragment of the paper's ``G(C)`` collapsed from executions
    to states — sound because, under the determinism assumptions,
    valence is a function of the final state (two executions ending in
    the same state have the same failure-free extensions).
    """

    root: State
    order: list = field(default_factory=list)
    position: dict = field(default_factory=dict)
    succ: list = field(default_factory=list)

    @property
    def states(self):
        """The explored states, in discovery order (a set-like view)."""
        return self.position.keys()

    def successors(self, state: State) -> list[tuple[Task, Action, State]]:
        """Outgoing ``(task, action, successor)`` edges of ``state``."""
        index = self.position.get(state)
        if index is None or index >= len(self.succ):
            return []
        return self._edges_at(index)

    def _edges_at(self, index: int) -> list[tuple[Task, Action, State]]:
        order = self.order
        return [
            (task, action, order[target]) for task, action, target in self.succ[index]
        ]

    @property
    def edges(self) -> dict:
        """State-keyed adjacency of the expanded states, built on each access."""
        order = self.order
        return {order[index]: self._edges_at(index) for index in range(len(self.succ))}

    def __len__(self) -> int:
        return len(self.order)

    def edge_count(self) -> int:
        """Total number of transitions in the graph."""
        return sum(len(rows) for rows in self.succ)


def explore(
    view: DeterministicSystemView,
    root: State,
    *,
    prune: Callable[[State], bool] | None = None,
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
    budget=None,
    store=None,
) -> StateGraph:
    """Breadth-first exploration of the failure-free reachable graph.

    ``budget`` is a :class:`repro.engine.Budget` bounding the search
    (``None`` means :data:`repro.engine.DEFAULT_BUDGET`,
    ``Budget(max_states=200_000)``).

    ``store`` selects a :mod:`repro.engine.store` store for the run's
    states — a URI string (``"sqlite:/path"``, or ``"sqlite"`` for a
    scratch directory),
    a :class:`repro.engine.StoreConfig`, or a
    :class:`repro.engine.StateStore` instance.  ``None`` (the default)
    keeps the classic in-RAM exploration.  Note this function still
    returns the fully materialized graph; for disk-bound runs that must
    not decode every state back into RAM, use
    :meth:`repro.engine.ExplorationEngine.scan`.

    ``prune`` may cut off exploration below selected states (used, e.g.,
    to stop below states where every process has decided — their
    extensions cannot change any decision set).  Pruned states are kept
    in the graph but get no outgoing edges.

    With ``tracer`` enabled, one ``state_explored`` event is emitted per
    expanded state; ``metrics`` accumulates the ``explore.*`` counters
    (states, transitions, runs, budget exhaustions) either way — the
    counters survive an :class:`ExplorationBudget` raise, so budget
    failures still report how much work was done.

    This is a compatibility wrapper: the actual search lives in
    :class:`repro.engine.ExplorationEngine`, driven here with one worker.
    Callers needing parallelism, checkpoints, or resume should construct
    an engine directly.
    """
    # Imported lazily: repro.engine imports this module at load time.
    from ..engine import ExplorationEngine

    engine = ExplorationEngine(workers=1, budget=budget, store=store)
    return engine.explore(view, root, prune=prune, tracer=tracer, metrics=metrics)


def reachable_decision_sets(
    graph: StateGraph, view: DeterministicSystemView
) -> list[frozenset]:
    """For each position, the union of decision values over all extensions.

    A value ``v`` is in the set of ``graph.order[p]`` iff some
    failure-free extension of an execution ending in that state contains
    a ``decide(v)`` — i.e. some state reachable from it records ``v``.
    Computed as one backward-reachability pass per decision value (the
    EF fixpoint of CTL model checking) over the predecessor lists of
    ``graph.succ``: a pass marks every position that reaches a state
    recording ``v``, which is sound on the cyclic graphs protocols
    produce (processes spin on dummy steps).  The passes touch only
    positions, so no state is hashed; the one per-state call is
    ``view.decision_values``.
    """
    decision_values = view.decision_values
    own = [decision_values(state) for state in graph.order]
    predecessors: list[list[int]] = [[] for _ in own]
    for source, rows in enumerate(graph.succ):
        for _, _, target in rows:
            predecessors[target].append(source)
    masks = [0] * len(own)
    values = list(frozenset().union(*own))
    for bit, value in enumerate(values):
        flag = 1 << bit
        stack = [index for index, decided in enumerate(own) if value in decided]
        for index in stack:
            masks[index] |= flag
        while stack:
            for predecessor in predecessors[stack.pop()]:
                if not masks[predecessor] & flag:
                    masks[predecessor] |= flag
                    stack.append(predecessor)
    sets: dict[int, frozenset] = {}
    for mask in masks:
        if mask not in sets:
            sets[mask] = frozenset(
                value for bit, value in enumerate(values) if mask >> bit & 1
            )
    return [sets[mask] for mask in masks]


def find_state(
    graph: StateGraph, predicate: Callable[[State], bool]
) -> State | None:
    """Some explored state satisfying ``predicate``, or ``None``."""
    for state in graph.states:
        if predicate(state):
            return state
    return None


def shortest_task_path(
    graph: StateGraph, source: State, target_predicate: Callable[[State], bool]
) -> list[tuple[Task, Action, State]] | None:
    """BFS for the shortest edge path from ``source`` to a target state.

    Returns the list of ``(task, action, state)`` edges, or ``None`` when
    no target is reachable within the explored graph.
    """
    if target_predicate(source):
        return []
    parents: dict[State, tuple[State, Task, Action]] = {}
    frontier: deque = deque([source])
    seen = {source}
    while frontier:
        state = frontier.popleft()
        for task, action, successor in graph.successors(state):
            if successor in seen:
                continue
            seen.add(successor)
            parents[successor] = (state, task, action)
            if target_predicate(successor):
                # Reconstruct the path.
                path: list[tuple[Task, Action, State]] = []
                cursor = successor
                while cursor != source:
                    previous, task_used, action_used = parents[cursor]
                    path.append((task_used, action_used, cursor))
                    cursor = previous
                path.reverse()
                return path
            frontier.append(successor)
    return None
