"""Exhaustive exploration of failure-free state spaces.

The valence notions of Section 3.2 quantify over *all* failure-free
extensions of an execution.  For the finite-state instances this library
analyzes, that quantification is decided exactly by exhausting the
reachable task-transition graph.  This module provides:

* :func:`explore` — breadth-first reachability from a root state under
  the deterministic task semantics, producing a :class:`StateGraph`;
* :class:`StateGraph` — the explored graph with task-labeled edges;
* :func:`reachable_decision_sets` — for every explored state, the set of
  values decided in *some* failure-free extension; computed as a
  backward fixpoint over the graph (sound for cyclic graphs), this is
  precisely the semantic ingredient of valence.

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
from typing import Callable, Hashable, Iterable, Iterator

from ..ioa.actions import Action
from ..ioa.automaton import State, Task
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.sinks import NULL_TRACER, Tracer
from .view import DeterministicSystemView


class ExplorationBudget(RuntimeError):
    """The reachable state space exceeded the caller's budget."""


class StateSet:
    """An insertion-ordered set of states.

    Iteration follows first-discovery order, so every consumer that
    walks ``graph.states`` — witness searches, similarity scans, valence
    histograms — is deterministic across runs instead of following the
    salted iteration order of a builtin ``set``.  Equality is
    order-insensitive set equality, including against plain
    ``set``/``frozenset`` values.
    """

    __slots__ = ("_items",)

    def __init__(self, items: Iterable[State] = ()) -> None:
        self._items: dict = dict.fromkeys(items)

    def add(self, state: State) -> None:
        self._items[state] = None

    def update(self, items: Iterable[State]) -> None:
        self._items.update(dict.fromkeys(items))

    def __contains__(self, state: object) -> bool:
        return state in self._items

    def __iter__(self) -> Iterator[State]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StateSet):
            return self._items.keys() == other._items.keys()
        if isinstance(other, (set, frozenset)):
            return self._items.keys() == other
        return NotImplemented

    __hash__ = None  # mutable container

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StateSet({list(self._items)!r})"

    def __reduce__(self):
        return (StateSet, (list(self._items),))


@dataclass
class StateGraph:
    """An explored failure-free task-transition graph.

    ``edges[s]`` lists the outgoing ``(task, action, successor)`` triples
    of ``s``; ``states`` is the insertion-ordered :class:`StateSet` of
    explored states (discovery order).  The graph is exactly the
    reachable fragment of the paper's ``G(C)`` collapsed from executions
    to states — sound because, under the determinism assumptions,
    valence is a function of the final state (two executions ending in
    the same state have the same failure-free extensions).
    """

    root: State
    states: StateSet = field(default_factory=StateSet)
    edges: dict = field(default_factory=dict)

    def successors(self, state: State) -> list[tuple[Task, Action, State]]:
        """Outgoing edges of ``state``."""
        return self.edges.get(state, [])

    def __len__(self) -> int:
        return len(self.states)

    def edge_count(self) -> int:
        """Total number of transitions in the graph."""
        return sum(len(out) for out in self.edges.values())


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
) -> dict[State, frozenset]:
    """For each state, the union of decision values over all extensions.

    A value ``v`` is in the set of ``s`` iff some failure-free extension
    of an execution ending in ``s`` contains a ``decide(v)`` — i.e. some
    state reachable from ``s`` records ``v``.  Computed as a backward
    fixpoint: start from each state's own recorded decisions and
    propagate along reversed edges until stable.  Fixpoint iteration (as
    opposed to a DAG pass) is required because protocol graphs contain
    cycles (processes spin on dummy steps).
    """
    states = list(graph.states)
    position = {state: index for index, state in enumerate(states)}
    decision_values = view.decision_values
    result = [decision_values(state) for state in states]
    # Reverse adjacency over positions: the worklist below never hashes
    # a state again.
    predecessors: list[list[int]] = [[] for _ in states]
    for state, out in graph.edges.items():
        source = position[state]
        for _, _, successor in out:
            predecessors[position[successor]].append(source)
    worklist: deque = deque(range(len(states)))
    queued = [True] * len(states)
    while worklist:
        index = worklist.popleft()
        queued[index] = False
        values = result[index]
        for predecessor in predecessors[index]:
            current = result[predecessor]
            if not values <= current:
                result[predecessor] = current | values
                if not queued[predecessor]:
                    worklist.append(predecessor)
                    queued[predecessor] = True
    return dict(zip(states, result))


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
