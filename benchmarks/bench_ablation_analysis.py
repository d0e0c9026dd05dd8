"""Ablation benches for the analysis-layer design choices.

DESIGN.md calls out three implementation decisions in the proof
machinery; each is ablated here against its naive alternative:

* **A1 — bivalence-restricted inner search** (Fig. 3): the inner BFS
  walks only bivalent states (sound because predecessors of bivalent
  states are bivalent) instead of the full e-free reachable set;
* **A2 — decision-set reverse passes**: reachable decision values are
  computed once by one backward-reachability pass per value, versus a
  fresh forward BFS per state;
* **A3 — memoized step cache** in the deterministic view: `transition(e,
  s)` is computed once per (state, task) pair, versus recomputed on
  every visit, measured on the hook search (the memo's consumer;
  exploration bypasses it).

Each ablation asserts the two variants agree, so these double as
differential tests of the optimized paths.
"""

from collections import deque
from dataclasses import replace

import pytest

from repro.analysis import (
    DeterministicSystemView,
    analyze_valence,
    explore,
    find_hook,
    reachable_decision_sets,
)
from repro.analysis.hook import Hook
from repro.protocols import delegation_consensus_system
from repro.engine import Budget


def prepared(n=3, f=1):
    system = delegation_consensus_system(n, resilience=f)
    root = system.initialization({i: i % 2 for i in range(n)}).final_state
    analysis = analyze_valence(system, root, budget=Budget(max_states=600_000))
    return system, root, analysis


# ---------------------------------------------------------------------------
# A1: bivalence-restricted vs unrestricted inner BFS
# ---------------------------------------------------------------------------


def unrestricted_e_free_search(analysis, start, e):
    """The naive Fig. 3 inner search: all e-free paths, any valence."""
    view = analysis.view
    expansions = 0
    seen = {start}
    frontier = deque([start])
    while frontier:
        state = frontier.popleft()
        expansions += 1
        step = view.step(state, e)
        if step is not None and analysis.is_bivalent(step[1]):
            return state, expansions
        for task, _, successor in analysis.graph.successors(state):
            if task == e or successor in seen:
                continue
            seen.add(successor)
            frontier.append(successor)
    return None, expansions


def test_a1_restricted_inner_search(benchmark):
    from repro.analysis.hook import _bivalent_e_free_search

    system, root, analysis = prepared()
    e = analysis.view.applicable_tasks(root)[0]
    found, _, expansions = benchmark(_bivalent_e_free_search, analysis, root, e)
    # Differential check against the unrestricted variant.
    naive_found, naive_expansions = unrestricted_e_free_search(analysis, root, e)
    assert (found is None) == (naive_found is None)
    assert expansions <= naive_expansions


def test_a1_unrestricted_inner_search(benchmark):
    system, root, analysis = prepared()
    e = analysis.view.applicable_tasks(root)[0]
    benchmark(unrestricted_e_free_search, analysis, root, e)


# ---------------------------------------------------------------------------
# A2: decision-set fixpoint vs per-state forward DFS
# ---------------------------------------------------------------------------


def naive_decision_sets(graph, view):
    """Recompute reachable decisions per state by a fresh forward BFS."""
    result = {}
    for origin in graph.states:
        seen = {origin}
        frontier = deque([origin])
        decisions = frozenset()
        while frontier:
            state = frontier.popleft()
            decisions |= view.decision_values(state)
            for _, _, successor in graph.successors(state):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        result[origin] = decisions
    return result


def test_a2_worklist_fixpoint(benchmark):
    system, root, analysis = prepared(n=2, f=0)
    graph = analysis.graph
    result = benchmark(reachable_decision_sets, graph, analysis.view)
    naive = naive_decision_sets(graph, analysis.view)
    assert len(result) == len(graph.order)
    assert all(result[graph.position[state]] == naive[state] for state in naive)


def test_a2_naive_per_state_bfs(benchmark):
    system, root, analysis = prepared(n=2, f=0)
    benchmark(naive_decision_sets, analysis.graph, analysis.view)


# ---------------------------------------------------------------------------
# A3: memoized vs uncached deterministic view
# ---------------------------------------------------------------------------


class UncachedView(DeterministicSystemView):
    """The deterministic view with the (state, task) memo disabled."""

    def step(self, state, task):
        transitions = self.system.enabled(state, task)
        if len(transitions) > 1:
            raise RuntimeError("nondeterminism")
        if not transitions:
            return None
        return (transitions[0].action, transitions[0].post)


@pytest.mark.parametrize("view_class", [DeterministicSystemView, UncachedView])
def test_a3_hook_search_with_and_without_cache(benchmark, view_class):
    # Exploration never consults the memo (``successors`` expands each
    # state once); the Fig. 3 hook search does, re-stepping the same
    # states across its outer iterations.
    system, root, analysis = prepared()
    expected, _ = find_hook(analysis, root)

    def run_search():
        return find_hook(replace(analysis, view=view_class(system)), root)[0]

    assert benchmark(run_search) == expected
