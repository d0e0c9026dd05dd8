"""Unit tests for the exhaustive explorer and decision-set fixpoint."""

import pytest

from repro.analysis import (
    DeterministicSystemView,
    ExplorationBudget,
    StateGraph,
    explore,
    find_state,
    reachable_decision_sets,
    shortest_task_path,
)
from repro.protocols import delegation_consensus_system
from repro.engine import Budget


@pytest.fixture
def explored():
    system = delegation_consensus_system(2, resilience=0)
    view = DeterministicSystemView(system)
    root = system.initialization({0: 0, 1: 1}).final_state
    graph = explore(view, root, budget=Budget(max_states=50_000))
    return system, view, root, graph


class TestExplore:
    def test_graph_contains_root(self, explored):
        _, _, root, graph = explored
        assert root in graph.states

    def test_edges_closed_under_states(self, explored):
        _, _, _, graph = explored
        for state, out in graph.edges.items():
            assert state in graph.states
            for _, _, successor in out:
                assert successor in graph.states

    def test_budget_enforced(self, explored):
        system, view, root, _ = explored
        with pytest.raises(ExplorationBudget):
            explore(view, root, budget=Budget(max_states=3))

    def test_prune_cuts_exploration(self, explored):
        system, view, root, full = explored

        def decided(state):
            return bool(view.decisions(state))

        pruned = explore(view, root, budget=Budget(max_states=50_000), prune=decided)
        assert len(pruned) <= len(full)
        # Pruned states have no outgoing edges.
        for state in pruned.states:
            if decided(state) and state in pruned.edges:
                assert pruned.edges[state] == []

    def test_edge_count(self, explored):
        _, _, _, graph = explored
        assert graph.edge_count() == sum(len(v) for v in graph.edges.values())
        assert graph.edge_count() > len(graph)  # multiple tasks per state


class TestDecisionSets:
    def test_root_reaches_both_decisions(self, explored):
        # Mixed-input delegation is schedule-dependent: bivalent root.
        _, view, root, graph = explored
        decisions = reachable_decision_sets(graph, view)
        assert decisions[graph.position[root]] == frozenset({0, 1})

    def test_decided_states_are_sinks_of_their_value(self, explored):
        system, view, _, graph = explored
        decisions = reachable_decision_sets(graph, view)
        assert len(decisions) == len(graph.order)
        for state, decided in zip(graph.order, decisions):
            recorded = view.decision_values(state)
            if recorded:
                # Everything reachable keeps the recorded value.
                assert recorded <= decided

    def test_monotone_along_edges(self, explored):
        # decision set of a state is the union over its successors plus own.
        _, view, _, graph = explored
        decisions = reachable_decision_sets(graph, view)
        for index, rows in enumerate(graph.succ):
            union = view.decision_values(graph.order[index])
            for _, _, successor in rows:
                union |= decisions[successor]
            assert decisions[index] == union

    def test_hashes_no_state(self):
        # The passes run on positions: a state's hash is never taken.
        class Counted:
            hashes = 0

            def __init__(self, decided):
                self.decided = decided

            def __hash__(self):
                Counted.hashes += 1
                return id(self)

        class AttributeView:
            def decision_values(self, state):
                return state.decided

        order = [Counted(frozenset()) for _ in range(5)] + [
            Counted(frozenset({0})),
            Counted(frozenset({1})),
        ]
        # A cycle 0 -> 1 -> 2 -> 0, with exits 2 -> 5 (decides 0) and
        # 4 -> 6 (decides 1); 3 is a sink that decides nothing.
        succ = [[("t", "a", 1)], [("t", "a", 2)], [("t", "a", 0), ("t", "a", 5)]]
        succ += [[], [("t", "a", 6)], [], []]
        graph = StateGraph(root=order[0], order=order, succ=succ)
        decisions = reachable_decision_sets(graph, AttributeView())
        assert Counted.hashes == 0
        assert decisions == [
            frozenset({0}),
            frozenset({0}),
            frozenset({0}),
            frozenset(),
            frozenset({1}),
            frozenset({0}),
            frozenset({1}),
        ]


class TestSearchHelpers:
    def test_find_state(self, explored):
        _, view, _, graph = explored
        decided = find_state(graph, lambda s: bool(view.decisions(s)))
        assert decided is not None
        assert view.decisions(decided)

    def test_find_state_none(self, explored):
        _, _, _, graph = explored
        assert find_state(graph, lambda s: False) is None

    def test_shortest_task_path_reaches_target(self, explored):
        _, view, root, graph = explored
        path = shortest_task_path(
            graph, root, lambda s: 0 in view.decisions(s)
        )
        assert path is not None
        state = root
        for task, action, post in path:
            step = view.step(state, task)
            assert step == (action, post)
            state = post
        assert 0 in view.decisions(state)

    def test_shortest_task_path_empty_when_source_matches(self, explored):
        _, _, root, graph = explored
        assert shortest_task_path(graph, root, lambda s: s == root) == []

    def test_shortest_task_path_none_when_unreachable(self, explored):
        _, _, root, graph = explored
        assert shortest_task_path(graph, root, lambda s: s == "nowhere") is None
