"""Property test for the Lemma 4 decision-set fixpoint.

``reachable_decision_sets`` must give every state the union of the
decision values recorded anywhere reachable from it — on arbitrary
digraphs, including self-loops, cycles and states without an edges
entry (leaves and pruned states).
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import StateGraph, StateSet, reachable_decision_sets


class _Values:
    """A stand-in view: each state's recorded decision values."""

    def __init__(self, values):
        self.values = values

    def decision_values(self, state):
        return self.values[state]


def _reachable_union(graph, values, origin):
    seen = {origin}
    frontier = deque([origin])
    union = set()
    while frontier:
        state = frontier.popleft()
        union |= values[state]
        for _, _, successor in graph.successors(state):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return frozenset(union)


@st.composite
def digraphs(draw):
    size = draw(st.integers(1, 25))
    node = st.integers(0, size - 1)
    arcs = draw(st.lists(st.tuples(node, node), max_size=3 * size))
    values = draw(
        st.lists(st.frozensets(st.integers(0, 3), max_size=2), min_size=size, max_size=size)
    )
    # States are tuples, as composite states are; only some have an
    # edges entry.
    states = [("s", index) for index in range(size)]
    expanded = draw(st.sets(node))
    edges = {states[index]: [] for index in sorted(expanded)}
    for source, target in arcs:
        out = edges.setdefault(states[source], [])
        out.append((f"t{len(out)}", "a", states[target]))
    graph = StateGraph(root=states[0], states=StateSet(states), edges=edges)
    return graph, dict(zip(states, values))


@settings(max_examples=200, deadline=None)
@given(digraphs())
def test_fixpoint_equals_union_over_reachable_states(case):
    graph, values = case
    result = reachable_decision_sets(graph, _Values(values))
    assert list(result) == list(graph.states)
    for state in graph.states:
        assert result[state] == _reachable_union(graph, values, state)
