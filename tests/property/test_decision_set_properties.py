"""Property test for the Lemma 4 decision-set fixpoint.

``reachable_decision_sets`` must give every state the union of the
decision values recorded anywhere reachable from it — on arbitrary
positional digraphs, including self-loops, cycles, expanded states
without edges (pruned) and states without a ``succ`` row (leaves).
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import StateGraph, reachable_decision_sets


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
    # Positions 0..expanded-1 have a succ row (possibly empty: a pruned
    # state); the rest are leaves without one, as on a frontier.
    expanded = draw(st.integers(0, size))
    arcs = []
    if expanded:
        arcs = draw(
            st.lists(st.tuples(st.integers(0, expanded - 1), node), max_size=3 * size)
        )
    values = draw(
        st.lists(st.frozensets(st.integers(0, 3), max_size=2), min_size=size, max_size=size)
    )
    # States are tuples, as composite states are.
    states = [("s", index) for index in range(size)]
    succ = [[] for _ in range(expanded)]
    for source, target in arcs:
        row = succ[source]
        row.append((f"t{len(row)}", "a", target))
    graph = StateGraph(
        root=states[0],
        order=states,
        position={state: index for index, state in enumerate(states)},
        succ=succ,
    )
    return graph, dict(zip(states, values))


@settings(max_examples=200, deadline=None)
@given(digraphs())
def test_fixpoint_equals_union_over_reachable_states(case):
    graph, values = case
    result = reachable_decision_sets(graph, _Values(values))
    assert len(result) == len(graph.order)
    for index, state in enumerate(graph.order):
        assert result[index] == _reachable_union(graph, values, state)
