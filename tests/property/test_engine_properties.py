"""Property tests: the parallel engine is indistinguishable from explore().

The engine's documented guarantee is semantic equivalence with the
sequential explorer at every worker count — not merely "same number of
states" but the same graph, hence the same valence analysis downstream.
These properties drive the engine across the paper's Fig. 1/Fig. 2
instances (delegation over an atomic consensus object, delegation over
totally ordered broadcast) with randomized worker counts, budgets, and
interrupt points, and compare against the sequential ground truth.
Runs with more than one worker go through a sqlite store, as the engine
requires.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    DeterministicSystemView,
    explore,
    reachable_decision_sets,
)
from repro.engine import Budget, BudgetExhausted, ExplorationEngine
from repro.protocols import delegation_consensus_system, tob_delegation_system

FACTORIES = {
    "delegation-2": lambda: delegation_consensus_system(2, resilience=0),
    "delegation-3": lambda: delegation_consensus_system(3, resilience=1),
    "tob-2": lambda: tob_delegation_system(2, resilience=0),
}

_CACHE: dict = {}


def _instance(name):
    """(view, root, sequential graph) for a factory, computed once."""
    if name not in _CACHE:
        system = FACTORIES[name]()
        view = DeterministicSystemView(system)
        proposals = {
            endpoint: index % 2
            for index, endpoint in enumerate(system.process_ids)
        }
        root = system.initialization(proposals).final_state
        _CACHE[name] = (view, root, explore(view, root, budget=Budget(max_states=100_000)))
    return _CACHE[name]


class TestParallelEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(sorted(FACTORIES)),
        workers=st.sampled_from([2, 4]),
    )
    def test_same_graph_and_decision_sets(self, name, workers, tmp_path_factory):
        view, root, sequential = _instance(name)
        store = f"sqlite:{tmp_path_factory.mktemp('engine-store')}"
        graph = ExplorationEngine(
            workers=workers, budget=Budget(), store=store
        ).explore(view, root)
        assert set(graph.states) == set(sequential.states)
        assert list(graph.states) == list(sequential.states)  # discovery order too
        assert graph.edge_count() == sequential.edge_count()
        assert graph.edges == sequential.edges
        assert reachable_decision_sets(graph, view) == reachable_decision_sets(
            sequential, view
        )


class TestCheckpointRoundTrip:
    @settings(max_examples=10, deadline=None)
    @given(
        name=st.sampled_from(sorted(FACTORIES)),
        interrupt_after=st.integers(min_value=2, max_value=120),
        workers=st.sampled_from([1, 2]),
    )
    def test_interrupted_run_resumes_to_ground_truth(
        self, name, interrupt_after, workers, tmp_path_factory
    ):
        view, root, sequential = _instance(name)
        directory = tmp_path_factory.mktemp("engine-ckpt")
        store = (
            None if workers == 1 else f"sqlite:{tmp_path_factory.mktemp('engine-store')}"
        )
        try:
            graph = ExplorationEngine(
                workers=workers,
                budget=Budget(max_states=interrupt_after),
                store=store,
                checkpoint_dir=directory,
            ).explore(view, root)
        except BudgetExhausted:
            graph = ExplorationEngine(
                workers=workers,
                budget=Budget(),
                store=store,
                checkpoint_dir=directory,
                resume=True,
            ).explore(view, root)
        # Interrupted-and-resumed runs guarantee the same graph as the
        # sequential ground truth (set and edges; discovery order is only
        # guaranteed for uninterrupted runs).
        assert set(graph.states) == set(sequential.states)
        assert graph.edges == sequential.edges
        assert reachable_decision_sets(graph, view) == reachable_decision_sets(
            sequential, view
        )
