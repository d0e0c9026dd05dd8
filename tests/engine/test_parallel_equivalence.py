"""Workers=2 identical-graph equivalence under the packed wire protocol.

The property suite (``tests/property/test_engine_properties.py``) drives
randomized small instances; these tests pin the two mid-size instances
the scaling benchmark uses — tob(3,1) and delegation(5,1), several
thousand states each — and assert the engine's strongest guarantee at
workers=2: the *identical* graph to the sequential explorer, including
discovery order, now that novel states cross the worker pipes as packed
bytes filtered through the shared visited table and the coordinator
keeps the graph in an engine-owned memory store.
"""

import pytest

from repro.analysis import DeterministicSystemView, explore
from repro.engine import Budget, ExplorationEngine
from repro.protocols import delegation_consensus_system, tob_delegation_system

FACTORIES = {
    "tob-3-1": lambda: tob_delegation_system(3, resilience=1),
    "delegation-5-1": lambda: delegation_consensus_system(5, resilience=1),
}

_CACHE: dict = {}


def _instance(name):
    if name not in _CACHE:
        system = FACTORIES[name]()
        view = DeterministicSystemView(system)
        proposals = {
            endpoint: index % 2
            for index, endpoint in enumerate(system.process_ids)
        }
        root = system.initialization(proposals).final_state
        sequential = explore(view, root, budget=Budget(max_states=500_000))
        _CACHE[name] = (view, root, sequential)
    return _CACHE[name]


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_workers_2_identical_graph(name):
    view, root, sequential = _instance(name)
    # The sequential run warmed the composition's transition memo, which
    # the workers inherit at fork and read from then on.
    assert view.system.memo_entries() > 0
    with pytest.warns(RuntimeWarning, match="without a store"):
        engine = ExplorationEngine(workers=2, budget=Budget())
    graph = engine.explore(view, root)
    assert list(graph.states) == list(sequential.states)  # discovery order too
    assert graph.edges == sequential.edges


def test_workers_2_audit_mode_rejected():
    """Collision-audit mode keeps full states in one process: asking for
    it with workers is refused up front, like audit with a store."""
    with pytest.raises(ValueError, match="audit"):
        ExplorationEngine(workers=2, budget=Budget(), audit=True)

