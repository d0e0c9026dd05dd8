"""Missing-bytes recovery: a torn visited-table slot never changes the graph.

The forked workers share one lock-free visited table, and only the first
worker to insert a digest ships its packed bytes.  A torn slot can read
"present" for a digest nobody shipped; the coordinator then re-expands
the parent in-process to recover the bytes.  The ``torn_slot`` fixture
of ``tests/conftest.py`` produces exactly that from the test side.
"""

import pytest

from repro.analysis import DeterministicSystemView, explore
from repro.engine import Budget, EngineError, ExplorationEngine, fork_available
from repro.obs import MetricsRegistry
from repro.protocols import delegation_consensus_system

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="a shared visited table needs forked workers"
)


@pytest.fixture(scope="module")
def instance():
    system = delegation_consensus_system(3, resilience=1)
    view = DeterministicSystemView(system)
    root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
    return view, root


def test_hidden_successor_is_recovered(instance, torn_slot, tmp_path):
    view, root = instance
    torn_slot.root_successor(view, root)
    metrics = MetricsRegistry()
    engine = ExplorationEngine(
        workers=2,
        budget=Budget(),
        store=f"sqlite:{tmp_path / 'store'}",
        metrics=metrics,
        progress=False,
    )
    graph = engine.explore(view, root)
    classic = explore(view, root, budget=Budget(max_states=50_000))
    assert graph.order == classic.order
    assert graph.succ == classic.succ
    recovered = engine.last_report.recovered_states
    assert recovered >= 1
    assert metrics.counter("engine.recovered_states").value == recovered


def test_digest_its_parent_cannot_produce_is_refused(instance, torn_slot, tmp_path):
    view, root = instance
    hidden = torn_slot.root_successor(view, root)
    torn_slot.forged[hidden] = bytes(reversed(hidden))
    engine = ExplorationEngine(
        workers=2,
        budget=Budget(),
        store=f"sqlite:{tmp_path / 'store'}",
        progress=False,
    )
    graph = None
    with pytest.raises(EngineError, match="not a successor of its parent"):
        graph = engine.explore(view, root)
    assert graph is None
