"""Identical graphs across the engine's loops, on mid-size instances.

The property suite (``tests/property/test_engine_properties.py``) drives
randomized small instances; these tests pin the two mid-size instances
the scaling benchmark uses — tob(3,1) and delegation(5,1), several
thousand states each — and assert the engine's strongest guarantee for
every supported configuration: the classic loop at workers=1, a sqlite
store at workers=1 and a sqlite store at workers=2 give the *identical*
graph, including discovery order, now that novel states cross the
worker pipes as packed bytes filtered through the shared visited table.
A sqlite run at workers=2 that loses a worker and is resumed from its
checkpoint gives that graph too.
"""

import pytest

from repro.analysis import DeterministicSystemView, explore
from repro.engine import (
    Budget,
    ExplorationEngine,
    WorkerLost,
    WorkerPool,
    fork_available,
)
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


def assert_same_graph(graph, sequential):
    assert list(graph.states) == list(sequential.states)  # discovery order too
    assert graph.edges == sequential.edges


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_sqlite_workers_1_identical_graph(name, tmp_path):
    view, root, sequential = _instance(name)
    engine = ExplorationEngine(
        workers=1, budget=Budget(), store=f"sqlite:{tmp_path / 'store'}"
    )
    assert_same_graph(engine.explore(view, root), sequential)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_workers_2_identical_graph(name, tmp_path):
    view, root, sequential = _instance(name)
    # The sequential run warmed the composition's transition memo, which
    # the workers inherit at fork and read from then on.
    assert view.system.memo_entries() > 0
    engine = ExplorationEngine(
        workers=2, budget=Budget(), store=f"sqlite:{tmp_path / 'store'}"
    )
    assert_same_graph(engine.explore(view, root), sequential)


@pytest.mark.skipif(not fork_available(), reason="killing a worker needs fork")
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_workers_2_kill_and_resume_identical_graph(name, tmp_path, poison):
    view, root, sequential = _instance(name)
    options = {
        "store": f"sqlite:{tmp_path / 'store'}",
        "checkpoint_dir": tmp_path / "ckpt",
        "progress": False,
    }
    poison.round_two(view, root)
    with pytest.raises(WorkerLost) as lost:
        ExplorationEngine(workers=2, budget=Budget(), **options).explore(view, root)
    assert lost.value.checkpoint is not None
    poison.digests.clear()
    engine = ExplorationEngine(workers=2, budget=Budget(), resume=True, **options)
    assert_same_graph(engine.explore(view, root), sequential)


def test_workers_2_rounds_capped_at_frontier_window(tmp_path, monkeypatch):
    """Each parallel round takes at most one frontier window of digests,
    so the store's window bounds the coordinator at any worker count;
    rounds stay consecutive FIFO prefixes, so the graph is unchanged."""
    view, root, sequential = _instance("delegation-5-1")
    rounds = []
    run_round = WorkerPool.run_round

    def spy(self, round_index, digests, *args, **kwargs):
        rounds.append(len(digests))
        return run_round(self, round_index, digests, *args, **kwargs)

    monkeypatch.setattr(WorkerPool, "run_round", spy)
    engine = ExplorationEngine(
        workers=2, budget=Budget(), store=f"sqlite:{tmp_path / 'store'}?window=64"
    )
    graph = engine.explore(view, root)
    assert rounds and max(rounds) <= 64
    assert engine.last_report.spilled_states > 0
    assert graph.order == sequential.order
    assert graph.succ == sequential.succ
