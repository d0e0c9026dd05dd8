"""Fail-stop worker pool: a killed worker ends the run, resume finishes it.

Workers are killed from the test side only (the ``poison`` fixture of
``tests/conftest.py``): a forked worker asked to expand a poisoned state
exits hard, so the engine's real loss detection runs against a real
process death.  The pool must raise
:class:`~repro.engine.WorkerLost` naming the worker and the round,
leave no child process or shared-memory table behind, and checkpoint
so that a resumed run reproduces the sequential graph exactly.
"""

import multiprocessing
from multiprocessing import shared_memory

import pytest

from repro.analysis import DeterministicSystemView, Valence, explore, refute_candidate
from repro.engine import (
    Budget,
    ExplorationEngine,
    WorkerLost,
    fingerprint,
    fork_available,
)
from repro.engine import parallel
from repro.obs import RingBufferSink, Tracer
from repro.protocols import delegation_consensus_system

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="killing a worker needs forked workers"
)


@pytest.fixture(scope="module")
def instance():
    system = delegation_consensus_system(3, resilience=1)
    view = DeterministicSystemView(system)
    root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
    return view, root


@pytest.fixture(scope="module")
def sequential_graph(instance):
    view, root = instance
    return explore(view, root, budget=Budget(max_states=50_000))


def lose_worker(instance, poison, **options) -> WorkerLost:
    """Explore at 2 workers with a round-2 state of worker 0 poisoned.

    ``options`` must carry the ``store`` the pool runs on."""
    view, root = instance
    poison.round_two(view, root)
    engine = ExplorationEngine(workers=2, budget=Budget(), progress=False, **options)
    with pytest.raises(WorkerLost) as excinfo:
        engine.explore(view, root)
    assert multiprocessing.active_children() == []
    poison.digests.clear()
    return excinfo.value


def assert_same_graph(graph, sequential_graph):
    assert list(graph.states) == list(sequential_graph.states)
    assert graph.edges == sequential_graph.edges


@needs_fork
class TestKillRecovery:
    def test_killed_worker_same_graph_as_sequential(
        self, instance, sequential_graph, poison, tmp_path
    ):
        """sqlite store: the loss checkpoints delta segments, and a fresh
        engine resuming them produces the classic graph."""
        view, root = instance
        options = {
            "store": f"sqlite:{tmp_path / 'store'}",
            "checkpoint_dir": tmp_path / "ckpt",
        }
        lost = lose_worker(instance, poison, **options)
        assert (lost.worker, lost.round_index) == (0, 2)
        assert lost.checkpoint.is_dir()  # the delta-segment directory
        assert f"--resume {tmp_path / 'ckpt'}" in lost.resume_command
        engine = ExplorationEngine(
            workers=2, budget=Budget(), resume=True, progress=False, **options
        )
        assert_same_graph(engine.explore(view, root), sequential_graph)

    def test_fingerprint_set_identical_after_recovery(
        self, instance, sequential_graph, poison, tmp_path
    ):
        """The segments a loss leaves do not depend on the worker count:
        resuming them in one process reproduces every digest and edge."""
        view, root = instance
        options = {
            "store": f"sqlite:{tmp_path / 'store'}",
            "checkpoint_dir": tmp_path / "ckpt",
        }
        lost = lose_worker(instance, poison, **options)
        assert (lost.worker, lost.round_index) == (0, 2)
        assert lost.checkpoint.is_dir()
        engine = ExplorationEngine(
            workers=1, budget=Budget(), resume=True, progress=False, **options
        )
        graph = engine.explore(view, root)
        assert {fingerprint(s) for s in graph.states} == {
            fingerprint(s) for s in sequential_graph.states
        }
        assert_same_graph(graph, sequential_graph)

    def test_loss_without_checkpoint_dir_carries_none(
        self, instance, poison, tmp_path
    ):
        lost = lose_worker(instance, poison, store=f"sqlite:{tmp_path}")
        assert lost.checkpoint is None and lost.resume_command is None
        assert str(lost) == "worker 0 lost in round 2"

    def test_loss_unlinks_the_shared_table(
        self, instance, poison, monkeypatch, tmp_path
    ):
        names = []
        start = parallel.WorkerPool.start

        def recording_start(pool):
            started = start(pool)
            names.append(pool.visited._shm.name)
            return started

        monkeypatch.setattr(parallel.WorkerPool, "start", recording_start)
        lose_worker(instance, poison, store=f"sqlite:{tmp_path}")
        assert len(names) == 1
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=names[0])

    def test_loss_emits_worker_lost_event(self, instance, poison, tmp_path):
        sink = RingBufferSink()
        lose_worker(
            instance, poison, store=f"sqlite:{tmp_path}", tracer=Tracer(sink)
        )
        lost = [event for event in sink.events() if event.kind == "worker_lost"]
        assert [(e.data["worker"], e.data["round"]) for e in lost] == [(0, 2)]


@needs_fork
def test_poisoned_pipeline_raises_instead_of_a_wrong_verdict(poison, tmp_path):
    """A worker that dies on every bivalent Lemma 4 root must stop the
    pipeline; skipping those roots would read them as blocked and
    refute the candidate with the wrong mechanism."""
    system = delegation_consensus_system(4, resilience=1)
    clean = refute_candidate(system)
    bivalent = [
        entry for entry in clean.lemma4.chain if entry.valence is Valence.BIVALENT
    ]
    assert len(bivalent) == 3
    poison.digests.update(
        fingerprint(entry.execution.final_state) for entry in bivalent
    )
    engine = ExplorationEngine(
        workers=2, budget=Budget(), store=f"sqlite:{tmp_path}", progress=False
    )
    with pytest.raises(WorkerLost):
        refute_candidate(system, engine=engine)
    assert multiprocessing.active_children() == []


class TestEngineFaultConfig:
    def test_report_to_json_round_trips(self, instance):
        import json

        view, root = instance
        engine = ExplorationEngine(workers=1, budget=Budget())
        engine.explore(view, root)
        report = engine.last_report
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["states"] == report.states
        assert payload["degraded"] is False
        for removed in ("worker_failures", "worker_respawns", "quarantined"):
            assert removed not in payload
