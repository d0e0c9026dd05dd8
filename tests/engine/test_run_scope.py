"""Every exploration releases what it acquired, on every exit path.

The engine's run scope owns each exploration's ``engine.run`` span, its
store and its checkpoint.  Whichever way an exploration ends — completed
``explore`` or ``scan``, budget exhaustion, a raising ``cancel`` hook, a
resume that fails during setup — every store the engine opened is closed
exactly once, no scratch store directory is left behind, and exactly one
``engine.run`` span ends with the matching status.
"""

import shutil
import tempfile
from collections import Counter

import pytest

from repro.analysis import DeterministicSystemView
from repro.engine import (
    Budget,
    BudgetExhausted,
    CheckpointError,
    ExplorationEngine,
)
from repro.engine.store import SQLiteStore
from repro.obs import RingBufferSink, Tracer, assemble_spans
from repro.protocols import delegation_consensus_system


@pytest.fixture
def instance():
    system = delegation_consensus_system(3, resilience=1)
    view = DeterministicSystemView(system)
    root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
    return view, root


@pytest.fixture
def store_spy(monkeypatch):
    """Counts ``SQLiteStore`` opens, and ``close`` calls per store."""
    opened = []
    closes = Counter()
    init, close = SQLiteStore.__init__, SQLiteStore.close

    def spy_init(self, config):
        opened.append(self)
        init(self, config)

    def spy_close(self):
        closes[id(self)] += 1
        close(self)

    monkeypatch.setattr(SQLiteStore, "__init__", spy_init)
    monkeypatch.setattr(SQLiteStore, "close", spy_close)
    return opened, closes


def explore_completes(view, root, tmp_path, tracer):
    ExplorationEngine(store="sqlite", tracer=tracer).explore(view, root)


def scan_completes(view, root, tmp_path, tracer):
    ExplorationEngine(store="sqlite", tracer=tracer).scan(view, root)


def budget_exhausted(view, root, tmp_path, tracer):
    engine = ExplorationEngine(
        store="sqlite", budget=Budget(max_states=50), tracer=tracer
    )
    with pytest.raises(BudgetExhausted):
        engine.explore(view, root)


def cancel_raises(view, root, tmp_path, tracer):
    def cancel():
        raise OSError("cancel hook failed")

    engine = ExplorationEngine(store="sqlite", cancel=cancel, tracer=tracer)
    with pytest.raises(OSError, match="cancel hook failed"):
        engine.scan(view, root)


def resume_without_its_store(view, root, tmp_path, tracer):
    store, checkpoints = tmp_path / "store", tmp_path / "ck"
    with pytest.raises(BudgetExhausted):
        ExplorationEngine(
            store=f"sqlite:{store}",
            budget=Budget(max_states=50),
            checkpoint_dir=checkpoints,
        ).explore(view, root)
    shutil.rmtree(store)
    engine = ExplorationEngine(
        store=f"sqlite:{store}",
        checkpoint_dir=checkpoints,
        resume=True,
        tracer=tracer,
    )
    with pytest.raises(CheckpointError, match="store holds 0"):
        engine.explore(view, root)
    assert engine.last_report is None


@pytest.mark.parametrize(
    "exit_path, status",
    [
        (explore_completes, "ok"),
        (scan_completes, "ok"),
        (budget_exhausted, "exhausted"),
        (cancel_raises, "error"),
        (resume_without_its_store, "error"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_every_exit_releases_the_run(
    instance, tmp_path, monkeypatch, store_spy, exit_path, status
):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    opened, closes = store_spy
    sink = RingBufferSink()
    view, root = instance
    exit_path(view, root, tmp_path, Tracer(sink))
    assert opened
    assert [closes[id(store)] for store in opened] == [1] * len(opened)
    assert not list(scratch.glob("repro-sqlite-*"))
    runs = [
        record.status
        for record in assemble_spans(sink.events())
        if record.name == "engine.run"
    ]
    assert runs == [status]
