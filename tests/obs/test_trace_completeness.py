"""Trace completeness of a traced exploration.

Asserted on real traces: a traced exploration through a sqlite store
with checkpointing yields one JSONL trace in which every started span is
closed, sequence numbers are monotonic and span ids never collide.  A
run that stops early still ends its spans; ``tests/engine/
test_run_scope.py`` checks the ``engine.run`` status on every exit path.
"""

import pytest

from repro.analysis import DeterministicSystemView
from repro.engine import Budget, ExplorationEngine
from repro.obs import (
    JsonlSink,
    RingBufferSink,
    Tracer,
    assemble_spans,
)
from repro.obs.replay import load_events
from repro.protocols import delegation_consensus_system


@pytest.fixture(scope="module")
def instance():
    system = delegation_consensus_system(3, resilience=1)
    view = DeterministicSystemView(system)
    root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
    return view, root


def traced_exploration(instance, tmp_path):
    view, root = instance
    path = tmp_path / "trace.jsonl"
    with JsonlSink(path) as sink:
        tracer = Tracer(sink)
        engine = ExplorationEngine(
            budget=Budget(max_states=50_000),
            store=f"sqlite:{tmp_path / 'store'}",
            checkpoint_dir=tmp_path / "ck",
            flush_interval=100,
            tracer=tracer,
        )
        graph = engine.explore(view, root)
    return graph, engine, load_events(path)


class TestStoreTrace:
    def test_every_started_span_is_closed(self, instance, tmp_path):
        _, _, events = traced_exploration(instance, tmp_path)
        records = assemble_spans(events)
        assert {"engine.run", "checkpoint"} <= {record.name for record in records}
        assert all(record.status != "open" for record in records)

    def test_seq_is_monotonic(self, instance, tmp_path):
        _, _, events = traced_exploration(instance, tmp_path)
        seqs = [event.seq for event in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_span_ids_never_collide(self, instance, tmp_path):
        _, _, events = traced_exploration(instance, tmp_path)
        records = assemble_spans(events)
        assert len({record.span_id for record in records}) == len(records)


class TestLocalFallbackTelemetry:
    def test_single_worker_run_has_engine_spans(self, instance, tmp_path):
        """A run without a store gets its ``engine.run`` span too."""
        view, root = instance
        sink = RingBufferSink()
        tracer = Tracer(sink)
        engine = ExplorationEngine(
            workers=1, budget=Budget(max_states=50_000), tracer=tracer
        )
        engine.explore(view, root)
        records = assemble_spans(sink.events())
        names = {record.name for record in records}
        assert "engine.run" in names
        assert all(record.status == "ok" for record in records)
