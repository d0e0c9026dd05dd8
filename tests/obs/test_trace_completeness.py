"""Trace completeness under parallelism and a lost worker.

The merge guarantee, asserted on real traces: a traced ``--workers N``
exploration yields ONE merged JSONL trace in which every started span
is closed, worker spans are attributed and re-parented under their
round, and sequence numbers are monotonic.  A run whose worker dies
(killed from the test by the ``poison`` fixture) raises ``WorkerLost``
and still leaves a complete trace whose segments replay.
"""

import pytest

from repro.analysis import DeterministicSystemView
from repro.engine import Budget, ExplorationEngine, WorkerLost, fork_available
from repro.obs import (
    JsonlSink,
    RingBufferSink,
    Tracer,
    assemble_spans,
)
from repro.obs.replay import load_events, split_runs, task_sequence
from repro.protocols import delegation_consensus_system

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="worker telemetry merge needs forked workers"
)


@pytest.fixture(scope="module")
def instance():
    system = delegation_consensus_system(3, resilience=1)
    view = DeterministicSystemView(system)
    root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
    return view, root


def traced_exploration(instance, tmp_path, workers=2):
    view, root = instance
    path = tmp_path / "trace.jsonl"
    with JsonlSink(path) as sink:
        tracer = Tracer(sink)
        engine = ExplorationEngine(
            workers=workers,
            budget=Budget(max_states=50_000),
            store=f"sqlite:{tmp_path / 'store'}",
            tracer=tracer,
        )
        graph = engine.explore(view, root)
    return graph, engine, load_events(path)


@needs_fork
class TestParallelTraceMerge:
    def test_every_started_span_is_closed(self, instance, tmp_path):
        _, _, events = traced_exploration(instance, tmp_path)
        records = assemble_spans(events)
        assert records, "traced run produced no spans"
        assert all(record.status != "open" for record in records)

    def test_worker_spans_attributed_and_nested(self, instance, tmp_path):
        graph, _, events = traced_exploration(instance, tmp_path)
        records = assemble_spans(events)
        by_id = {record.span_id: record for record in records}
        partitions = [r for r in records if r.name == "partition"]
        assert partitions
        workers_seen = set()
        for partition in partitions:
            assert "worker" in partition.attrs
            assert "round" in partition.attrs
            workers_seen.add(partition.attrs["worker"])
            assert by_id[partition.parent_id].name == "round"
        assert workers_seen == {0, 1}
        # Every frontier state was expanded inside some worker partition.
        expanded = sum(p.attrs.get("states", 0) for p in partitions)
        assert expanded == len(graph.states)

    def test_merged_seq_is_monotonic(self, instance, tmp_path):
        _, _, events = traced_exploration(instance, tmp_path)
        seqs = [event.seq for event in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_span_ids_never_collide(self, instance, tmp_path):
        _, _, events = traced_exploration(instance, tmp_path)
        records = assemble_spans(events)
        assert len({record.span_id for record in records}) == len(records)


@needs_fork
class TestChaosTraceCompleteness:
    def test_killed_worker_leaves_no_open_spans(self, instance, tmp_path, poison):
        """A run that raises WorkerLost still closes every span: the lost
        ``round`` and ``engine.run`` end with status ``error``, and worker
        batches are self-contained, so nothing of theirs is half open."""
        view, root = instance
        poison.round_two(view, root)
        with pytest.raises(WorkerLost):
            traced_exploration(instance, tmp_path)
        records = assemble_spans(load_events(tmp_path / "trace.jsonl"))
        assert records
        assert all(record.status != "open" for record in records)
        errors = {
            (record.name, record.attrs.get("round"))
            for record in records
            if record.status == "error"
        }
        assert errors == {("round", 2), ("engine.run", None)}

    def test_surviving_segments_still_replay(self, tmp_path, poison):
        """A pipeline stopped by a lost worker, traced after a clean one
        into the same file, leaves a trace whose run segments still
        split and yield task sequences."""
        from repro.analysis import refute_candidate

        system = delegation_consensus_system(3, resilience=1)
        path = tmp_path / "pipeline.jsonl"
        with JsonlSink(path) as sink:
            tracer = Tracer(sink)

            def pipeline():
                engine = ExplorationEngine(
                    workers=2,
                    budget=Budget(max_states=50_000),
                    store=f"sqlite:{tmp_path / 'store'}",
                )
                return refute_candidate(system, tracer=tracer, engine=engine)

            assert pipeline().refuted
            # The Lemma 4 chain explores the all-zero initialization first.
            root = system.initialization({0: 0, 1: 0, 2: 0}).final_state
            poison.round_two(DeterministicSystemView(system), root)
            with pytest.raises(WorkerLost):
                pipeline()
        events = load_events(path)
        records = assemble_spans(events)
        assert all(record.status != "open" for record in records)
        assert "worker_lost" in {event.kind for event in events}
        stages = [event.data["stage"] for event in events if event.kind == "phase"]
        assert stages == ["lemma4", "hook-search", "refutation", "lemma4"]
        segments = split_runs(events)
        assert segments
        assert any(task_sequence(segment) for segment in segments)


class TestLocalFallbackTelemetry:
    def test_single_worker_run_has_engine_spans(self, instance, tmp_path):
        """Sequential runs get the coordinator-side spans (engine.run,
        checkpoint) even without a pool."""
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
