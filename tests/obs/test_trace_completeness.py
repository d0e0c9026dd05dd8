"""Trace completeness under parallelism and chaos.

The merge guarantee, asserted on real traces: a traced ``--workers N``
exploration — including one whose workers are SIGKILLed mid-round by a
:class:`~repro.engine.FaultPlan` — yields ONE merged JSONL trace in
which every started span is closed (``ok`` or ``lost``), worker spans
are attributed and re-parented under their round, sequence numbers are
monotonic, and the surviving segments still replay.
"""

import pytest

from repro.analysis import DeterministicSystemView
from repro.engine import Budget, ExplorationEngine, FaultPlan, fork_available
from repro.obs import (
    JsonlSink,
    RingBufferSink,
    Tracer,
    assemble_spans,
    summarize_spans,
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


def traced_exploration(instance, tmp_path, fault_plan=None, workers=2):
    view, root = instance
    path = tmp_path / "trace.jsonl"
    with JsonlSink(path) as sink:
        tracer = Tracer(sink)
        engine = ExplorationEngine(
            workers=workers,
            budget=Budget(max_states=50_000),
            fault_plan=fault_plan,
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
    def test_killed_worker_leaves_no_open_spans(self, instance, tmp_path):
        """A SIGKILLed worker's merged trace still closes every span:
        flushed batches survive as-is, anything unflushed simply never
        started (batches are self-contained)."""
        _, engine, events = traced_exploration(
            instance, tmp_path, fault_plan=FaultPlan(kills=frozenset({(2, 0)}))
        )
        assert engine.last_report.worker_failures == 1
        records = assemble_spans(events)
        assert records
        assert all(record.status != "open" for record in records)

    def test_dying_chunk_gets_synthesized_lost_span(self, instance, tmp_path):
        """A chunk that dies with its worker (poison guarantees it was
        in flight) is closed parent-side as a ``status="lost"``
        partition span attributed to the worker that took it down."""
        from repro.engine import fingerprint
        from repro.analysis import explore

        view, root = instance
        graph = explore(view, root, budget=Budget(max_states=50_000))
        victim = list(graph.states)[10]
        plan = FaultPlan(poison=frozenset({fingerprint(victim)}))
        _, engine, events = traced_exploration(instance, tmp_path, fault_plan=plan)
        assert engine.last_report.worker_failures >= 1
        records = assemble_spans(events)
        assert all(record.status != "open" for record in records)
        lost = [r for r in records if r.status == "lost"]
        assert lost, "no lost span synthesized for the dying chunk"
        for record in lost:
            assert record.name == "partition"
            assert "worker" in record.attrs
        profile = summarize_spans(records)
        assert profile["partition"]["statuses"].get("lost", 0) >= 1

    def test_double_kill_trace_still_complete(self, instance, tmp_path):
        _, engine, events = traced_exploration(
            instance,
            tmp_path,
            fault_plan=FaultPlan(kills=frozenset({(2, 1), (3, 0)})),
            workers=3,
        )
        assert engine.last_report.worker_failures == 2
        records = assemble_spans(events)
        assert all(record.status != "open" for record in records)
        assert [e.seq for e in events] == sorted(e.seq for e in events)

    def test_surviving_segments_still_replay(self, instance, tmp_path):
        """Span events ride the same stream without breaking replay
        segmentation: a traced chaos run's trace still splits into runs
        and yields task sequences."""
        from repro.analysis import refute_candidate

        system = delegation_consensus_system(3, resilience=1)
        path = tmp_path / "pipeline.jsonl"
        with JsonlSink(path) as sink:
            tracer = Tracer(sink)
            engine = ExplorationEngine(
                workers=2,
                budget=Budget(max_states=50_000),
                fault_plan=FaultPlan(kills=frozenset({(2, 0)})),
            )
            verdict = refute_candidate(system, tracer=tracer, engine=engine)
        assert verdict.refuted
        events = load_events(path)
        records = assemble_spans(events)
        assert all(record.status != "open" for record in records)
        stages = [
            event.data["stage"] for event in events if event.kind == "phase"
        ]
        assert stages == ["lemma4", "hook-search", "refutation"]
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
