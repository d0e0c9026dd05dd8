"""Instrumentation wiring: events emitted where claimed, no-ops stay silent.

Covers the guarantees the subsystem makes at its integration points: the
explorer emits one event per expanded state, disabled tracing changes no
outcome and emits nothing, and the process-wide tracer picks up service
input dispatch.
"""

from collections import Counter

from repro.analysis import (
    DeterministicSystemView,
    explore,
    random_decision_probe,
    refute_candidate,
)
from repro.ioa import Action
from repro.obs import (
    FAILURE_INJECTED,
    NULL_TRACER,
    PHASE,
    SERVICE_INVOCATION,
    STATE_EXPLORED,
    MetricsRegistry,
    RingBufferSink,
    Tracer,
    current_tracer,
    use_tracer,
)
from repro.protocols import delegation_consensus_system, last_writer_register_system


def _small_graph_root(system):
    return system.initialization({pid: 0 for pid in system.process_ids}).final_state


class TestExplorerEvents:
    def test_one_event_per_expanded_state(self):
        system = last_writer_register_system()
        root = _small_graph_root(system)
        sink = RingBufferSink()
        graph = explore(DeterministicSystemView(system), root, tracer=Tracer(sink))
        explored = [e for e in sink.events() if e.kind == STATE_EXPLORED]
        assert len(explored) == len(graph.states)
        assert sum(e.data["edges"] for e in explored) == graph.edge_count()


class TestDisabledTracingIsInert:
    def test_null_tracer_emits_nothing(self):
        system = last_writer_register_system()
        explore(DeterministicSystemView(system), _small_graph_root(system))
        assert NULL_TRACER.events_emitted == 0

    def test_verdict_identical_with_and_without_tracing(self):
        system = delegation_consensus_system(3, 1)
        plain = refute_candidate(system)
        sink = RingBufferSink()
        traced = refute_candidate(
            delegation_consensus_system(3, 1),
            tracer=Tracer(sink),
            metrics=MetricsRegistry(),
        )
        assert traced.refuted == plain.refuted
        assert traced.mechanism == plain.mechanism
        assert traced.detail == plain.detail
        assert len(sink) > 0

    def test_probe_identical_with_and_without_tracing(self):
        system = delegation_consensus_system(3, 1)
        plain = random_decision_probe(system, seed=5)
        traced = random_decision_probe(
            system, seed=5, tracer=Tracer(RingBufferSink())
        )
        assert (plain.steps, plain.decisions) == (traced.steps, traced.decisions)


class TestPipelinePhases:
    def test_refute_emits_phase_markers(self):
        sink = RingBufferSink()
        refute_candidate(delegation_consensus_system(3, 1), tracer=Tracer(sink))
        stages = [e.data["stage"] for e in sink.events() if e.kind == PHASE]
        assert stages == ["lemma4", "hook-search", "refutation"]


class TestProcessWideTracer:
    def test_service_invocation_reported_through_current_tracer(self):
        system = delegation_consensus_system(3, 1)
        service = system.services[0]
        state = next(iter(service.start_states()))
        invoke = Action("invoke", (service.service_id, 0, ("init", 0)))
        sink = RingBufferSink()
        with use_tracer(Tracer(sink)):
            service.apply_input(state, invoke)
        events = [e for e in sink.events() if e.kind == SERVICE_INVOCATION]
        assert len(events) == 1
        assert events[0].process == 0
        assert events[0].data["service"] == service.service_id
        assert events[0].data["invocation"] == ("init", 0)

    def test_service_failure_reported_through_current_tracer(self):
        system = delegation_consensus_system(3, 1)
        service = system.services[0]
        state = next(iter(service.start_states()))
        sink = RingBufferSink()
        with use_tracer(Tracer(sink)):
            service.apply_input(state, Action("fail", (1,)))
        events = [e for e in sink.events() if e.kind == FAILURE_INJECTED]
        assert len(events) == 1
        assert events[0].data["endpoint"] == 1

    def test_without_installation_nothing_is_recorded(self):
        system = delegation_consensus_system(3, 1)
        service = system.services[0]
        state = next(iter(service.start_states()))
        before = current_tracer().events_emitted
        service.apply_input(
            state, Action("invoke", (service.service_id, 0, ("init", 0)))
        )
        assert current_tracer() is NULL_TRACER
        assert current_tracer().events_emitted == before == 0

    def test_exploration_reports_one_invocation_per_invoke_edge(self):
        system = delegation_consensus_system(3, 1)
        root = _small_graph_root(system)
        sink = RingBufferSink()
        tracer = Tracer(sink)
        with use_tracer(tracer):
            graph = explore(DeterministicSystemView(system), root, tracer=tracer)
        reported = Counter(
            (e.process, e.data["service"], e.data["invocation"])
            for e in sink.events()
            if e.kind == SERVICE_INVOCATION
        )
        invoked = Counter(
            (action.args[1], action.args[0], action.args[2])
            for out in graph.edges.values()
            for _, action, _ in out
            if action.kind == "invoke"
        )
        assert invoked
        assert reported == invoked
        explored = [e for e in sink.events() if e.kind == STATE_EXPLORED]
        assert len(explored) == len(graph.states)
        assert sum(e.data["edges"] for e in explored) == graph.edge_count()

    def test_use_tracer_restores_previous(self):
        tracer = Tracer(RingBufferSink())
        with use_tracer(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER
