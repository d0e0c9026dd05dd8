"""Fault-tolerance tests: the engine under deterministic chaos.

Every test here runs the *production* recovery code — crash detection,
partition reassignment, bounded respawn, quarantine, pool collapse —
against faults scheduled by :class:`repro.engine.FaultPlan`.  Nothing is
mocked: scheduled kills SIGKILL real forked workers mid-round, and the
identical-graph guarantee is checked against a sequential baseline
afterwards.
"""

import pytest

from repro.analysis import DeterministicSystemView, explore
from repro.engine import (
    Budget,
    ExplorationEngine,
    FaultPlan,
    PartitionRetryExhausted,
    StateQuarantined,
    fingerprint,
    fork_available,
)
from repro.obs import MetricsRegistry, RingBufferSink, Tracer
from repro.protocols import delegation_consensus_system

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fault injection needs forked workers"
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


class TestFaultPlan:
    def test_parse_kills_and_poison(self):
        plan = FaultPlan.parse("kill=2:0,3:1 poison=deadbeef")
        assert plan.kills == frozenset({(2, 0), (3, 1)})
        assert plan.poison == frozenset({bytes.fromhex("deadbeef")})
        assert plan.enabled
        assert plan.victims_at(2) == (0,)
        assert plan.victims_at(3) == (1,)
        assert plan.victims_at(4) == ()

    def test_parse_semicolon_separated(self):
        plan = FaultPlan.parse("kill=1:0;kill=1:1")
        assert plan.victims_at(1) == (0, 1)

    @pytest.mark.parametrize(
        "spec",
        ["kill", "kill=abc", "kill=1", "poison=zz", "explode=1:0"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(kills=frozenset({(1, -1)}))
        with pytest.raises(ValueError):
            FaultPlan(poison=frozenset({"not-bytes"}))

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({"REPRO_CHAOS": "  "}) is None
        plan = FaultPlan.from_env({"REPRO_CHAOS": "kill=2:0"})
        assert plan is not None and plan.kills == frozenset({(2, 0)})

    def test_empty_plan_disabled(self):
        assert not FaultPlan().enabled


@needs_fork
class TestKillRecovery:
    def test_killed_worker_same_graph_as_sequential(
        self, instance, sequential_graph
    ):
        """The tentpole guarantee: a SIGKILLed worker mid-round changes
        nothing about the produced graph — states, order, and edges."""
        view, root = instance
        metrics = MetricsRegistry()
        engine = ExplorationEngine(
            workers=2,
            budget=Budget(),
            fault_plan=FaultPlan(kills=frozenset({(2, 0)})),
        )
        graph = engine.explore(view, root, metrics=metrics)
        assert list(graph.states) == list(sequential_graph.states)
        assert graph.edges == sequential_graph.edges
        report = engine.last_report
        assert report.worker_failures == 1
        assert report.worker_respawns == 1
        assert report.partitions_reassigned >= 1
        assert not report.quarantined
        assert not report.degraded
        counters = metrics.snapshot()["counters"]
        assert counters["engine.worker_failures"] == 1
        assert counters["engine.worker_respawns"] == 1
        assert counters["engine.partitions_reassigned"] >= 1

    def test_fingerprint_set_identical_after_recovery(
        self, instance, sequential_graph
    ):
        """The issue's headline chaos assertion, stated on digests."""
        view, root = instance
        engine = ExplorationEngine(
            workers=3,
            budget=Budget(),
            fault_plan=FaultPlan(kills=frozenset({(2, 1), (4, 0)})),
        )
        graph = engine.explore(view, root)
        recovered = {fingerprint(s) for s in graph.states}
        baseline = {fingerprint(s) for s in sequential_graph.states}
        assert recovered == baseline

    def test_respawn_emits_trace_events(self, instance):
        view, root = instance
        sink = RingBufferSink()
        tracer = Tracer(sink)
        engine = ExplorationEngine(
            workers=2,
            budget=Budget(),
            fault_plan=FaultPlan(kills=frozenset({(2, 0)})),
        )
        engine.explore(view, root, tracer=tracer)
        kinds = [event.kind for event in sink.events()]
        assert "worker_lost" in kinds
        assert "worker_respawned" in kinds
        lost = next(e for e in sink.events() if e.kind == "worker_lost")
        assert lost.data["worker"] == 0

    def test_pool_collapse_degrades_and_completes(
        self, instance, sequential_graph
    ):
        """Killing every worker with respawns disabled must not raise:
        the pool collapses to in-process expansion and still produces
        the identical graph."""
        view, root = instance
        metrics = MetricsRegistry()
        engine = ExplorationEngine(
            workers=2,
            budget=Budget(),
            max_worker_restarts=0,
            fault_plan=FaultPlan(kills=frozenset({(2, 0), (2, 1)})),
        )
        graph = engine.explore(view, root, metrics=metrics)
        assert list(graph.states) == list(sequential_graph.states)
        assert graph.edges == sequential_graph.edges
        report = engine.last_report
        assert report.degraded
        assert report.worker_failures == 2
        assert report.worker_respawns == 0
        assert metrics.snapshot()["counters"]["engine.pool_collapses"] == 1


@needs_fork
class TestQuarantine:
    def _poison_plan(self, instance):
        """Poison a mid-frontier state so it kills whoever expands it."""
        view, root = instance
        graph = explore(view, root, budget=Budget(max_states=50_000))
        victim = list(graph.states)[10]
        return FaultPlan(
            poison=frozenset({fingerprint(victim)})
        ), victim

    def test_poisoned_state_quarantined_and_surfaced(
        self, instance, sequential_graph
    ):
        view, root = instance
        plan, victim = self._poison_plan(instance)
        engine = ExplorationEngine(workers=2, budget=Budget(), fault_plan=plan)
        graph = engine.explore(view, root)
        report = engine.last_report
        assert len(report.quarantined) == 1
        assert report.quarantined[0] == fingerprint(victim).hex()
        assert report.quarantined_states == (victim,)
        # The node is kept (documented graph caveat) but gets no edges.
        assert victim in graph.states
        assert graph.edges[victim] == []
        # Quarantine is the one divergence from the sequential graph:
        # the victim's outgoing edges (and any states reachable *only*
        # through it) are dropped; everything explored matches exactly.
        assert set(graph.states) <= set(sequential_graph.states)
        for state, out in graph.edges.items():
            if state != victim:
                assert out == sequential_graph.edges[state]
        assert "QUARANTINED" in report.summary()

    def test_quarantine_disabled_raises(self, instance):
        view, root = instance
        plan, _ = self._poison_plan(instance)
        engine = ExplorationEngine(
            workers=2, budget=Budget(), fault_plan=plan, quarantine=False
        )
        with pytest.raises(StateQuarantined):
            engine.explore(view, root)

    def test_partition_retries_exhausted_raises(self, instance):
        # Poison (not a scheduled kill) so the fatal chunk is
        # deterministically in flight when the worker dies.
        view, root = instance
        plan, _ = self._poison_plan(instance)
        engine = ExplorationEngine(
            workers=2,
            budget=Budget(),
            max_partition_retries=0,
            fault_plan=plan,
        )
        with pytest.raises(PartitionRetryExhausted):
            engine.explore(view, root)


class TestEngineFaultConfig:
    def test_max_worker_restarts_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_MAX_RESTARTS", "7")
        assert ExplorationEngine(workers=2).max_worker_restarts == 7

    def test_negative_restarts_rejected(self):
        with pytest.raises(ValueError):
            ExplorationEngine(workers=2, max_worker_restarts=-1)

    def test_fault_plan_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "kill=3:1")
        engine = ExplorationEngine(workers=2)
        assert engine.fault_plan is not None
        assert engine.fault_plan.kills == frozenset({(3, 1)})

    def test_report_to_json_round_trips(self, instance):
        import json

        view, root = instance
        engine = ExplorationEngine(workers=1, budget=Budget())
        engine.explore(view, root)
        report = engine.last_report
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["states"] == report.states
        assert payload["degraded"] is False
        assert "quarantined_states" not in payload
