"""Unit tests for the complete system C (Sections 2.2.2-2.2.3)."""

import pytest

from repro.analysis import DeterministicSystemView
from repro.engine import ExplorationEngine
from repro.ioa import Action, RoundRobinScheduler, fail, init, invoke, run
from repro.services import CanonicalAtomicObject, CanonicalRegister
from repro.system import DistributedSystem, IdleProcess, ScriptProcess
from repro.protocols import (
    DelegationProcess,
    delegation_consensus_system,
    tob_delegation_system,
)
from repro.types import binary_consensus_type


class TestConstruction:
    def test_validates_service_endpoints_are_processes(self):
        service = CanonicalAtomicObject(
            binary_consensus_type(), endpoints=(0, 9), resilience=0, service_id="c"
        )
        with pytest.raises(ValueError, match="endpoint 9"):
            DistributedSystem([IdleProcess(0)], services=[service])

    def test_validates_process_connections_exist(self):
        process = ScriptProcess(0, [], connections=("ghost",))
        with pytest.raises(ValueError, match="unknown service"):
            DistributedSystem([process])

    def test_validates_process_is_endpoint_of_connection(self):
        service = CanonicalAtomicObject(
            binary_consensus_type(), endpoints=(1,), resilience=0, service_id="c"
        )
        process0 = ScriptProcess(0, [], connections=("c",))
        with pytest.raises(ValueError, match="not an endpoint"):
            DistributedSystem([process0, IdleProcess(1)], services=[service])

    def test_duplicate_service_ids_rejected(self):
        a = CanonicalAtomicObject(
            binary_consensus_type(), (0,), 0, service_id="dup", name="a"
        )
        b = CanonicalAtomicObject(
            binary_consensus_type(), (0,), 0, service_id="dup", name="b"
        )
        with pytest.raises(ValueError, match="duplicate"):
            DistributedSystem([IdleProcess(0)], services=[a, b])

    def test_index_sets(self):
        system = delegation_consensus_system(3, resilience=1)
        assert system.process_ids == (0, 1, 2)
        assert system.service_ids == ("cons",)
        assert system.register_ids == ()


class TestParticipants:
    def test_invoke_has_process_and_service(self):
        system = delegation_consensus_system(2, resilience=0)
        action = invoke("cons", 1, ("init", 0))
        names = {c.name for c in system.participants(action)}
        assert names == {"P[1]", "atomic[cons]"}

    def test_fail_has_process_and_connected_services(self):
        system = delegation_consensus_system(2, resilience=0)
        names = {c.name for c in system.participants(fail(0))}
        assert names == {"P[0]", "atomic[cons]"}

    def test_non_fail_actions_have_at_most_two_participants(self):
        system = delegation_consensus_system(3, resilience=1)
        state = system.initialization({0: 0, 1: 1, 2: 0}).final_state
        for task in system.tasks():
            for transition in system.enabled(state, task):
                if transition.action.kind == "fail":
                    continue
                assert len(system.participants(transition.action)) <= 2

    def test_no_two_services_share_an_action(self):
        register = CanonicalRegister("r", (0, 1), values=(0, 1))
        service = CanonicalAtomicObject(
            binary_consensus_type(), (0, 1), 0, service_id="c"
        )
        p0 = ScriptProcess(0, [], connections=("r", "c"), input_values=(0, 1))
        p1 = ScriptProcess(1, [], connections=("r", "c"), input_values=(0, 1))
        system = DistributedSystem([p0, p1], services=[service], registers=[register])
        probe_actions = [
            invoke("r", 0, ("read",)),
            invoke("c", 0, ("init", 1)),
            Action("perform", ("r", 0)),
            Action("perform", ("c", 0)),
        ]
        for action in probe_actions:
            services_sharing = [
                c
                for c in (system.services + system.registers)
                if c.in_signature(action)
            ]
            assert len(services_sharing) <= 1


class TestStateProjections:
    def test_process_state_projection(self):
        system = delegation_consensus_system(2, resilience=0)
        state = system.some_start_state()
        assert system.process_state(state, 0).locals == ("idle",)

    def test_service_projections(self):
        system = delegation_consensus_system(2, resilience=0)
        state = system.initialization({0: 1, 1: 0}).final_state
        execution = run(system, RoundRobinScheduler(), max_steps=2, start=state)
        final = execution.final_state
        assert system.service_val(final, "cons") in (
            frozenset(),
            frozenset({0}),
            frozenset({1}),
        )
        inv, resp = system.service_buffer(final, "cons", 0)
        assert isinstance(inv, tuple) and isinstance(resp, tuple)


class TestInitializations:
    def test_initialization_applies_one_init_per_process(self):
        system = delegation_consensus_system(3, resilience=1)
        execution = system.initialization({0: 0, 1: 1, 2: 0})
        assert [a.kind for a in execution.actions] == ["init"] * 3
        assert execution.is_failure_free()

    def test_initialization_requires_all_endpoints(self):
        system = delegation_consensus_system(3, resilience=1)
        with pytest.raises(ValueError, match="missing"):
            system.initialization({0: 0})

    def test_all_initializations_enumerates_value_vectors(self):
        system = delegation_consensus_system(2, resilience=0)
        combos = list(system.all_initializations())
        assert len(combos) == 4
        assignments = {tuple(sorted(a.items())) for a, _ in combos}
        assert ((0, 0), (1, 1)) in assignments


class TestFailuresAndDecisions:
    def test_fail_process_updates_process_and_services(self):
        system = delegation_consensus_system(2, resilience=0)
        state = system.fail_process(system.some_start_state(), 1)
        assert system.failed_processes(state) == frozenset({1})
        assert 1 in system.service_state(state, "cons").failed

    def test_decisions_empty_initially(self):
        system = delegation_consensus_system(2, resilience=0)
        assert system.decisions(system.some_start_state()) == {}

    def test_decisions_after_full_run(self):
        system = delegation_consensus_system(2, resilience=0)
        start = system.initialization({0: 1, 1: 1}).final_state
        execution = run(system, RoundRobinScheduler(), max_steps=60, start=start)
        decisions = system.decisions(execution.final_state)
        assert decisions == {0: 1, 1: 1}
        assert system.decision_values(execution.final_state) == frozenset({1})

    def test_task_partition_helpers(self):
        system = delegation_consensus_system(2, resilience=0)
        assert len(system.process_tasks()) == 2
        assert len(system.service_tasks()) == 4  # perform+output per endpoint
        assert set(system.process_tasks()) | set(system.service_tasks()) == set(
            system.tasks()
        )


def _projected(system, state):
    """Decisions and failures read through the per-endpoint projection."""
    locals_by_endpoint = {
        endpoint: system.process_state(state, endpoint)
        for endpoint in system.process_ids
    }
    decisions = {
        endpoint: local.decision
        for endpoint, local in locals_by_endpoint.items()
        if local.decision is not None
    }
    failed = frozenset(
        endpoint for endpoint, local in locals_by_endpoint.items() if local.failed
    )
    return decisions, failed


@pytest.mark.parametrize(
    "build, assignment",
    [
        (
            lambda: delegation_consensus_system(4, resilience=1),
            {0: 0, 1: 1, 2: 0, 3: 1},
        ),
        (
            lambda: tob_delegation_system(3, resilience=1),
            {0: 0, 1: 1, 2: 0},
        ),
    ],
    ids=["delegation-4-1", "tob-3-1"],
)
def test_positional_decisions_match_the_projection(build, assignment):
    """``decisions``/``failed_processes`` read process states by position.

    They must equal the per-endpoint projection on every reachable state,
    and on each of those states with one process failed.
    """
    system = build()
    root = system.initialization(assignment).final_state
    graph = ExplorationEngine().explore(DeterministicSystemView(system), root)
    decided = 0
    for state in graph.order:
        variants = [state] + [
            system.apply_input(state, fail(endpoint))
            for endpoint in system.process_ids
        ]
        for variant in variants:
            decisions, failed = _projected(system, variant)
            assert system.decisions(variant) == decisions
            assert system.failed_processes(variant) == failed
            assert system.decision_values(variant) == frozenset(decisions.values())
        decided += bool(system.decisions(state))
    assert decided > 0
