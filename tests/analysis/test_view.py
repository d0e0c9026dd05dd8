"""Unit tests for the deterministic system view (Section 3.1)."""

import pytest

from repro.analysis import DeterministicSystemView, NondeterminismError, explore
from repro.protocols import delegation_consensus_system
from repro.services import CanonicalAtomicObject
from repro.system import DistributedSystem, IdleProcess, ScriptProcess
from repro.ioa import Task, invoke
from repro.types import k_set_consensus_type


@pytest.fixture
def view_and_root():
    system = delegation_consensus_system(2, resilience=0)
    view = DeterministicSystemView(system)
    root = system.initialization({0: 0, 1: 1}).final_state
    return system, view, root


class TestStep:
    def test_unique_transition(self, view_and_root):
        system, view, root = view_and_root
        task = system.process(0).tasks()[0]
        step = view.step(root, task)
        assert step is not None
        action, post = step
        assert action == invoke("cons", 0, ("init", 0))

    def test_inapplicable_task_returns_none(self, view_and_root):
        system, view, root = view_and_root
        # No invocation performed yet: the service perform task is idle.
        service_task = Task("atomic[cons]", ("perform", 0))
        assert view.step(root, service_task) is None
        assert not view.applicable(root, service_task)

    def test_apply_and_action_of(self, view_and_root):
        system, view, root = view_and_root
        task = system.process(1).tasks()[0]
        assert view.action_of(root, task) == invoke("cons", 1, ("init", 1))
        post = view.apply(root, task)
        assert post != root

    def test_apply_raises_when_inapplicable(self, view_and_root):
        _, view, root = view_and_root
        with pytest.raises(ValueError):
            view.apply(root, Task("atomic[cons]", ("perform", 0)))

    def test_step_is_cached(self, view_and_root):
        _, view, root = view_and_root
        task = view.tasks[0]
        first = view.step(root, task)
        second = view.step(root, task)
        assert first is second


@pytest.fixture
def branching_perform():
    """A view and a state whose next ``perform`` has two outcomes."""
    kset = k_set_consensus_type(2, proposals=(0, 1, 2))
    service = CanonicalAtomicObject(kset, (0,), 0, service_id="k")
    process = ScriptProcess(
        0, [invoke("k", 0, ("init", 0)), invoke("k", 0, ("init", 1))],
        connections=["k"],
    )
    system = DistributedSystem([process], services=[service])
    view = DeterministicSystemView(system)
    state = system.some_start_state()
    # Queue two proposals so the second perform branches.
    for _ in range(2):
        state = view.apply(state, process.tasks()[0])
    state = view.apply(state, Task(service.name, ("perform", 0)))
    return view, state, Task(service.name, ("perform", 0))


class TestDeterminismEnforcement:
    def test_nondeterministic_type_raises(self, branching_perform):
        view, state, task = branching_perform
        # The second call reads the warm transition memo.
        for _ in range(2):
            with pytest.raises(NondeterminismError):
                view.step(state, task)

    def test_successors_raises_on_branching_task(self, branching_perform):
        view, state, task = branching_perform
        for _ in range(2):
            with pytest.raises(NondeterminismError, match="2 enabled transitions"):
                view.successors(state)

    def test_failure_free_guard(self, view_and_root):
        system, view, root = view_and_root
        failed = system.fail_process(root, 0)
        with pytest.raises(ValueError, match="failed"):
            view.check_failure_free(failed)
        view.check_failure_free(root)  # does not raise


class TestParticipants:
    def test_invoke_participants(self, view_and_root):
        system, view, root = view_and_root
        task = system.process(0).tasks()[0]
        assert set(view.participants(root, task)) == {"P[0]", "atomic[cons]"}

    def test_at_most_two_participants_everywhere(self, view_and_root):
        system, view, root = view_and_root
        for task in view.applicable_tasks(root):
            assert len(view.participants(root, task)) <= 2


class TestReplay:
    def test_run_task_sequence_strict(self, view_and_root):
        system, view, root = view_and_root
        p0 = system.process(0).tasks()[0]
        p1 = system.process(1).tasks()[0]
        execution = view.run_task_sequence(root, [p0, p1])
        assert len(execution) == 2
        assert execution.final_state != root

    def test_strict_replay_raises_on_inapplicable(self, view_and_root):
        _, view, root = view_and_root
        with pytest.raises(ValueError):
            view.run_task_sequence(root, [Task("atomic[cons]", ("perform", 0))])

    def test_lenient_replay_skips(self, view_and_root):
        _, view, root = view_and_root
        execution = view.run_task_sequence(
            root, [Task("atomic[cons]", ("perform", 0))], strict=False
        )
        assert len(execution) == 0

    def test_successors_enumerates_applicable(self, view_and_root):
        _, view, root = view_and_root
        successors = view.successors(root)
        tasks = [t for t, _, _ in successors]
        assert len(tasks) == len(set(tasks))
        assert all(view.applicable(root, t) for t in tasks)

    def test_successors_match_step_on_every_reachable_state(self):
        system = delegation_consensus_system(3, resilience=1)
        root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
        view = DeterministicSystemView(system)
        graph = explore(view, root)
        for state in graph.states:
            expected = [
                (task, *view.step(state, task))
                for task in view.tasks
                if view.step(state, task)
            ]
            assert view.successors(state) == expected
