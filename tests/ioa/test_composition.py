"""Unit tests for parallel composition and hiding."""

import pytest

from repro.analysis import DeterministicSystemView, explore
from repro.engine.codec import canonical_bytes
from repro.ioa import (
    Action,
    Automaton,
    Composition,
    Hidden,
    IncompatibleComposition,
    Task,
    Transition,
    check_compatibility,
)
from repro.protocols.message_passing import arbiter_consensus_system
from repro.serve.wire import build_system
from repro.sim import FaultBudget


class Sender(Automaton):
    """Emits msg(0), msg(1), ... as outputs."""

    def __init__(self, name="sender"):
        self.name = name
        self._task = Task(name, "send")

    def is_input(self, action):
        return False

    def is_output(self, action):
        return action.kind == "msg"

    def is_internal(self, action):
        return False

    def start_states(self):
        yield 0

    def tasks(self):
        return (self._task,)

    def enabled(self, state, task):
        return [Transition(Action("msg", (state,)), state + 1)]

    def apply_input(self, state, action):
        raise ValueError("sender has no inputs")


class Receiver(Automaton):
    """Accumulates received msg payloads."""

    def __init__(self, name="receiver"):
        self.name = name

    def is_input(self, action):
        return action.kind == "msg"

    def is_output(self, action):
        return False

    def is_internal(self, action):
        return False

    def start_states(self):
        yield ()

    def tasks(self):
        return ()

    def enabled(self, state, task):
        raise KeyError(task)

    def apply_input(self, state, action):
        return state + (action.args[0],)


class TestComposition:
    def test_synchronization_on_shared_action(self):
        composed = Composition([Sender(), Receiver()])
        state = composed.some_start_state()
        (transition,) = composed.enabled(state, Task("sender", "send"))
        assert transition.action == Action("msg", (0,))
        assert transition.post == (1, (0,))

    def test_start_states_are_products(self):
        composed = Composition([Sender(), Receiver()])
        assert list(composed.start_states()) == [(0, ())]

    def test_signature_classification(self):
        composed = Composition([Sender(), Receiver()])
        # msg is an output of the composition (output of sender).
        assert composed.is_output(Action("msg", (0,)))
        assert not composed.is_input(Action("msg", (0,)))

    def test_unmatched_input_stays_input(self):
        composed = Composition([Receiver()])
        assert composed.is_input(Action("msg", (0,)))
        assert composed.apply_input(((),), Action("msg", (5,))) == ((5,),)

    def test_tasks_are_union(self):
        composed = Composition([Sender("s1"), Sender("s2"), Receiver()])
        assert set(composed.tasks()) == {Task("s1", "send"), Task("s2", "send")}

    def test_duplicate_names_rejected(self):
        with pytest.raises(IncompatibleComposition):
            Composition([Sender("x"), Receiver("x")])

    def test_two_senders_conflict_on_shared_output(self):
        composed = Composition([Sender("s1"), Sender("s2")])
        state = composed.some_start_state()
        with pytest.raises(IncompatibleComposition):
            composed.enabled(state, Task("s1", "send"))
        # A failed route is never cached: the conflict surfaces every time.
        with pytest.raises(IncompatibleComposition):
            composed.enabled(state, Task("s1", "send"))
        for _ in range(2):
            with pytest.raises(IncompatibleComposition):
                composed.enabled_steps(state)

    def test_component_lookup(self):
        sender = Sender()
        receiver = Receiver()
        composed = Composition([sender, receiver])
        assert composed.component("sender") is sender
        assert composed.component_index("receiver") == 1
        assert composed.component_state((3, (0, 1)), "receiver") == (0, 1)

    def test_participants(self):
        sender = Sender()
        receiver = Receiver()
        composed = Composition([sender, receiver])
        participants = composed.participants(Action("msg", (0,)))
        assert {p.name for p in participants} == {"sender", "receiver"}


def full_scan_enabled(composition, state, task):
    """``Composition.enabled`` as a scan of every component's signature."""
    (owner,) = [
        i for i, c in enumerate(composition.components) if task in c.tasks()
    ]
    transitions = []
    for local in composition.components[owner].enabled(state[owner], task):
        post = list(state)
        post[owner] = local.post
        for j, other in enumerate(composition.components):
            if j != owner and other.in_signature(local.action):
                assert not other.is_locally_controlled(local.action)
                post[j] = other.apply_input(post[j], local.action)
        transitions.append(Transition(local.action, tuple(post)))
    return transitions


ROUTING_SYSTEMS = {
    "delegation-4-1": lambda: build_system("delegation", 4, 1),
    "tob-3-1": lambda: build_system("tob", 3, 1),
    "arbiter-3-1": lambda: build_system("arbiter", 3, 1),
    # FaultyNetwork overrides is_internal (fault actions) and enabled
    # (fault tasks).
    "faulty-arbiter-3-1": lambda: arbiter_consensus_system(
        3, 1, faults=FaultBudget(drop=1)
    ),
}


def _reachable(system):
    proposals = {e: i % 2 for i, e in enumerate(system.process_ids)}
    root = system.initialization(proposals).final_state
    return explore(DeterministicSystemView(system), root)


class TestRoutingTable:
    """The per-action routing table synchronizes exactly like a full scan."""

    def test_explored_graph_holds_one_object_per_value(self):
        graph = _reachable(ROUTING_SYSTEMS["delegation-4-1"]())
        actions = [a for out in graph.edges.values() for _, a, _ in out]
        assert len({id(a) for a in actions}) == len(set(actions))
        # Posts are interned per component, so each slot holds one
        # object per distinct value.
        for k in range(len(graph.root)):
            components = [state[k] for state in graph.states]
            assert len({id(c) for c in components}) == len(set(components))

    @pytest.mark.parametrize("name", sorted(ROUTING_SYSTEMS))
    def test_routed_transitions_match_full_scan(self, name):
        """Memoized transitions match the scan, on a cold and a warm memo."""
        graph = _reachable(ROUTING_SYSTEMS[name]())
        # A second instance of the system starts with an empty memo.
        system = ROUTING_SYSTEMS[name]()
        view = DeterministicSystemView(system)
        for warm in (False, True):
            misses = system.memo_misses
            checked = 0
            for state in graph.states:
                expected = []
                for task in system.tasks():
                    transitions = full_scan_enabled(system, state, task)
                    assert system.enabled(state, task) == transitions
                    expected.extend((task, t.action, t.post) for t in transitions)
                    checked += bool(transitions)
                actual = view.successors(state)
                assert actual == expected
                for (_, _, post), (_, _, reference) in zip(actual, expected):
                    for component, ref in zip(post, reference):
                        assert canonical_bytes(component) == canonical_bytes(ref)
                    for k, parent in enumerate(state):
                        if reference[k] is parent:
                            assert post[k] is parent
            assert checked == graph.edge_count()
            if warm:
                assert system.memo_misses == misses
            else:
                assert system.memo_misses > misses


class TestHiding:
    def test_hidden_outputs_become_internal(self):
        composed = Composition([Sender(), Receiver()])
        hidden = Hidden(composed, lambda a: a.kind == "msg")
        assert hidden.is_internal(Action("msg", (0,)))
        assert not hidden.is_output(Action("msg", (0,)))

    def test_hiding_preserves_transitions(self):
        composed = Composition([Sender(), Receiver()])
        hidden = Hidden(composed, lambda a: a.kind == "msg")
        state = hidden.some_start_state()
        (transition,) = hidden.enabled(state, Task("sender", "send"))
        assert transition.post == (1, (0,))

    def test_default_name(self):
        composed = Composition([Sender(), Receiver()], name="pair")
        assert Hidden(composed, lambda a: False).name == "hide(pair)"


class TestCompatibilityChecker:
    def test_accepts_compatible(self):
        check_compatibility([Sender(), Receiver()], [Action("msg", (0,))])

    def test_rejects_shared_outputs(self):
        with pytest.raises(IncompatibleComposition):
            check_compatibility(
                [Sender("s1"), Sender("s2")], [Action("msg", (0,))]
            )

    def test_rejects_shared_internal(self):
        class Internalizer(Sender):
            def is_output(self, action):
                return False

            def is_internal(self, action):
                return action.kind == "msg"

        with pytest.raises(IncompatibleComposition):
            check_compatibility(
                [Internalizer("i"), Receiver()], [Action("msg", (0,))]
            )
