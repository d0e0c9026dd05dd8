"""Process automata (Section 2.2.1).

A process ``P_i`` interacts with the external world through ``init(v)_i``
inputs and ``decide(v)_i`` outputs, with each connected service ``S_k``
through ``a_{i,k}`` invocation outputs and ``b_{i,k}`` response inputs,
and receives the ``fail_i`` input.  The paper's structural assumptions,
all enforced by this base class:

* each process has a **single task** comprising all its locally
  controlled actions;
* **in every state some locally controlled action is enabled** — realized
  by the always-enabled internal ``dummy_step_i`` when the protocol has
  nothing to do;
* **after ``fail_i`` no output action is ever enabled** (the process may
  still take dummy internal steps, as some locally controlled action
  must remain enabled);
* when ``P_i`` performs ``decide(v)_i`` it **records the decision value
  in a special state component** — the technicality used in the proofs of
  Lemmas 6-7 to argue that a decision occurring in the common prefix
  would be visible in both similar states;
* processes are **deterministic** (assumption (i) of Section 3.1):
  concrete protocols implement two pure functions, one for inputs and
  one producing the next locally controlled action.

Protocol authors subclass :class:`Process` and implement
``initial_locals``, ``handle_input`` and ``next_action`` over an
immutable ``locals`` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Sequence

from ..ioa.actions import Action, decide, dummy_step
from ..ioa.automaton import Automaton, State, Task, Transition


@dataclass(frozen=True)
class ProcessState:
    """State of a process automaton.

    ``failed`` records receipt of ``fail_i``; ``decision`` is the special
    component holding the first decided value (or ``None``); ``locals``
    is the protocol-defined immutable local state.

    The hash is computed once, at construction, into the ``_hash`` slot
    (not a dataclass field) and equals the generated one,
    ``hash((failed, decision, locals))``.  It never crosses a process:
    ``str`` hashes depend on ``PYTHONHASHSEED``, so pickling and copying
    rebuild the state from its fields and hash it afresh.
    """

    __slots__ = ("failed", "decision", "locals", "_hash")

    failed: bool
    decision: Any
    locals: Hashable

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((self.failed, self.decision, self.locals))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), (self.failed, self.decision, self.locals)


class Process(Automaton):
    """Base class for deterministic single-task process automata.

    ``endpoint`` is the process index ``i``; ``connections`` lists the
    service/register indices ``c`` with ``i`` in ``J_c`` — the services
    this process may invoke; ``input_values`` is the set of values ``v``
    for which ``init(v)_i`` is an input (empty for processes that take no
    external inputs).
    """

    def __init__(
        self,
        endpoint: Hashable,
        connections: Sequence[Hashable] = (),
        input_values: Sequence[Hashable] = (),
        name: str | None = None,
    ) -> None:
        self.endpoint = endpoint
        self.connections: frozenset = frozenset(connections)
        self.input_values: frozenset = frozenset(input_values)
        self.name = name if name is not None else f"P[{endpoint}]"
        self._task = Task(self.name, "step")

    # -- protocol contract ------------------------------------------------------

    def initial_locals(self) -> Hashable:
        """The protocol's initial local state."""
        raise NotImplementedError

    def handle_input(self, locals_value: Hashable, action: Action) -> Hashable:
        """React to an ``init`` or ``respond`` input; must be pure."""
        raise NotImplementedError

    def next_action(
        self, locals_value: Hashable
    ) -> tuple[Action | None, Hashable]:
        """The unique next locally controlled step of the protocol.

        Returns ``(action, new_locals)``.  ``action`` may be an
        ``invoke`` on a connected service, a ``decide``, a protocol-
        internal ``Action("local", (i, ...))``, or ``None`` meaning the
        process idles this turn (a ``dummy_step`` is emitted).  Must be a
        pure function of ``locals_value`` — this is what makes the
        process a deterministic automaton.
        """
        raise NotImplementedError

    # -- signature ----------------------------------------------------------------

    def is_input(self, action: Action) -> bool:
        if action.kind == "fail":
            return action.args[0] == self.endpoint
        if action.kind == "init":
            return (
                action.args[0] == self.endpoint and action.args[1] in self.input_values
            )
        if action.kind == "respond":
            service, endpoint, _ = action.args
            return endpoint == self.endpoint and service in self.connections
        return False

    def is_output(self, action: Action) -> bool:
        if action.kind == "invoke":
            service, endpoint, _ = action.args
            return endpoint == self.endpoint and service in self.connections
        if action.kind == "decide":
            return action.args[0] == self.endpoint
        return False

    def is_internal(self, action: Action) -> bool:
        if action.kind in ("dummy_step", "local"):
            return action.args[0] == self.endpoint
        return False

    # -- states ----------------------------------------------------------------------

    def start_states(self) -> Iterable[State]:
        yield ProcessState(failed=False, decision=None, locals=self.initial_locals())

    def tasks(self) -> Sequence[Task]:
        return (self._task,)

    def enabled(self, state: State, task: Task) -> Sequence[Transition]:
        assert isinstance(state, ProcessState)
        if task != self._task:
            raise KeyError(f"unknown task {task}")
        if state.failed:
            # After fail_i no outputs are enabled; the single task remains
            # enabled through the dummy internal step.
            return (Transition(dummy_step(self.endpoint), state),)
        action, new_locals = self.next_action(state.locals)
        if action is None:
            post = ProcessState(
                failed=state.failed, decision=state.decision, locals=new_locals
            )
            return (Transition(dummy_step(self.endpoint), post),)
        self._check_action(action)
        new_decision = state.decision
        if action.kind == "decide" and state.decision is None:
            # The special state component recording the decision value.
            new_decision = action.args[1]
        post = ProcessState(
            failed=state.failed, decision=new_decision, locals=new_locals
        )
        return (Transition(action, post),)

    def _check_action(self, action: Action) -> None:
        if not self.is_locally_controlled(action):
            raise ValueError(
                f"{self.name}: protocol emitted {action}, which is not a "
                "locally controlled action of this process"
            )

    def apply_input(self, state: State, action: Action) -> State:
        assert isinstance(state, ProcessState)
        if action.kind == "fail":
            return ProcessState(
                failed=True, decision=state.decision, locals=state.locals
            )
        if not self.is_input(action):
            raise ValueError(f"{self.name}: {action} is not an input")
        new_locals = self.handle_input(state.locals, action)
        return ProcessState(
            failed=state.failed, decision=state.decision, locals=new_locals
        )


class IdleProcess(Process):
    """A process that only ever takes dummy steps.

    Useful as a placeholder endpoint and in tests of the composition and
    fairness machinery.
    """

    def symmetry_key(self):
        # Stateless and connection-free: any two idle processes are
        # interchangeable.
        return ("idle",)

    def initial_locals(self) -> Hashable:
        return ()

    def handle_input(self, locals_value, action):
        return locals_value

    def next_action(self, locals_value):
        return None, locals_value


class ScriptProcess(Process):
    """A process that replays a fixed list of locally controlled actions.

    Each call to ``next_action`` emits the next scripted action; inputs
    are appended to a log in ``locals`` so tests can observe them.  Used
    heavily by the service-level unit tests as a deterministic client.
    """

    def __init__(
        self,
        endpoint: Hashable,
        script: Sequence[Action],
        connections: Sequence[Hashable] = (),
        input_values: Sequence[Hashable] = (),
        name: str | None = None,
    ) -> None:
        super().__init__(endpoint, connections, input_values, name)
        self.script = tuple(script)

    def initial_locals(self) -> Hashable:
        # (script position, received-input log)
        return (0, ())

    def handle_input(self, locals_value, action):
        position, log = locals_value
        return (position, log + (action,))

    def next_action(self, locals_value):
        position, log = locals_value
        if position >= len(self.script):
            return None, locals_value
        return self.script[position], (position + 1, log)

    @staticmethod
    def received(state: ProcessState) -> tuple[Action, ...]:
        """The inputs a :class:`ScriptProcess` has received so far."""
        return state.locals[1]
