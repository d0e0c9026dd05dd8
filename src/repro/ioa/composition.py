"""Parallel composition and hiding of I/O automata (Section 2.1.1, 2.2.3).

In a composition, all automata with an action ``a`` in their signature
execute ``a`` simultaneously.  An action may be an output of at most one
component, and an internal action of a component belongs to no other
component's signature.  The composition's state is the tuple of component
states; its tasks are the disjoint union of the components' tasks.

``hide`` reclassifies chosen output actions as internal — the operation
the paper applies to the communication actions of the complete system C
(Section 2.2.3).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .actions import Action
from .automaton import Automaton, State, Task, Transition


class IncompatibleComposition(ValueError):
    """Raised when component signatures violate compatibility rules."""


class Composition(Automaton):
    """The parallel composition of a finite family of I/O automata.

    The state of the composition is a tuple holding one state per
    component, in the order the components were given.  Task identities
    are the components' own task identities (which embed the owning
    automaton's name, keeping them disjoint).
    """

    def __init__(self, components: Sequence[Automaton], name: str = "system"):
        if len({c.name for c in components}) != len(components):
            raise IncompatibleComposition("component names must be unique")
        self.name = name
        self.components: tuple[Automaton, ...] = tuple(components)
        self._index = {c.name: i for i, c in enumerate(self.components)}
        self._tasks: tuple[Task, ...] = tuple(
            task for component in self.components for task in component.tasks()
        )
        self._task_owner: dict[Task, int] = {}
        for i, component in enumerate(self.components):
            for task in component.tasks():
                if task in self._task_owner:
                    raise IncompatibleComposition(f"duplicate task {task}")
                self._task_owner[task] = i
        # Synchronization routes, filled lazily by :meth:`_route`:
        # ``self._routes[owner][action]`` is the tuple of the other
        # components' indices with ``action`` in their signature.
        self._routes: tuple[dict[Action, tuple[int, ...]], ...] = tuple(
            {} for _ in self.components
        )

    # -- component access ----------------------------------------------------

    def component_index(self, name: str) -> int:
        """Position of the named component in the state tuple."""
        return self._index[name]

    def component(self, name: str) -> Automaton:
        """The named component automaton."""
        return self.components[self._index[name]]

    def component_state(self, state: State, name: str) -> State:
        """Project a composite state onto the named component."""
        return state[self._index[name]]

    def symmetry_classes(self) -> dict:
        """Group components by declared interchangeability class.

        Components whose :meth:`Automaton.symmetry_key` is non-``None``
        are grouped by ``(type name, key)``; opted-out components are
        omitted.  Classes with at least two members are candidates for
        symmetry reduction (see :mod:`repro.engine.reduction`).
        """
        classes: dict = {}
        for component in self.components:
            key = component.symmetry_key()
            if key is None:
                continue
            classes.setdefault((type(component).__name__, key), []).append(component)
        return classes

    def participants(self, action: Action) -> list[Automaton]:
        """The components that participate in ``action`` (Section 2.2.3).

        A component participates in an action iff the action is in its
        signature.  In the paper's system model, every non-``fail`` action
        has at most two participants, and two distinct services (or two
        distinct processes) never participate in the same action.
        """
        return [c for c in self.components if c.in_signature(action)]

    # -- signature -----------------------------------------------------------

    def is_output(self, action: Action) -> bool:
        return any(c.is_output(action) for c in self.components)

    def is_internal(self, action: Action) -> bool:
        return any(c.is_internal(action) for c in self.components)

    def is_input(self, action: Action) -> bool:
        # An input of the composition is an input of some component that
        # is not an output of any component.
        return any(c.is_input(action) for c in self.components) and not self.is_output(
            action
        )

    # -- states and transitions ----------------------------------------------

    def start_states(self) -> Iterable[State]:
        def product(index: int) -> Iterable[tuple]:
            if index == len(self.components):
                yield ()
                return
            for head in self.components[index].start_states():
                for tail in product(index + 1):
                    yield (head,) + tail

        return product(0)

    def tasks(self) -> Sequence[Task]:
        return self._tasks

    def enabled(self, state: State, task: Task) -> Sequence[Transition]:
        owner = self._task_owner.get(task)
        if owner is None:
            raise KeyError(f"unknown task {task}")
        routes = self._routes[owner]
        components = self.components
        transitions = []
        for local in components[owner].enabled(state[owner], task):
            action = local.action
            post = list(state)
            post[owner] = local.post
            # Synchronize: every *other* component with the action in its
            # signature takes it as an input.
            receivers = routes.get(action)
            if receivers is None:
                receivers = self._route(owner, action)
            for j in receivers:
                post[j] = components[j].apply_input(post[j], action)
            transitions.append(Transition(action, tuple(post)))
        return transitions

    def _route(self, owner: int, action: Action) -> tuple[int, ...]:
        """The components other than ``owner`` that take ``action`` as input.

        Signatures depend on the action alone, so the answer is cached
        per ``(owner, action)``.  An incompatible pair raises before
        anything is cached, so every later attempt raises again.
        """
        receivers = []
        for j, other in enumerate(self.components):
            if j == owner or not other.in_signature(action):
                continue
            if other.is_locally_controlled(action):
                raise IncompatibleComposition(
                    f"action {action} locally controlled by both "
                    f"{self.components[owner].name!r} and {other.name!r}"
                )
            receivers.append(j)
        route = self._routes[owner][action] = tuple(receivers)
        return route

    def apply_input(self, state: State, action: Action) -> State:
        post = list(state)
        for j, component in enumerate(self.components):
            if component.in_signature(action):
                if not component.is_input(action):
                    raise IncompatibleComposition(
                        f"{action} is not an input of participant {component.name!r}"
                    )
                post[j] = component.apply_input(post[j], action)
        return tuple(post)


class Hidden(Automaton):
    """``hide`` operator: reclassify selected outputs as internal actions.

    Hiding changes only the external signature; states, tasks, and
    transitions are untouched.  The complete system of Section 2.2.3 is a
    composition with the inter-component communication actions hidden.
    """

    def __init__(
        self,
        inner: Automaton,
        hidden: Callable[[Action], bool],
        name: str | None = None,
    ):
        self.inner = inner
        self._hidden = hidden
        self.name = name if name is not None else f"hide({inner.name})"

    def is_input(self, action: Action) -> bool:
        return self.inner.is_input(action)

    def is_output(self, action: Action) -> bool:
        return self.inner.is_output(action) and not self._hidden(action)

    def is_internal(self, action: Action) -> bool:
        return self.inner.is_internal(action) or (
            self.inner.is_output(action) and self._hidden(action)
        )

    def start_states(self) -> Iterable[State]:
        return self.inner.start_states()

    def tasks(self) -> Sequence[Task]:
        return self.inner.tasks()

    def enabled(self, state: State, task: Task) -> Sequence[Transition]:
        return self.inner.enabled(state, task)

    def apply_input(self, state: State, action: Action) -> State:
        return self.inner.apply_input(state, action)


def check_compatibility(
    components: Sequence[Automaton], probe_actions: Iterable[Action]
) -> None:
    """Check composition compatibility over a set of probe actions.

    Because action alphabets are given by predicates rather than finite
    sets, full static compatibility checking is impossible; this helper
    checks, for each supplied action, that (a) it is an output of at most
    one component and (b) if it is internal to some component it belongs
    to no other component's signature.  Raises
    :class:`IncompatibleComposition` on violation.
    """
    for action in probe_actions:
        outputs = [c.name for c in components if c.is_output(action)]
        if len(outputs) > 1:
            raise IncompatibleComposition(
                f"action {action} is an output of {outputs}"
            )
        owners = [c.name for c in components if c.is_internal(action)]
        if owners:
            sharers = [
                c.name
                for c in components
                if c.name not in owners and c.in_signature(action)
            ]
            if sharers:
                raise IncompatibleComposition(
                    f"internal action {action} of {owners} shared with {sharers}"
                )
