"""Parallel composition and hiding of I/O automata (Section 2.1.1, 2.2.3).

In a composition, all automata with an action ``a`` in their signature
execute ``a`` simultaneously.  An action may be an output of at most one
component, and an internal action of a component belongs to no other
component's signature.  The composition's state is the tuple of component
states; its tasks are the disjoint union of the components' tasks.

``hide`` reclassifies chosen output actions as internal — the operation
the paper applies to the communication actions of the complete system C
(Section 2.2.3).

The next-state function is partitioned by component.  A component's
locally controlled steps depend only on its own state, and its effect as
a receiver only on its state and the action, so :class:`Composition`
memoizes both per component and assembles every composite transition
from the cached component posts (LTSmin's partitioned next-state
interface, with the components as transition groups).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..obs import sinks as _obs
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

    Transitions come from a per-component memo, which :meth:`enabled`
    and :meth:`enabled_steps` both read.  Its entries are keyed by the
    identity of the component state (and of the action, for inputs) and
    pin their key objects, as the codec's identity tier does, so a
    recycled ``id`` never returns a stale entry:

    * the *owner half* maps a component state to every locally
      controlled step it enables, task by task, each with its
      synchronization route;
    * the *receiver half* maps ``(pre, action)`` to the component's
      post-state after the input ``action``.

    A miss interns the new component posts (per component, by value) and
    actions (per composition), so equal values reached along different
    interleavings share one object and later lookups hit.  This relies
    on component states being immutable values.  While a tracer is
    installed process-wide (:func:`repro.obs.sinks.use_tracer`), inputs
    bypass the receiver half, so every delivery reaches
    :meth:`Automaton.apply_input` and emits its events.  The memo holds
    one entry per distinct component value and input it has seen;
    :meth:`trim_memo` bounds it.
    """

    def __init__(self, components: Sequence[Automaton], name: str = "system"):
        if len({c.name for c in components}) != len(components):
            raise IncompatibleComposition("component names must be unique")
        self.name = name
        self.components: tuple[Automaton, ...] = tuple(components)
        self._index = {c.name: i for i, c in enumerate(self.components)}
        # Each component's slice of ``self._tasks``: the memo stores
        # these objects, so every transition carries a task of tasks().
        self._component_tasks: tuple[tuple[Task, ...], ...] = tuple(
            tuple(component.tasks()) for component in self.components
        )
        self._tasks: tuple[Task, ...] = tuple(
            task for tasks in self._component_tasks for task in tasks
        )
        self._task_owner: dict[Task, int] = {}
        for i, tasks in enumerate(self._component_tasks):
            for task in tasks:
                if task in self._task_owner:
                    raise IncompatibleComposition(f"duplicate task {task}")
                self._task_owner[task] = i
        # Synchronization routes, filled lazily by :meth:`_route`:
        # ``self._routes[owner][action]`` is the tuple of the other
        # components' indices with ``action`` in their signature.
        self._routes: tuple[dict[Action, tuple[int, ...]], ...] = tuple(
            {} for _ in self.components
        )
        # The transition memo (see the class docstring): per component, one
        # dict holding both halves (``id(local)`` and ``(id(pre),
        # id(action))`` keys never collide) and one table of interned
        # values; plus the composition's interned actions.
        self._memo: tuple[dict, ...] = tuple({} for _ in self.components)
        self._values: tuple[dict, ...] = tuple({} for _ in self.components)
        self._actions: dict[Action, Action] = {}
        #: Memo lookups that had to compute (owner or receiver half).
        self.memo_misses = 0

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
        tracing = _obs.CURRENT.enabled
        transitions = []
        for step_task, action, local_post, receivers in self._local_steps(
            owner, state[owner]
        ):
            if step_task != task:
                continue
            post = list(state)
            post[owner] = local_post
            for j in receivers:
                post[j] = self._receive(j, state[j], action, tracing)
            transitions.append(Transition(action, tuple(post)))
        return transitions

    def enabled_steps(self, state: State) -> list[tuple[Task, Action, State]]:
        """Every enabled ``(task, action, post)`` of ``state``, in :meth:`tasks` order.

        Walks the components in order and builds each composite post
        from memoized component posts; a task with several enabled
        transitions contributes one triple per transition, adjacent.
        """
        tracing = _obs.CURRENT.enabled
        out = []
        for i, local in enumerate(state):
            for task, action, local_post, receivers in self._local_steps(i, local):
                post = list(state)
                post[i] = local_post
                for j in receivers:
                    post[j] = self._receive(j, state[j], action, tracing)
                out.append((task, action, tuple(post)))
        return out

    def _local_steps(self, i: int, local: State) -> tuple:
        """Owner half: every enabled ``(task, action, post, receivers)`` of ``local``.

        In component ``i``'s task order.  A miss first looks for an
        equal interned state's entry.  Nothing is stored unless every
        route resolves, so an incompatible composition raises on every
        attempt.
        """
        memo = self._memo[i]
        entry = memo.get(id(local))
        if entry is not None and entry[0] is local:
            return entry[1]
        self.memo_misses += 1
        values = self._values[i]
        canonical = values.setdefault(local, local)
        entry = memo.get(id(canonical))
        if entry is None or entry[0] is not canonical:
            component = self.components[i]
            routes = self._routes[i]
            actions = self._actions
            steps = []
            for task in self._component_tasks[i]:
                for local_step in component.enabled(local, task):
                    action = actions.setdefault(local_step.action, local_step.action)
                    receivers = routes.get(action)
                    if receivers is None:
                        receivers = self._route(i, action)
                    post = values.setdefault(local_step.post, local_step.post)
                    steps.append((task, action, post, receivers))
            entry = memo[id(canonical)] = (canonical, tuple(steps))
        if canonical is not local:
            memo[id(local)] = (local, entry[1])
        return entry[1]

    def _receive(self, j: int, pre: State, action: Action, tracing: bool) -> State:
        """Component ``j``'s post-state after the input ``action`` (receiver half)."""
        if tracing:
            return self.components[j].apply_input(pre, action)
        key = (id(pre), id(action))
        memo = self._memo[j]
        hit = memo.get(key)
        if hit is not None and hit[0] is pre:
            return hit[2]
        self.memo_misses += 1
        post = self.components[j].apply_input(pre, action)
        if post is not pre:
            post = self._values[j].setdefault(post, post)
        memo[key] = (pre, action, post)
        return post

    def memo_entries(self) -> int:
        """Entries the transition memo holds (both halves and the interned values)."""
        return (
            sum(len(memo) for memo in self._memo)
            + sum(len(values) for values in self._values)
            + len(self._actions)
        )

    def trim_memo(self, limit: int) -> int:
        """Clear the transition memo once it holds more than ``limit`` entries.

        Returns the entries freed.  Clearing changes no transition, only
        hit rates and object sharing between later posts.
        """
        size = self.memo_entries()
        if size <= limit:
            return 0
        for table in self._memo + self._values:
            table.clear()
        self._actions.clear()
        return size

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
