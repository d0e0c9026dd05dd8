"""Deterministic, failure-free system views (Section 3.1).

The impossibility proofs assume (without loss of generality) that
processes are deterministic automata and that service types are
deterministic.  Under these assumptions, after a finite failure-free
execution, an applicable task ``e`` determines a *unique* transition
``transition(e, s)``, so any failure-free execution is generated by a
task sequence applied to the initial state — the device on which the
whole of Section 3 runs.

:class:`DeterministicSystemView` packages a :class:`DistributedSystem`
as exactly this object: a function ``step(state, task)`` returning the
unique ``(action, post_state)`` or ``None`` when the task is not
applicable, and ``successors(state)`` returning every applicable task's
step at once.  Both read the composition's per-component transition
memo (:class:`~repro.ioa.composition.Composition`), so every successor
is assembled from cached component posts.  The view refuses to operate
on states with failures (the valence machinery is defined over
failure-free executions) and raises :class:`NondeterminismError` if a
task ever has more than one enabled transition, surfacing violations of
the Section 3.1 assumptions instead of silently picking a branch.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from ..ioa.actions import Action
from ..ioa.automaton import State, Task
from ..ioa.execution import Execution
from ..system.system import DistributedSystem


class NondeterminismError(RuntimeError):
    """A task had several enabled transitions where determinism was assumed."""


class DeterministicSystemView:
    """Task-granular, failure-free, deterministic view of a system.

    ``transition(e, s)`` from Section 3.1 is :meth:`step`; the paper's
    notations ``action(e, s)`` and ``e(s)`` are :meth:`action_of` and
    :meth:`apply`.

    :meth:`step` memoizes its ``(state, task)`` results for callers that
    revisit the same transitions (the hook search, the adversary, graph
    replays); :meth:`apply`, :meth:`action_of`, :meth:`applicable` and
    :meth:`run_task_sequence` share that memo.  :meth:`successors`, the
    exploration engine's expansion step, never reads or fills it: it
    relies on the composition's per-component memo alone, which
    :meth:`trim_caches` bounds.
    """

    def __init__(self, system: DistributedSystem) -> None:
        self.system = system
        self.tasks: tuple[Task, ...] = tuple(system.tasks())
        self._step_cache: dict[tuple[State, Task], tuple[Action, State] | None] = {}

    # -- the unique transition function -----------------------------------------

    def step(self, state: State, task: Task) -> tuple[Action, State] | None:
        """``transition(task, state)``: the unique step, or ``None``.

        Returns ``None`` when the task is not applicable in ``state``.
        Raises :class:`NondeterminismError` when the determinism
        assumptions (i)/(ii) of Section 3.1 are violated.
        """
        key = (state, task)
        cached = self._step_cache.get(key, _MISSING)
        if cached is not _MISSING:
            return cached
        transitions = self.system.enabled(state, task)
        if len(transitions) > 1:
            raise _nondeterminism(task, len(transitions))
        result = None
        if transitions:
            result = (transitions[0].action, transitions[0].post)
        self._step_cache[key] = result
        return result

    def apply(self, state: State, task: Task) -> State:
        """``e(s)``: the state after running ``task``; raises if inapplicable."""
        step = self.step(state, task)
        if step is None:
            raise ValueError(f"task {task} is not applicable")
        return step[1]

    def action_of(self, state: State, task: Task) -> Action:
        """``action(e, s)``: the action ``task`` performs in ``state``."""
        step = self.step(state, task)
        if step is None:
            raise ValueError(f"task {task} is not applicable")
        return step[0]

    def applicable(self, state: State, task: Task) -> bool:
        """Task applicability (Lemma 1 terminology)."""
        return self.step(state, task) is not None

    def applicable_tasks(self, state: State) -> list[Task]:
        """All tasks applicable in ``state``."""
        return [task for task in self.tasks if self.applicable(state, task)]

    def successors(self, state: State) -> list[tuple[Task, Action, State]]:
        """All task-labeled successor states, in :attr:`tasks` order.

        Built by ``system.enabled_steps`` from the composition's
        per-component memo.  The Section 3.1 determinism check is the
        same as :meth:`step`'s: the triples of one task are adjacent, so
        a repeated task means several enabled transitions.
        """
        out = self.system.enabled_steps(state)
        previous = None
        for task, _, _ in out:
            if task is previous:
                raise _nondeterminism(task, sum(1 for t, _, _ in out if t is task))
            previous = task
        return out

    def trim_caches(self, limit: int) -> int:
        """Clear the composition's transition memo once it exceeds ``limit``.

        Returns the entries freed.  The store-backed engine calls this on
        every expansion, so a disk-backed run keeps no unbounded cache of decoded components.
        """
        return self.system.trim_memo(limit)

    # -- participants (Section 2.2.3 / Lemma 8) -----------------------------------

    def participants(self, state: State, task: Task) -> tuple[str, ...]:
        """``participants(e, s)``: names of automata sharing ``action(e, s)``.

        For any non-``fail`` action there are at most two participants; if
        two, they are a process and a service (Section 2.2.3).
        """
        action = self.action_of(state, task)
        return tuple(
            component.name for component in self.system.participants(action)
        )

    # -- execution replay ------------------------------------------------------------

    def run_task_sequence(
        self, start: State, task_sequence: Sequence[Task], strict: bool = True
    ) -> Execution:
        """Apply a task sequence, the way the proofs replay ``rho``.

        With ``strict`` (the default), an inapplicable task raises; with
        ``strict=False``, inapplicable tasks are skipped — the behavior
        needed when replaying a ``gamma'`` whose dummy steps were removed.
        """
        execution = Execution(start)
        for task in task_sequence:
            step = self.step(execution.final_state, task)
            if step is None:
                if strict:
                    raise ValueError(f"task {task} not applicable during replay")
                continue
            execution = execution.extend(step[0], step[1], task)
        return execution

    # -- decision bookkeeping ----------------------------------------------------------

    def decisions(self, state: State) -> dict[Hashable, Hashable]:
        """The recorded decisions in ``state`` (see Section 2.2.1)."""
        return self.system.decisions(state)

    def decision_values(self, state: State) -> frozenset:
        """The set of values decided in ``state``."""
        return self.system.decision_values(state)

    def check_failure_free(self, state: State) -> None:
        """Assert that no process has failed in ``state``."""
        failed = self.system.failed_processes(state)
        if failed:
            raise ValueError(
                f"state has failed processes {sorted(failed)!r}; the "
                "deterministic view is defined over failure-free executions"
            )


_MISSING = object()


def _nondeterminism(task: Task, count: int) -> NondeterminismError:
    return NondeterminismError(
        f"task {task} has {count} enabled transitions; "
        "the Section 3.1 determinism assumptions do not hold "
        "(restrict the protocol or the sequential type first)"
    )
