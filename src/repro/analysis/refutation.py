"""Constructive refutation of boosting candidates (Lemmas 6-7, executable).

The proofs of Lemmas 6 and 7 are constructive: from a univalent execution
they build a *fair failing extension* — fail a chosen set ``J`` of
``f + 1`` processes up front, let every service take dummy steps for the
failed endpoints (silencing services whose resilience is exceeded), and
run fairly.  For a system that truly solves ``(f+1)``-resilient
consensus, a survivor must decide, and replaying the same task sequence
after the similar state forces the opposite-valence contradiction.  For
a *doomed candidate*, exactly one of two things happens instead, and
this module detects both:

* **no survivor ever decides** — detected exactly on finite instances by
  finding a cycle in the (state, scheduler-cursor) space of the fair
  silencing schedule: a concrete infinite fair execution with ``f + 1``
  failures and no decision, i.e. a termination violation;
* **a survivor decides**, and replaying the decision-producing task
  sequence after the other (opposite-valent) similar state yields a
  decision contradicting that valence — i.e. the candidate reaches both
  decisions from states it cannot distinguish, a safety contradiction.

The same machinery powers the Theorem 9 and Theorem 10 variants: for
failure-oblivious services the silencing rule is per Fig. 4's
``dummy_compute`` preconditions, and for failure-aware services
(Section 6.3) every general service is silenced outright — possible
precisely because each is connected to all processes, so any ``f + 1``
failures exceed its resilience.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Hashable, Sequence

from ..ioa.actions import Action, is_dummy
from ..ioa.automaton import State, Task
from ..ioa.execution import Execution
from ..obs.events import (
    ACTION_FIRED,
    FAILURE_INJECTED,
    RUN_END,
    RUN_START,
    TASK_CHOSEN,
    encode_value,
)
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.sinks import NULL_TRACER, Tracer
from ..system.system import DistributedSystem
from .similarity import SimilarityViolation
from .view import DeterministicSystemView


@dataclass
class TerminationViolation:
    """A fair execution with at most ``f + 1`` failures and no decision.

    ``exact`` is True when a (state, cursor) cycle was found — the
    witness then denotes a genuinely infinite fair execution; otherwise
    the run merely exhausted the horizon while remaining undecided.
    """

    victims: frozenset
    steps_run: int
    exact: bool
    cycle_length: int
    survivors: frozenset
    description: str

    def summary(self) -> str:
        """One-line human summary (the shared report protocol)."""
        witness = (
            f"cycle of period {self.cycle_length}"
            if self.exact
            else f"undecided after {self.steps_run} steps"
        )
        victims = ", ".join(str(v) for v in sorted(self.victims, key=str))
        return f"termination violation: {witness} (victims: {victims})"

    def to_json(self) -> dict:
        """JSON-serializable payload (the shared report protocol)."""
        return {
            "kind": "termination_violation",
            "victims": encode_value(self.victims),
            "survivors": encode_value(self.survivors),
            "steps_run": self.steps_run,
            "exact": self.exact,
            "cycle_length": self.cycle_length,
            "description": self.description,
        }


@dataclass
class DecisionContradiction:
    """Replaying a deciding schedule after a similar state flips the decision.

    ``value_from_s0`` is the survivor's decision in the failing extension
    of the 0-valent state; ``value_from_s1`` is what the replay after the
    1-valent similar state produced.  At least one of the two runs
    contradicts its state's valence — a safety-level contradiction in the
    candidate.
    """

    victims: frozenset
    decider: Hashable
    value_from_s0: Hashable
    value_from_s1: Hashable | None
    replay_decided: bool

    def summary(self) -> str:
        """One-line human summary (the shared report protocol)."""
        replay = (
            f"decided {self.value_from_s1!r}"
            if self.replay_decided
            else "never decided"
        )
        return (
            f"decision contradiction: {self.decider} decided "
            f"{self.value_from_s0!r} from s0, replay from s1 {replay}"
        )

    def to_json(self) -> dict:
        """JSON-serializable payload (the shared report protocol)."""
        return {
            "kind": "decision_contradiction",
            "victims": encode_value(self.victims),
            "decider": encode_value(self.decider),
            "value_from_s0": encode_value(self.value_from_s0),
            "value_from_s1": encode_value(self.value_from_s1),
            "replay_decided": self.replay_decided,
        }


RefutationOutcome = TerminationViolation | DecisionContradiction


@dataclass
class _SilencedRunResult:
    """Outcome of a fair silencing run: decision or cycle or horizon.

    When a cycle is found, ``cycle_start_step`` indexes the execution
    step where the repeating segment begins (after the leading fail
    actions), so callers can package the witness as a
    :class:`repro.ioa.Lasso` and check its fairness independently.
    """

    execution: Execution
    task_sequence: list[Task]
    decision: tuple[Hashable, Hashable] | None  # (decider, value)
    cycle_found: bool
    cycle_length: int
    cycle_start_step: int = 0

    def as_lasso(self):
        """The witness as a stem + repeating cycle (requires a cycle)."""
        from ..ioa.execution import Lasso

        if not self.cycle_found:
            raise ValueError("no cycle was found in this run")
        stem = self.execution.prefix(self.cycle_start_step)
        cycle = self.execution.steps[self.cycle_start_step :]
        return Lasso(stem=stem, cycle=cycle)


def run_silenced(
    system: DistributedSystem,
    start: State,
    victims: Collection[Hashable],
    silenced_services: Collection[Hashable],
    max_steps: int,
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
    deadline=None,
) -> _SilencedRunResult:
    """The fair failing extension ``beta`` of Lemmas 6-7.

    From ``start``: apply ``fail_i`` for every victim, then run a
    round-robin fair schedule in which (a) service tasks for victim
    endpoints take their dummy transition, (b) every task of a service in
    ``silenced_services`` takes its dummy transition, and (c) everything
    else runs normally.  Stops at the first decision by a survivor, on
    detecting a (state, cursor) cycle (an exact infinite fair execution),
    or at ``max_steps``.

    With ``tracer`` enabled the run emits the same replay protocol as
    :func:`repro.ioa.scheduler.run` (``run_start``, ``action_fired`` for
    the leading fails, ``task_chosen`` with the action each step fired,
    ``run_end``), so a traced counterexample replays bit-for-bit through
    :mod:`repro.obs.replay` — including the dummy transitions that a
    task-only replay would miss.
    """
    victims = frozenset(victims)
    silenced = frozenset(silenced_services)
    tracing = tracer.enabled
    if tracing:
        tracer.emit(
            RUN_START,
            op="run_silenced",
            victims=victims,
            silenced=silenced,
            max_steps=max_steps,
        )
    execution = Execution(start)
    # beta begins with the f + 1 fail actions.
    for victim in sorted(victims, key=str):
        action = Action("fail", (victim,))
        post = system.apply_input(execution.final_state, action)
        execution = execution.extend(action, post, task=None)
        if tracing:
            tracer.emit(ACTION_FIRED, process=victim, action=action, step=0)
            tracer.emit(FAILURE_INJECTED, process=victim, endpoint=victim)
    baseline_decided = dict(system.decisions(execution.final_state))
    tasks = tuple(system.tasks())
    component_of_task = {}
    for component in system.services + system.registers:
        for task in component.tasks():
            component_of_task[task] = component
    cursor = 0
    seen: dict[tuple[State, int], int] = {}
    task_sequence: list[Task] = []
    for step_count in range(max_steps):
        if (
            deadline is not None
            and deadline.enabled
            and step_count % 1024 == 0
        ):
            deadline.check(transitions=step_count)
        state = execution.final_state
        config = (state, cursor)
        if config in seen:
            cycle_start = seen[config]
            _finish_silenced(tracer, metrics, task_sequence, outcome="cycle")
            return _SilencedRunResult(
                execution=execution,
                task_sequence=task_sequence,
                decision=None,
                cycle_found=True,
                cycle_length=len(task_sequence) - cycle_start,
                cycle_start_step=len(victims) + cycle_start,
            )
        seen[config] = len(task_sequence)
        chosen: tuple[Task, Action, State] | None = None
        for offset in range(len(tasks)):
            task = tasks[(cursor + offset) % len(tasks)]
            transitions = system.enabled(state, task)
            if not transitions:
                continue
            component = component_of_task.get(task)
            prefer_dummy = False
            if component is not None:
                endpoint = task.name[1] if task.name[0] in ("perform", "output") else None
                if component.service_id in silenced:
                    prefer_dummy = True
                elif endpoint is not None and endpoint in victims:
                    prefer_dummy = True
            selected = None
            for transition in transitions:
                if prefer_dummy == is_dummy(transition.action):
                    selected = transition
                    break
            if selected is None:
                selected = transitions[0]
            chosen = (task, selected.action, selected.post)
            cursor = (cursor + offset + 1) % len(tasks)
            break
        if chosen is None:
            break
        task, action, post = chosen
        execution = execution.extend(action, post, task)
        task_sequence.append(task)
        if tracing:
            tracer.emit(
                TASK_CHOSEN,
                process=task.owner,
                task=task,
                action=action,
                step=step_count,
            )
        decisions = system.decisions(post)
        for decider, value in decisions.items():
            if decider in victims:
                continue
            if baseline_decided.get(decider) == value:
                continue
            _finish_silenced(tracer, metrics, task_sequence, outcome="decision")
            return _SilencedRunResult(
                execution=execution,
                task_sequence=task_sequence,
                decision=(decider, value),
                cycle_found=False,
                cycle_length=0,
            )
    _finish_silenced(tracer, metrics, task_sequence, outcome="horizon")
    return _SilencedRunResult(
        execution=execution,
        task_sequence=task_sequence,
        decision=None,
        cycle_found=False,
        cycle_length=0,
    )


def _finish_silenced(
    tracer: Tracer,
    metrics: MetricsRegistry,
    task_sequence: Sequence[Task],
    outcome: str,
) -> None:
    """Close the replay bracket and record counters for a silenced run."""
    if tracer.enabled:
        tracer.emit(RUN_END, op="run_silenced", steps=len(task_sequence), outcome=outcome)
    if metrics.enabled:
        metrics.counter("refute.silenced_runs").inc()
        metrics.counter("refute.silenced_steps").inc(len(task_sequence))


def choose_victims_for_process(
    system: DistributedSystem, j: Hashable, resilience: int
) -> frozenset:
    """The set ``J`` of Lemma 6: ``j`` plus others, ``|J| = f + 1``."""
    victims = [j]
    for endpoint in system.process_ids:
        if len(victims) == resilience + 1:
            break
        if endpoint != j:
            victims.append(endpoint)
    if len(victims) < resilience + 1:
        raise ValueError("not enough processes: need f + 1 victims with f < n - 1")
    return frozenset(victims)


def choose_victims_for_service(
    system: DistributedSystem, k: Hashable, resilience: int
) -> frozenset:
    """The set ``J`` of Lemma 7.

    If ``|J_k| <= f + 1`` then ``J_k`` is a subset of ``J`` (all the
    service's endpoints fail); otherwise ``J`` is a subset of ``J_k``
    (``f + 1`` of its endpoints fail).  Either way the service's dummy
    actions become enabled for every endpoint.
    """
    endpoints = list(system.service(k).endpoints)
    quota = resilience + 1
    if len(endpoints) <= quota:
        victims = list(endpoints)
        for endpoint in system.process_ids:
            if len(victims) == quota:
                break
            if endpoint not in victims:
                victims.append(endpoint)
    else:
        victims = endpoints[:quota]
    if len(victims) < quota:
        raise ValueError("not enough processes: need f + 1 victims with f < n - 1")
    return frozenset(victims)


def silenced_services_for(
    system: DistributedSystem,
    victims: frozenset,
    also: Collection[Hashable] = (),
) -> frozenset:
    """Services whose dummy actions are enabled for every endpoint.

    A service falls silent under the victims set when more than ``f`` of
    its endpoints are victims, or all of its endpoints are.  ``also``
    adds services silenced by construction (e.g. the Lemma 7 target, or
    every failure-aware service in the Theorem 10 variant).
    """
    silenced = set(also)
    for service in system.services:
        failed_here = sum(1 for endpoint in service.endpoints if endpoint in victims)
        if failed_here > service.resilience or failed_here == len(service.endpoints):
            silenced.add(service.service_id)
    return frozenset(silenced)


def _deadline_of(budget):
    """A fresh :class:`repro.engine.Deadline` from ``budget``, or ``None``."""
    if budget is None or budget.deadline_seconds is None:
        return None
    # Lazy: repro.engine imports this package at load time.
    from ..engine.budget import Deadline

    return Deadline(budget.deadline_seconds)


def refute_from_similarity(
    system: DistributedSystem,
    violation: SimilarityViolation,
    resilience: int,
    horizon: int = 100_000,
    failure_aware_services: Collection[Hashable] = (),
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
    *,
    budget=None,
) -> RefutationOutcome:
    """Execute the Lemma 6/7 argument from a similar opposite-valence pair.

    Chooses ``J`` per the appropriate lemma, runs the fair silencing
    extension from the 0-valent state ``s0``, and either certifies a
    termination violation (no survivor decision; exact when a cycle is
    found) or replays the deciding task sequence after ``s1`` to exhibit
    the decision contradiction.  ``failure_aware_services`` lists general
    services to silence outright (the Theorem 10 setting).  ``budget``'s
    ``deadline_seconds``, if any, bounds the silencing run with a fresh
    deadline.
    """
    if violation.kind == "process":
        victims = choose_victims_for_process(system, violation.index, resilience)
        base_silenced: Collection[Hashable] = ()
    else:
        victims = choose_victims_for_service(system, violation.index, resilience)
        base_silenced = (violation.index,)
    silenced = silenced_services_for(
        system, victims, also=tuple(base_silenced) + tuple(failure_aware_services)
    )
    result = run_silenced(
        system,
        violation.s0,
        victims,
        silenced,
        horizon,
        tracer=tracer,
        metrics=metrics,
        deadline=_deadline_of(budget),
    )
    survivors = frozenset(system.process_ids) - victims
    if result.decision is None:
        return TerminationViolation(
            victims=victims,
            steps_run=len(result.task_sequence),
            exact=result.cycle_found,
            cycle_length=result.cycle_length,
            survivors=survivors,
            description=(
                "fair extension with f+1 failures never decides"
                + (" (cycle found: exact infinite execution)" if result.cycle_found else "")
            ),
        )
    decider, value = result.decision
    # Replay gamma' (the non-dummy suffix) after s1, per the lemma.
    view = DeterministicSystemView(system)
    replay_tasks = [
        step.task
        for step in result.execution.steps
        if step.task is not None and not is_dummy(step.action)
    ]
    replay = view.run_task_sequence(violation.s1, replay_tasks, strict=False)
    replay_decisions = view.decisions(replay.final_state)
    replay_value = replay_decisions.get(decider)
    return DecisionContradiction(
        victims=victims,
        decider=decider,
        value_from_s0=value,
        value_from_s1=replay_value,
        replay_decided=replay_value is not None,
    )


def liveness_attack(
    system: DistributedSystem,
    start: State,
    victims: Collection[Hashable],
    horizon: int = 100_000,
    failure_aware_services: Collection[Hashable] = (),
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
    *,
    budget=None,
) -> TerminationViolation | None:
    """Direct liveness attack: fail ``victims`` and run fairly.

    The blunt instrument behind the Theorem 2/9/10 benchmarks: fail the
    chosen ``f + 1`` processes up front and check whether the survivors
    can still decide under a fair schedule in which exceeded services go
    silent.  Returns a :class:`TerminationViolation` when they cannot,
    ``None`` when some survivor decided (the attack failed).

    ``budget``'s ``deadline_seconds``, if any, bounds the run with a
    fresh deadline.
    """
    victims = frozenset(victims)
    silenced = silenced_services_for(
        system, victims, also=tuple(failure_aware_services)
    )
    result = run_silenced(
        system,
        start,
        victims,
        silenced,
        horizon,
        tracer=tracer,
        metrics=metrics,
        deadline=_deadline_of(budget),
    )
    if result.decision is not None:
        return None
    return TerminationViolation(
        victims=victims,
        steps_run=len(result.task_sequence),
        exact=result.cycle_found,
        cycle_length=result.cycle_length,
        survivors=frozenset(system.process_ids) - victims,
        description="direct liveness attack: survivors never decide",
    )
