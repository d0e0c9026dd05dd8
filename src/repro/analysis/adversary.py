"""The end-to-end boosting adversary (Theorems 2, 9, 10, executable).

Given a *candidate* system — processes plus canonical ``f``-resilient
services and reliable registers that claims to solve
``(f+1)``-resilient consensus — :func:`refute_candidate` runs the
paper's whole argument as a pipeline and returns a machine-checkable
verdict:

1. **Lemma 4**: construct the initialization chain and find a bivalent
   initialization (or, failing that, a directly broken one: a blocked
   initialization is already a failure-free termination violation).
2. **Lemma 5 / Fig. 3**: run the hook construction from the bivalent
   initialization.  On a finite instance the construction either finds a
   hook or finds a (state, cursor) cycle — an infinite *fair*,
   *failure-free* execution through bivalent (hence undecided) states,
   i.e. a termination violation with zero failures.
3. **Lemma 8**: if a hook was found, execute the case analysis, which on
   canonical services always lands in a similarity case, producing a
   pair of similar states of opposite valence.
4. **Lemmas 6/7**: run the constructive refutation from the similar
   pair: fail ``f + 1`` processes, silence the exceeded services, run
   fairly — and certify either a termination violation or a decision
   contradiction.

For systems too large to explore exhaustively,
:func:`bounded_undecided_run` provides the bounded adversary used by the
benchmarks: a fair decision-avoiding scheduler that keeps the candidate
undecided for as many steps as the budget allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Hashable

from ..ioa.automaton import State, Task
from ..obs.events import PHASE
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.sinks import NULL_TRACER, Tracer
from ..obs.spans import end_span, span as _span, start_span
from ..system.system import DistributedSystem
from .hook import FairCycle, Hook, Lemma8Report, find_hook, lemma8_case_analysis
from .refutation import (
    DecisionContradiction,
    RefutationOutcome,
    TerminationViolation,
    refute_from_similarity,
)
from .valence import (
    Lemma4Result,
    Valence,
    analyze_valence,
    lemma4_bivalent_initialization,
)
from .view import DeterministicSystemView


@dataclass
class Verdict:
    """The outcome of the full adversary pipeline on a candidate.

    ``refuted`` is True when the pipeline produced a concrete violation
    of the candidate's (f+1)-resilient consensus claim.  ``mechanism``
    names which stage produced it:

    * ``"blocked-initialization"`` — some initialization has no deciding
      failure-free extension at all;
    * ``"fair-bivalent-cycle"`` — the Fig. 3 construction runs forever
      (failure-free fair undecided execution);
    * ``"similarity-termination"`` — Lemma 6/7 attack: survivors of
      ``f + 1`` failures never decide;
    * ``"similarity-contradiction"`` — Lemma 6/7 replay produced
      contradictory decisions (a safety-level break).
    """

    refuted: bool
    mechanism: str
    lemma4: Lemma4Result | None = None
    hook: Hook | None = None
    fair_cycle: FairCycle | None = None
    lemma8: Lemma8Report | None = None
    refutation: RefutationOutcome | None = None
    detail: str = ""

    def summary(self) -> str:
        """One-line human summary (the shared report protocol)."""
        status = "refuted" if self.refuted else "not refuted"
        return f"verdict: {status} via {self.mechanism}: {self.detail}"

    def to_json(self) -> dict:
        """JSON-serializable payload (the shared report protocol).

        Nested stage results are included through their own ``to_json``
        whenever the stage ran, so one document captures the whole
        pipeline.
        """
        return {
            "refuted": self.refuted,
            "mechanism": self.mechanism,
            "detail": self.detail,
            "lemma4": None if self.lemma4 is None else self.lemma4.to_json(),
            "hook": None if self.hook is None else self.hook.to_json(),
            "fair_cycle": (
                None if self.fair_cycle is None else self.fair_cycle.to_json()
            ),
            "lemma8": None if self.lemma8 is None else self.lemma8.to_json(),
            "refutation": (
                None if self.refutation is None else self.refutation.to_json()
            ),
        }


def default_resilience(system: DistributedSystem) -> int:
    """The theorem's ``f``: the common resilience of the resilient services.

    When the system has no resilient services (registers only — the FLP
    setting) the theorem instance is ``f = 0``.
    """
    if not system.services:
        return 0
    return min(service.resilience for service in system.services)


def refute_candidate(
    system: DistributedSystem,
    resilience: int | None = None,
    *,
    horizon: int = 100_000,
    failure_aware_services: Collection[Hashable] = (),
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
    engine=None,
    reduction=None,
    budget=None,
    store=None,
) -> Verdict:
    """Run the full Theorem 2/9/10 adversary pipeline against a candidate.

    ``budget`` is a :class:`repro.engine.Budget` bounding every
    exploration of the pipeline (default ``Budget(max_states=200_000)``);
    when it carries a deadline, each post-exploration stage (hook search,
    silencing runs) also gets a fresh wall-clock allowance of
    ``deadline_seconds``.

    ``tracer``/``metrics`` (defaulting to the disabled singletons) are
    threaded through every stage — Lemma 4 exploration, the Fig. 3 hook
    search, and the Lemma 6/7 silencing runs — so one registry observes
    the whole pipeline and one JSONL trace captures it end to end.

    ``engine`` may be a preconfigured
    :class:`repro.engine.ExplorationEngine`; every exploration of the
    pipeline (the Lemma 4 chain and the hook-search graph) then runs
    through it, gaining its store, checkpointing, and resume behavior.
    When the engine's budget carries a deadline it also bounds the
    post-exploration stages (hook search, silencing runs): each stage
    gets a fresh wall-clock allowance of ``deadline_seconds``, matching
    the per-exploration semantics of :class:`repro.engine.Budget`.

    ``reduction`` may be a :class:`repro.engine.ReductionConfig`.  The
    Lemma 4 chain uses it as given (valence is a pure reachability
    question, so symmetry and POR are both sound there); the hook-search
    exploration strips POR — the Fig. 3 walk needs every single-step
    edge, which ample sets drop — keeping only the symmetry quotient.
    Reduction composes with a store-backed engine: the reduced view is
    what the engine expands, whatever holds the visited set.

    ``store`` selects a :mod:`repro.engine.store` backend (URI string,
    :class:`repro.engine.StoreConfig`, or
    :class:`repro.engine.StateStore`) for every exploration of the
    pipeline; a configured directory is namespaced per exploration by
    root digest.  Mutually exclusive with ``engine`` — a preconfigured
    engine already carries its own store choice.
    """
    # Lazy: repro.engine imports this package at load time.
    from ..engine.budget import DEFAULT_BUDGET

    budget = DEFAULT_BUDGET if budget is None else budget
    if store is not None:
        if engine is not None:
            raise TypeError(
                "pass store= or a preconfigured engine=, not both "
                "(construct the engine with store=... instead)"
            )
        from ..engine import ExplorationEngine

        engine = ExplorationEngine(budget=budget, store=store)
    f = default_resilience(system) if resilience is None else resilience
    if reduction is not None and reduction.enabled:
        import dataclasses as _dataclasses

        hook_reduction = (
            _dataclasses.replace(reduction, por=False) if reduction.symmetry else None
        )
    else:
        reduction = None
        hook_reduction = None

    # The budget that governs the explorations also bounds each
    # post-exploration stage, with a fresh deadline per stage.
    governing = engine.budget if engine is not None else budget

    pipeline_span = start_span(tracer, "pipeline", resilience=f)

    def done(verdict: Verdict) -> Verdict:
        """Close the pipeline span with the verdict's outcome attached."""
        end_span(
            tracer,
            pipeline_span,
            mechanism=verdict.mechanism,
            refuted=verdict.refuted,
        )
        return verdict

    try:
        if tracer.enabled:
            tracer.emit(PHASE, stage="lemma4", resilience=f)
        with _span(tracer, "lemma4", resilience=f):
            lemma4 = lemma4_bivalent_initialization(
                system,
                tracer=tracer,
                metrics=metrics,
                engine=engine,
                reduction=reduction,
                budget=budget,
            )
        if lemma4.bivalent is None:
            # No bivalent initialization: for a correct candidate this is
            # impossible (Lemma 4), so something is already broken.  A blocked
            # initialization is a direct failure-free termination violation.
            blocked = next(
                (entry for entry in lemma4.chain if entry.valence is Valence.BLOCKED),
                None,
            )
            if blocked is not None:
                return done(
                    Verdict(
                        refuted=True,
                        mechanism="blocked-initialization",
                        lemma4=lemma4,
                        detail=(
                            "initialization with assignment "
                            f"{dict(blocked.assignment)!r} has no deciding "
                            "failure-free extension"
                        ),
                    )
                )
            return done(
                Verdict(
                    refuted=False,
                    mechanism="no-bivalent-initialization",
                    lemma4=lemma4,
                    detail=(
                        "all initializations univalent; the candidate dodges the "
                        "bivalence argument on this instance (check validity "
                        "separately)"
                    ),
                )
            )
        start = lemma4.bivalent.execution.final_state
        if tracer.enabled:
            tracer.emit(PHASE, stage="hook-search")
        with _span(tracer, "hook-search"):
            analysis = analyze_valence(
                system,
                start,
                tracer=tracer,
                metrics=metrics,
                engine=engine,
                reduction=hook_reduction,
                budget=budget,
            )
            outcome, stats = find_hook(
                analysis, start, tracer=tracer, metrics=metrics, budget=governing
            )
        if isinstance(outcome, FairCycle):
            return done(
                Verdict(
                    refuted=not outcome.decisions_on_cycle,
                    mechanism="fair-bivalent-cycle",
                    lemma4=lemma4,
                    fair_cycle=outcome,
                    detail=(
                        f"Fig. 3 construction cycles after {len(outcome.prefix_tasks)} "
                        f"steps with period {len(outcome.cycle_tasks)}: an infinite "
                        "fair failure-free execution on which no process decides"
                    ),
                )
            )
        hook = outcome
        report = lemma8_case_analysis(system, analysis, hook)
        if report.violation is None:
            # Commutation cases cannot coexist with a genuine hook (the two
            # endpoint states would be equal, hence equal-valent); reaching
            # this branch means the explored instance contradicts Lemma 8's
            # premises, which the test suite asserts never happens.
            return done(
                Verdict(
                    refuted=False,
                    mechanism="hook-commuted",
                    lemma4=lemma4,
                    hook=hook,
                    lemma8=report,
                    detail=(
                        "hook tasks commuted — inconsistent hook, candidate "
                        "not refuted"
                    ),
                )
            )
        if tracer.enabled:
            tracer.emit(PHASE, stage="refutation", claim=report.claim)
        with _span(tracer, "refutation", claim=report.claim):
            refutation = refute_from_similarity(
                system,
                report.violation,
                resilience=f,
                horizon=horizon,
                failure_aware_services=failure_aware_services,
                tracer=tracer,
                metrics=metrics,
                budget=governing,
            )
        if isinstance(refutation, TerminationViolation):
            mechanism = "similarity-termination"
            refuted = True
            detail = (
                f"failing J={sorted(refutation.victims, key=str)!r} leaves "
                f"survivors undecided "
                f"({'exact cycle' if refutation.exact else 'horizon'})"
            )
        else:
            mechanism = "similarity-contradiction"
            refuted = True
            detail = (
                f"decider {refutation.decider!r} reaches "
                f"{refutation.value_from_s0!r} from the 0-valent side and "
                f"{refutation.value_from_s1!r} from the 1-valent side"
            )
        return done(
            Verdict(
                refuted=refuted,
                mechanism=mechanism,
                lemma4=lemma4,
                hook=hook,
                lemma8=report,
                refutation=refutation,
                detail=detail,
            )
        )
    except BaseException:
        end_span(tracer, pipeline_span, status="error")
        raise


@dataclass
class UndecidedRun:
    """Result of the bounded decision-avoiding adversary."""

    steps: int
    decided: bool
    visited_states: int

    def summary(self) -> str:
        """One-line human summary (the shared report protocol)."""
        outcome = "forced to decide" if self.decided else "still undecided"
        return (
            f"adversary: {outcome} after {self.steps} steps "
            f"({self.visited_states} states visited)"
        )

    def to_json(self) -> dict:
        """JSON-serializable payload (the shared report protocol)."""
        return {
            "steps": self.steps,
            "decided": self.decided,
            "visited_states": self.visited_states,
        }


@dataclass
class ProbeResult:
    """Result of a seeded random fairness probe (see
    :func:`random_decision_probe`)."""

    seed: int
    steps: int
    decisions: dict

    def summary(self) -> str:
        """One-line human summary (the shared report protocol)."""
        if self.decisions:
            decided = ", ".join(
                f"{process}={value!r}" for process, value in self.decisions.items()
            )
            return f"probe[seed={self.seed}]: decided after {self.steps} steps ({decided})"
        return f"probe[seed={self.seed}]: undecided after {self.steps} steps"

    def to_json(self) -> dict:
        """JSON-serializable payload (the shared report protocol)."""
        from ..obs.events import encode_value

        return {
            "seed": self.seed,
            "steps": self.steps,
            "decisions": encode_value(self.decisions),
        }


def random_decision_probe(
    system: DistributedSystem,
    proposals: dict | None = None,
    seed: int = 0,
    max_steps: int = 50_000,
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
) -> ProbeResult:
    """A failure-free sanity run under a seeded random fair schedule.

    Initializes the candidate (alternating 0/1 proposals unless
    ``proposals`` is given) and drives it with a
    :class:`~repro.ioa.scheduler.RandomScheduler` seeded with ``seed``
    until the first decision or ``max_steps``.  The probe is fully
    deterministic given the seed — the reproducibility handle the CLI's
    ``--seed`` flag exposes — and, being driven through the instrumented
    ``run``, any traced probe replays bit-for-bit.
    """
    from ..ioa.scheduler import RandomScheduler, run

    if proposals is None:
        proposals = {
            endpoint: index % 2
            for index, endpoint in enumerate(system.process_ids)
        }
    start = system.initialization(proposals).final_state
    execution = run(
        system,
        RandomScheduler(seed),
        max_steps,
        start=start,
        stop=lambda ex: bool(system.decisions(ex.final_state)),
        tracer=tracer,
        metrics=metrics,
    )
    if metrics.enabled:
        metrics.counter("probe.runs").inc()
        metrics.counter("probe.steps").inc(len(execution))
    return ProbeResult(
        seed=seed,
        steps=len(execution),
        decisions=dict(system.decisions(execution.final_state)),
    )


def bounded_undecided_run(
    system: DistributedSystem,
    start: State,
    metrics: MetricsRegistry = NULL_METRICS,
    *,
    budget=None,
) -> UndecidedRun:
    """A fair scheduler that postpones decisions as long as it can.

    The step bound is ``budget=Budget(max_transitions=...)`` (each
    adversary step is one transition); a missing budget, or one without
    ``max_transitions``, is a :class:`TypeError`.

    Round-robin over tasks, but a task whose unique next action would
    record a decision is skipped whenever any other applicable task
    exists.  ``decided=True`` in the result means the adversary was
    eventually *forced*: it reached a state where every applicable task
    decides.  This mirrors the paper exactly — on a safe candidate the
    failure-free Fig. 3 construction terminates (with a hook), so
    one-sided decision-avoidance cannot stall forever; indefinite
    stalling requires the failure-injecting attacks of
    :mod:`repro.analysis.refutation` (Lemmas 6-7).  The benchmarks use
    this adversary to measure how far decisions can be postponed on
    instances too large for exact valence analysis.
    """
    if budget is None or budget.max_transitions is None:
        raise TypeError(
            "bounded_undecided_run needs budget=Budget(max_transitions=...)"
        )
    max_steps = budget.max_transitions
    view = DeterministicSystemView(system)
    tasks = view.tasks
    state = start
    cursor = 0
    seen = set()
    for step_index in range(max_steps):
        seen.add(state)
        fallback: tuple[int, State] | None = None
        advanced = False
        for offset in range(len(tasks)):
            position = (cursor + offset) % len(tasks)
            task = tasks[position]
            step = view.step(state, task)
            if step is None:
                continue
            _, post = step
            if view.decisions(post) != view.decisions(state):
                if fallback is None:
                    fallback = (position, post)
                continue
            state = post
            cursor = (position + 1) % len(tasks)
            advanced = True
            break
        if not advanced:
            if fallback is None:
                return UndecidedRun(
                    steps=step_index, decided=False, visited_states=len(seen)
                )
            position, post = fallback
            state = post
            cursor = (position + 1) % len(tasks)
            return UndecidedRun(
                steps=step_index + 1, decided=True, visited_states=len(seen)
            )
    return UndecidedRun(steps=max_steps, decided=False, visited_states=len(seen))
