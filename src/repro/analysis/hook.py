"""The hook construction (Figs. 2-3, Lemma 5) and its refutation (Lemma 8).

A *hook* is the pattern of Fig. 2: a bivalent execution ``alpha`` and two
tasks ``e``, ``e'`` such that ``e(alpha)`` is univalent with one valence
while ``e(e'(alpha))`` is univalent with the other.

:func:`find_hook` runs the path construction of Fig. 3 literally:
starting from a bivalent vertex, repeatedly take the next round-robin
task ``e`` applicable to the current execution and search (over paths
free of ``e``-labeled edges) for a descendant ``alpha'`` with
``e(alpha')`` bivalent; follow it if found, otherwise the termination of
the construction localizes a hook along the path to an opposite-deciding
descendant.  Because this library explores *finite* instances, the
construction has a third possible outcome the paper's proof rules out
for correct systems: revisiting a (state, round-robin cursor)
configuration, which pins down an **infinite fair failure-free execution
through bivalent states** — a constructive violation of the termination
property (no process ever decides on it).  That witness is returned as
:class:`FairCycle`.

:func:`lemma8_case_analysis` then executes the case analysis of Lemma 8
on a concrete hook: it computes the participants of the two tasks,
identifies which claim applies, verifies the claimed commutation or
similarity *concretely* on the instance's states, and returns the
resulting :class:`~repro.analysis.similarity.SimilarityViolation` (fed to
the refutation engine) or commutation witness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Sequence

from ..ioa.automaton import State, Task
from ..obs.events import HOOK_VERDICT, encode_value
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.sinks import NULL_TRACER, Tracer
from ..system.system import DistributedSystem
from .similarity import SimilarityViolation, j_similar, k_similar
from .valence import Valence, ValenceAnalysis
from .view import DeterministicSystemView


@dataclass(frozen=True)
class Hook:
    """A concrete hook (Fig. 2) found in the explored graph.

    ``e(alpha) = s0`` has valence ``valence0`` and
    ``e(e_prime(alpha)) = s1`` has the opposite valence ``valence1``.
    """

    alpha: State
    e: Task
    e_prime: Task
    s0: State
    alpha_prime: State
    s1: State
    valence0: Valence
    valence1: Valence

    def summary(self) -> str:
        """One-line human summary (the shared report protocol)."""
        return (
            f"hook: e={self.e.owner}/{self.e.name!r} "
            f"e'={self.e_prime.owner}/{self.e_prime.name!r} "
            f"({self.valence0.value} vs {self.valence1.value})"
        )

    def to_json(self) -> dict:
        """JSON-serializable payload (the shared report protocol)."""
        return {
            "kind": "hook",
            "e": encode_value(self.e),
            "e_prime": encode_value(self.e_prime),
            "valence0": self.valence0.value,
            "valence1": self.valence1.value,
        }


@dataclass
class FairCycle:
    """An infinite fair failure-free execution through bivalent states.

    ``prefix_tasks`` leads from the start state to the cycle;
    ``cycle_tasks``/``cycle_states`` describe one period.  Every task of
    the system either occurs in the period or is inapplicable somewhere
    in it (fairness), no state in it records a decision, and all states
    are bivalent — so following the cycle forever is a fair failure-free
    execution on which no process ever decides.
    """

    prefix_tasks: list[Task]
    cycle_tasks: list[Task]
    cycle_states: list[State]
    decisions_on_cycle: frozenset

    def summary(self) -> str:
        """One-line human summary (the shared report protocol)."""
        return (
            f"fair cycle: period {len(self.cycle_tasks)} after "
            f"{len(self.prefix_tasks)}-task prefix, no decisions on cycle"
        )

    def to_json(self) -> dict:
        """JSON-serializable payload (the shared report protocol)."""
        return {
            "kind": "fair_cycle",
            "prefix_length": len(self.prefix_tasks),
            "cycle_length": len(self.cycle_tasks),
            "cycle_tasks": [encode_value(task) for task in self.cycle_tasks],
            "decisions_on_cycle": encode_value(self.decisions_on_cycle),
        }


@dataclass
class HookSearchStats:
    """Instrumentation of the Fig. 3 construction."""

    outer_iterations: int = 0
    inner_bfs_expansions: int = 0
    path_length: int = 0


def _bivalent_e_free_search(
    analysis: ValenceAnalysis,
    start: State,
    e: Task,
):
    """Fig. 3 inner search.

    BFS from ``start`` over bivalent states using only non-``e`` edges,
    for a state ``alpha'`` with ``e(alpha')`` bivalent.  (Restricting to
    bivalent intermediate states is sound: a predecessor of a bivalent
    state is bivalent.)  Returns ``(alpha', path_tasks, expansions)`` or
    ``(None, None, expansions)``.
    """
    view = analysis.view
    expansions = 0
    parents: dict[State, tuple[State, Task]] = {}
    seen = {start}
    frontier: deque = deque([start])
    while frontier:
        state = frontier.popleft()
        expansions += 1
        step = view.step(state, e)
        if step is not None and analysis.is_bivalent(step[1]):
            path: list[Task] = []
            cursor = state
            while cursor != start:
                previous, task_used = parents[cursor]
                path.append(task_used)
                cursor = previous
            path.reverse()
            return state, path, expansions
        for task, _, successor in analysis.successors_of(state):
            if task == e or successor in seen:
                continue
            if not analysis.is_bivalent(successor):
                continue
            seen.add(successor)
            parents[successor] = (state, task)
            frontier.append(successor)
    return None, None, expansions


def _locate_hook_along_path(
    analysis: ValenceAnalysis,
    alpha: State,
    e: Task,
) -> Hook:
    """Termination case of Fig. 3: localize the hook (proof of Lemma 5).

    ``e(alpha)`` is univalent, say of valence ``v``; since ``alpha`` is
    bivalent there is a descendant deciding the opposite value.  Walking
    the path to it, there is a first adjacent pair ``sigma_j,
    sigma_{j+1}`` with ``e(sigma_j)`` of valence ``v`` and
    ``e(sigma_{j+1})`` of the opposite valence (stopping, per the proof's
    second case, no later than the first ``e``-labeled edge).
    """
    view = analysis.view
    base = view.step(alpha, e)
    assert base is not None, "hook task must be applicable at alpha"
    valence_v = analysis.valence(base[1])
    assert valence_v.is_univalent, "Fig. 3 termination implies e(alpha) univalent"

    # BFS to a state from which only the opposite value is reachable via
    # e-images: we search for the first adjacent flip along a shortest
    # path to a state whose e-image has the opposite valence.
    parents: dict[State, tuple[State, Task]] = {}
    seen = {alpha}
    frontier: deque = deque([alpha])
    target: State | None = None
    while frontier:
        state = frontier.popleft()
        for task, _, successor in analysis.successors_of(state):
            if successor in seen:
                continue
            seen.add(successor)
            parents[successor] = (state, task)
            step = view.step(successor, e)
            if step is not None:
                valence_here = analysis.valence(step[1])
                if valence_here.is_univalent and valence_here is not valence_v:
                    target = successor
                    frontier.clear()
                    break
            frontier.append(successor)
    if target is None:
        raise RuntimeError(
            "Fig. 3 termination without a flip state: the explored graph "
            "is inconsistent with bivalence of alpha"
        )
    # Reconstruct the path alpha -> target and find the first flip pair.
    path: list[tuple[State, Task, State]] = []
    cursor = target
    while cursor != alpha:
        previous, task_used = parents[cursor]
        path.append((previous, task_used, cursor))
        cursor = previous
    path.reverse()
    for previous, task_used, successor in path:
        pre_step = view.step(previous, e)
        post_step = view.step(successor, e)
        if pre_step is None or post_step is None:
            continue
        pre_valence = analysis.valence(pre_step[1])
        post_valence = analysis.valence(post_step[1])
        if (
            pre_valence is valence_v
            and post_valence.is_univalent
            and post_valence is not valence_v
        ):
            return Hook(
                alpha=previous,
                e=e,
                e_prime=task_used,
                s0=pre_step[1],
                alpha_prime=successor,
                s1=post_step[1],
                valence0=pre_valence,
                valence1=post_valence,
            )
    raise RuntimeError("no adjacent valence flip found along the path")


def find_hook(
    analysis: ValenceAnalysis,
    start: State,
    max_iterations: int = 1_000_000,
    tracer: Tracer = NULL_TRACER,
    metrics: MetricsRegistry = NULL_METRICS,
    *,
    budget=None,
) -> tuple[Hook | FairCycle, HookSearchStats]:
    """Run the Fig. 3 construction from a bivalent start state.

    Returns either a :class:`Hook` (the construction terminated — Lemma 5)
    or a :class:`FairCycle` (the construction runs forever — a direct
    termination violation, impossible for systems that truly solve
    consensus, which is exactly the dichotomy of the paper's argument).

    ``budget`` may be a :class:`repro.engine.Budget`: its
    ``deadline_seconds`` starts a fresh wall-clock deadline, checked once
    per outer iteration, which raises
    :class:`~repro.engine.budget.BudgetExhausted` when it runs out
    mid-search.
    """
    # Lazy: repro.engine imports this package at load time.
    from ..engine.budget import Deadline

    deadline = Deadline(None if budget is None else budget.deadline_seconds)
    reduction = getattr(analysis, "reduction", None)
    if reduction is not None and getattr(reduction, "por", False):
        # POR only preserves *reachability* facts (decision sets); the
        # hook construction needs every single-step edge, which ample
        # sets deliberately drop.  Symmetry alone is fine: the walk uses
        # raw steps and canonicalizes valence lookups only.
        raise ValueError(
            "hook search requires an analysis without partial-order "
            "reduction (symmetry-only is supported)"
        )
    if not analysis.is_bivalent(start):
        raise ValueError("hook search must start from a bivalent state")
    view = analysis.view
    tasks = view.tasks
    stats = HookSearchStats()
    state = start
    cursor = 0
    trace: list[tuple[State, int]] = []
    seen_configs: dict[tuple[State, int], int] = {}
    path_tasks: list[Task] = []
    for _ in range(max_iterations):
        if deadline.enabled:
            deadline.check(stats.outer_iterations, stats.inner_bfs_expansions)
        config = (state, cursor)
        if config in seen_configs:
            start_index = seen_configs[config]
            cycle_tasks = path_tasks[start_index:]
            cycle_states = [pair[0] for pair in trace[start_index:]]
            decisions = frozenset().union(
                *(view.decision_values(s) for s in cycle_states)
            )
            _record_hook_search(
                tracer,
                metrics,
                stats,
                outcome="fair-cycle",
                cycle_length=len(cycle_tasks),
            )
            return (
                FairCycle(
                    prefix_tasks=path_tasks[:start_index],
                    cycle_tasks=cycle_tasks,
                    cycle_states=cycle_states,
                    decisions_on_cycle=decisions,
                ),
                stats,
            )
        seen_configs[config] = len(path_tasks)
        trace.append(config)
        stats.outer_iterations += 1
        # Next round-robin task applicable to the current state.
        e: Task | None = None
        for offset in range(len(tasks)):
            candidate = tasks[(cursor + offset) % len(tasks)]
            if view.applicable(state, candidate):
                e = candidate
                cursor = (cursor + offset + 1) % len(tasks)
                break
        assert e is not None, "process tasks are always applicable"
        alpha_prime, inner_path, expansions = _bivalent_e_free_search(
            analysis, state, e
        )
        stats.inner_bfs_expansions += expansions
        if alpha_prime is None:
            hook = _locate_hook_along_path(analysis, state, e)
            stats.path_length = len(path_tasks)
            _record_hook_search(tracer, metrics, stats, outcome="hook")
            return hook, stats
        path_tasks.extend(inner_path)
        path_tasks.append(e)
        # Extend the trace with the intermediate configurations so cycle
        # detection sees every visited state (cursor unchanged within the
        # inner path).
        intermediate = state
        for task in inner_path:
            intermediate = view.apply(intermediate, task)
            trace.append((intermediate, cursor))
            stats.outer_iterations += 0  # intermediates are not iterations
        state = view.apply(intermediate, e)
    raise RuntimeError(f"hook search exceeded {max_iterations} iterations")


def _record_hook_search(
    tracer: Tracer,
    metrics: MetricsRegistry,
    stats: HookSearchStats,
    outcome: str,
    cycle_length: int = 0,
) -> None:
    """Publish a finished Fig. 3 search to the observability layer."""
    if tracer.enabled:
        tracer.emit(
            HOOK_VERDICT,
            outcome=outcome,
            outer_iterations=stats.outer_iterations,
            inner_bfs_expansions=stats.inner_bfs_expansions,
            path_length=stats.path_length,
            cycle_length=cycle_length,
        )
    if metrics.enabled:
        metrics.counter("hook.searches").inc()
        metrics.counter("hook.outer_iterations").inc(stats.outer_iterations)
        metrics.counter("hook.inner_bfs_expansions").inc(stats.inner_bfs_expansions)
        metrics.gauge("hook.last_path_length").set(stats.path_length)


# ---------------------------------------------------------------------------
# Lemma 8: executable case analysis
# ---------------------------------------------------------------------------


@dataclass
class Lemma8Report:
    """The outcome of running Lemma 8's case analysis on a concrete hook.

    ``claim`` names the paper's claim/case that applied.  When the case
    concludes "the tasks commute", ``commuted`` is True and the
    commutation was verified concretely (``e'(s0) == s1``); a deciding
    system cannot have this (opposite valences), so on a doomed candidate
    it feeds the refutation as an *identical-states* violation.  When the
    case concludes similarity, ``violation`` carries the verified
    similar pair of opposite valence (Lemma 6/7 violation).
    """

    hook: Hook
    claim: str
    shared_participants: tuple[str, ...]
    commuted: bool
    violation: SimilarityViolation | None

    def summary(self) -> str:
        """One-line human summary (the shared report protocol)."""
        outcome = "commuted" if self.commuted else "similarity violation"
        shared = ", ".join(self.shared_participants) or "none"
        return f"lemma8: {self.claim} -> {outcome} (shared: {shared})"

    def to_json(self) -> dict:
        """JSON-serializable payload (the shared report protocol)."""
        return {
            "claim": self.claim,
            "shared_participants": list(self.shared_participants),
            "commuted": self.commuted,
            "violation": (
                None
                if self.violation is None
                else {
                    "kind": self.violation.kind,
                    "index": encode_value(self.violation.index),
                }
            ),
            "hook": self.hook.to_json(),
        }


def _pending_invocation(system: DistributedSystem, state, service_id, endpoint):
    """Head of a service's invocation buffer for an endpoint, or None."""
    service = system.service(service_id)
    buffer = service.inv_buffer(system.service_state(state, service_id), endpoint)
    return buffer[0] if buffer else None


def lemma8_case_analysis(
    system: DistributedSystem,
    analysis: ValenceAnalysis | DeterministicSystemView | None,
    hook: Hook,
) -> Lemma8Report:
    """Execute the claims of Lemma 8 on a concrete hook.

    Follows the proof's structure: Claim 1 (``e != e'``), Claim 2
    (participants intersect or the tasks commute), Claims 3/4/5 (a shared
    process, resilient service, or register forces either commutation or
    a similar pair of opposite valence).  Every conclusion is *verified
    on the instance* rather than assumed; an :class:`AssertionError` here
    would mean the paper's case analysis failed on this system, which the
    test suite demonstrates never happens.

    ``analysis`` may be a full :class:`ValenceAnalysis`, a bare
    :class:`DeterministicSystemView`, or ``None`` (a fresh view is built)
    — the case analysis itself is structural and needs only the view.
    """
    if analysis is None:
        view = DeterministicSystemView(system)
    elif isinstance(analysis, DeterministicSystemView):
        view = analysis
    else:
        view = analysis.view
    s = hook.alpha
    assert hook.e != hook.e_prime, "Claim 1: the hook tasks must differ"
    action_e = view.action_of(s, hook.e)
    action_e_prime = view.action_of(s, hook.e_prime)
    participants_e = {c.name for c in system.participants(action_e)}
    participants_e_prime = {c.name for c in system.participants(action_e_prime)}
    shared = tuple(sorted(participants_e & participants_e_prime))

    def commute_check() -> bool:
        """Verify e'(s0) == s1 concretely (the 'tasks commute' conclusion)."""
        step = view.step(hook.s0, hook.e_prime)
        return step is not None and step[1] == hook.s1

    if not shared:
        # Claim 2: disjoint participants => the tasks commute.
        commuted = commute_check()
        assert commuted, "Claim 2: disjoint participants must commute"
        return Lemma8Report(
            hook=hook,
            claim="claim2-disjoint-commute",
            shared_participants=shared,
            commuted=True,
            violation=None,
        )

    process_names = {process.name: process for process in system.processes}
    service_names = {service.name: service for service in system.services}
    register_names = {register.name: register for register in system.registers}

    shared_processes = [name for name in shared if name in process_names]
    shared_services = [name for name in shared if name in service_names]
    shared_registers = [name for name in shared if name in register_names]

    if shared_processes:
        # Claim 3: a shared process P_i => s0 and s1 are i-similar.
        i = process_names[shared_processes[0]].endpoint
        similar = j_similar(system, hook.s0, hook.s1, i)
        assert similar, "Claim 3: states must be i-similar for the shared process"
        return Lemma8Report(
            hook=hook,
            claim="claim3-shared-process",
            shared_participants=shared,
            commuted=False,
            violation=SimilarityViolation(
                kind="process", index=i, s0=hook.s0, s1=hook.s1
            ),
        )

    if shared_services:
        # Claim 4: a shared resilient service S_k.
        service = service_names[shared_services[0]]
        k = service.service_id
        only_service = (
            participants_e == {service.name} and participants_e_prime == {service.name}
        )
        if only_service:
            # Case 1: both tasks are perform/compute tasks of S_k =>
            # s0 and s1 are k-similar.
            similar = k_similar(system, hook.s0, hook.s1, k)
            assert similar, "Claim 4.1: states must be k-similar"
            return Lemma8Report(
                hook=hook,
                claim="claim4.1-shared-service-internal",
                shared_participants=shared,
                commuted=False,
                violation=SimilarityViolation(
                    kind="service", index=k, s0=hook.s0, s1=hook.s1
                ),
            )
        # Cases 2-4: at least one task also involves a process => commute.
        commuted = commute_check()
        assert commuted, "Claim 4.2-4: the tasks must commute"
        return Lemma8Report(
            hook=hook,
            claim="claim4.2-4-shared-service-commute",
            shared_participants=shared,
            commuted=True,
            violation=None,
        )

    assert shared_registers, "shared participant must be a process, service or register"
    register = register_names[shared_registers[0]]
    r = register.service_id
    only_register = (
        participants_e == {register.name} and participants_e_prime == {register.name}
    )
    if not only_register:
        # Claim 5 cases 2-4: a process participates in one task => commute.
        commuted = commute_check()
        assert commuted, "Claim 5.2-4: the tasks must commute"
        return Lemma8Report(
            hook=hook,
            claim="claim5.2-4-shared-register-commute",
            shared_participants=shared,
            commuted=True,
            violation=None,
        )
    # Claim 5 case 1: both tasks are perform tasks of the register.  The
    # subcases depend on whether the performed operations read or write.
    endpoint_e = action_e.args[1]
    endpoint_e_prime = action_e_prime.args[1]
    invocation_e = _pending_invocation(system, s, r, endpoint_e)
    invocation_e_prime = _pending_invocation(system, s, r, endpoint_e_prime)

    def is_read(invocation) -> bool:
        return invocation == ("read",)

    if is_read(invocation_e) and is_read(invocation_e_prime):
        # 5.1(a): two reads commute.
        commuted = commute_check()
        assert commuted, "Claim 5.1(a): two reads must commute"
        return Lemma8Report(
            hook=hook,
            claim="claim5.1a-two-reads-commute",
            shared_participants=shared,
            commuted=True,
            violation=None,
        )
    if not is_read(invocation_e):
        # 5.1(b): e performs a write => s0 and s1 differ only in the
        # buffers of e''s endpoint => j-similar for that endpoint.
        j = endpoint_e_prime
        similar = j_similar(system, hook.s0, hook.s1, j)
        assert similar, "Claim 5.1(b): states must be j-similar"
        return Lemma8Report(
            hook=hook,
            claim="claim5.1b-write-first",
            shared_participants=shared,
            commuted=False,
            violation=SimilarityViolation(
                kind="process", index=j, s0=hook.s0, s1=hook.s1
            ),
        )
    # 5.1(c): e reads, e' writes => e'(s0) and s1 are i-similar for e's
    # endpoint (they can differ only in i's response buffer).
    step = view.step(hook.s0, hook.e_prime)
    assert step is not None, "Claim 5.1(c): e' must remain applicable"
    e_prime_s0 = step[1]
    i = endpoint_e
    similar = j_similar(system, e_prime_s0, hook.s1, i)
    assert similar, "Claim 5.1(c): e'(s0) and s1 must be i-similar"
    return Lemma8Report(
        hook=hook,
        claim="claim5.1c-read-then-write",
        shared_participants=shared,
        commuted=False,
        violation=SimilarityViolation(
            kind="process", index=i, s0=e_prime_s0, s1=hook.s1
        ),
    )


def enumerate_hooks(
    analysis: ValenceAnalysis,
    max_hooks: int | None = None,
) -> list[Hook]:
    """Enumerate EVERY hook pattern in the explored graph.

    A hook (Fig. 2) at state ``alpha`` is a pair of tasks ``e``, ``e'``
    with ``e(alpha)`` univalent of one valence and ``e(e'(alpha))``
    univalent of the other.  The Fig. 3 construction finds *one* hook;
    this enumerator finds them all, so the test suite can run Lemma 8's
    case analysis over every hook an instance exhibits and verify the
    case analysis never fails — a much stronger check than a single
    witness.
    """
    view = analysis.view
    hooks: list[Hook] = []
    for alpha in analysis.graph.states:
        if not analysis.is_bivalent(alpha):
            continue
        successors = analysis.graph.successors(alpha)
        images = {task: post for task, _, post in successors}
        for e, _, s0 in successors:
            valence0 = analysis.valence(s0)
            if not valence0.is_univalent:
                continue
            for e_prime, _, alpha_prime in successors:
                if e_prime == e:
                    continue
                step = view.step(alpha_prime, e)
                if step is None:
                    continue
                s1 = step[1]
                valence1 = analysis.valence(s1)
                if not valence1.is_univalent or valence1 is valence0:
                    continue
                hooks.append(
                    Hook(
                        alpha=alpha,
                        e=e,
                        e_prime=e_prime,
                        s0=s0,
                        alpha_prime=alpha_prime,
                        s1=s1,
                        valence0=valence0,
                        valence1=valence1,
                    )
                )
                if max_hooks is not None and len(hooks) >= max_hooks:
                    return hooks
    return hooks
