"""Symmetry and partial-order reduction for the exploration engine.

Every verdict in this library — valence classification, the Lemma 4
chain, the Fig. 3 hook search, the bounded adversary — is decided by
exhaustive reachability over the failure-free task-transition graph, so
the size of that graph is the cost of everything.  This module shrinks
it two ways, both provably verdict-preserving for the queries actually
asked (full argument in ``docs/reduction.md``):

**Symmetry reduction.**  The paper's own similarity arguments (Lemma 8)
lean on process interchangeability; this module makes it operational.
Automata declare their interchangeability class via
``Automaton.symmetry_key`` (``None`` opts out), and services opt in to
endpoint relabeling via ``supports_endpoint_symmetry`` plus the
``permute_state`` hook.  From those declarations
:func:`_symmetry_permutations` builds the group of endpoint
permutations under which the *composition* is invariant, and
:class:`Canonicalizer` restricts it to the stabilizer of the root (the
permutations fixing the inputs-so-far) and maps every state to the
orbit member with the least :func:`~repro.engine.codec.canonical_bytes`
encoding.  Because each permutation is a strong bisimulation of the
task-transition graph that preserves ``decision_values`` (decisions are
collected endpoint-free), exploring the quotient preserves valence,
``reachable_decision_sets``, hook existence, and the refutation
verdicts.  Canonical representatives are genuinely reachable states
(apply the permutation to the path from the root), so every downstream
consumer still sees real states of the system.

**Partial-order reduction.**  An ample-set style task filter built from
a static independence relation: tasks touching disjoint components
commute (``Composition.enabled`` routes a task's writes to its owner
plus the participants of its action), and buffer operations at disjoint
endpoints of one service touch disjoint FIFO slots.  Only two
conservatively-sound ample shapes are used (see ``_ample``): the
pipeline ``compute`` singleton of a declared FIFO-delivery service, and
an endpoint-local invoke/response set.  Both contain only invisible
actions (no decision change), and every ample transition strictly
consumes or produces service-buffer entries that no other ample
transition replenishes, which rules out ample-only cycles (the C3
"ignoring" proviso) by buffer conservation.  The reduction is sound for
reachability/decision-set queries, **not** for general LTL, and must be
off for hook search, which walks raw interleavings; ``find_hook``
refuses a POR-reduced analysis.

``audit_reduction`` is the executable soundness argument: explore both
graphs on a small instance and assert per-state decision-set equality
across the quotient map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Hashable, Sequence

from ..analysis.explorer import reachable_decision_sets
from ..analysis.view import DeterministicSystemView
from ..ioa.actions import Action
from ..ioa.automaton import State, Task
from .codec import Codec

#: Candidate symmetry groups larger than this (= 7!) are not enumerated;
#: the group degenerates to the identity with a recorded reason instead
#: of stalling — reduction is an optimization, never a prerequisite.
MAX_GROUP_SIZE = 5040


class ReductionAuditError(AssertionError):
    """The reduced graph disagreed with the full graph (audit mode)."""


@dataclass(frozen=True)
class ReductionConfig:
    """Which reductions to apply; see ``--reduction {none,symmetry,por,full}``."""

    symmetry: bool = False
    por: bool = False

    @property
    def enabled(self) -> bool:
        return self.symmetry or self.por

    @classmethod
    def from_name(cls, name: str) -> "ReductionConfig":
        """Parse the CLI spelling of a configuration."""
        try:
            return {
                "none": cls(),
                "symmetry": cls(symmetry=True),
                "por": cls(por=True),
                "full": cls(symmetry=True, por=True),
            }[name]
        except KeyError:
            raise ValueError(
                f"unknown reduction {name!r}; expected none, symmetry, por, or full"
            ) from None


# ---------------------------------------------------------------------------
# Symmetry: the permutation group and the canonicalizer
# ---------------------------------------------------------------------------


class _StatePermuter:
    """One endpoint permutation, applied to composite states.

    The action on a composite state follows the renaming semantics: the
    permuted state's component at ``P_{pi(i)}``'s position is the
    original state of ``P_i`` (sound because a non-``None``
    ``symmetry_key`` asserts process locals never embed the endpoint
    identity), and each service state is relabeled via its
    ``permute_state`` hook.
    """

    __slots__ = ("mapping", "_process_moves", "_service_ops")

    def __init__(self, system, mapping: dict) -> None:
        self.mapping = dict(mapping)
        moves = []
        for endpoint, image in self.mapping.items():
            if image == endpoint:
                continue
            source = system.component_index(system.process(endpoint).name)
            target = system.component_index(system.process(image).name)
            moves.append((source, target))
        self._process_moves = tuple(moves)
        ops = []
        for component in system.services + system.registers:
            if any(self.mapping.get(e, e) != e for e in component.endpoints):
                ops.append((system.component_index(component.name), component))
        self._service_ops = tuple(ops)

    def apply(self, state: State) -> State:
        post = list(state)
        for source, target in self._process_moves:
            post[target] = state[source]
        for index, component in self._service_ops:
            post[index] = component.permute_state(state[index], self.mapping)
        return tuple(post)


def _respected_by_services(system, mapping: dict) -> bool:
    """True iff every service tolerates the permutation.

    A service whose endpoint set is moved must both declare
    ``supports_endpoint_symmetry`` and have its endpoint set preserved
    *as a set* — a permutation mixing endpoints across two different
    services (or out of a service's endpoint set) is refused here, which
    is what keeps, e.g., cross-group permutations of
    ``grouped_delegation_system`` out of the group.
    """
    for component in system.services + system.registers:
        endpoints = component.endpoints
        if all(mapping.get(e, e) == e for e in endpoints):
            continue
        if not getattr(component, "supports_endpoint_symmetry", False):
            return False
        if {mapping.get(e, e) for e in endpoints} != set(endpoints):
            return False
    return True


def _symmetry_permutations(system):
    """The declared symmetry group: ``(non-identity permuters, size, reason)``.

    Processes are grouped into interchangeability classes by
    ``(type, symmetry_key(), input_values)`` — a ``None`` key opts the
    process out entirely.  Candidate permutations permute endpoints
    within each class; each candidate must then be respected by every
    service.  The surviving set (plus the identity) is closed under
    composition and inverse: class membership and per-service endpoint
    invariance are both preserved by composing, so it is a genuine
    permutation group and orbits partition the state space.
    """
    classes: dict = {}
    for process in system.processes:
        key = process.symmetry_key()
        if key is None:
            continue
        classes.setdefault(
            (type(process).__name__, key, process.input_values), []
        ).append(process.endpoint)
    orbits = [endpoints for endpoints in classes.values() if len(endpoints) > 1]
    if not orbits:
        return [], 1, "no interchangeable processes declared"
    size = 1
    for endpoints in orbits:
        size *= factorial(len(endpoints))
    if size > MAX_GROUP_SIZE:
        return [], 1, f"candidate group of size {size} exceeds cap {MAX_GROUP_SIZE}"
    mappings = []
    for images in itertools.product(
        *(itertools.permutations(endpoints) for endpoints in orbits)
    ):
        mapping: dict = {}
        for endpoints, image in zip(orbits, images):
            mapping.update(zip(endpoints, image))
        if all(image == endpoint for endpoint, image in mapping.items()):
            continue
        if _respected_by_services(system, mapping):
            mappings.append(mapping)
    reason = "" if mappings else "no candidate permutation respected by every service"
    return [_StatePermuter(system, m) for m in mappings], len(mappings) + 1, reason


class Canonicalizer:
    """Maps each state to its orbit's canonical representative.

    The group is restricted to the **stabilizer of the root**: only
    permutations with ``pi(root) == root`` are kept, i.e. those fixing
    the inputs-so-far.  This guarantees ``canon(root) == root`` and that
    every state of the quotient graph is reachable from the same root by
    a permuted task sequence.  The representative is the orbit member
    with the least componentwise ``canonical_bytes`` key — a pure
    function of the orbit, so coordinator and forked workers always
    agree.  (Component states repeat across vast numbers of composite
    states, so the key is assembled from a
    :class:`~repro.engine.codec.Codec` per-component encoding cache
    rather than re-encoding whole composites.)

    ``orbit_hits`` counts canonicalizations that returned a different
    representative than their argument (published as the
    ``engine.reduction.orbit_hits`` counter).
    """

    __slots__ = (
        "permuters",
        "group_size",
        "stabilizer_size",
        "reason",
        "orbit_hits",
        "_cache",
        "_codec",
    )

    def __init__(self, system, root: State, codec: Codec | None = None) -> None:
        permuters, group_size, reason = _symmetry_permutations(system)
        self.permuters = tuple(p for p in permuters if p.apply(root) == root)
        self.group_size = group_size
        self.stabilizer_size = len(self.permuters) + 1
        self.reason = reason
        self.orbit_hits = 0
        self._cache: dict = {}
        self._codec = codec or Codec()

    def _key(self, state: State) -> tuple:
        component_bytes = self._codec.component_bytes
        return tuple(component_bytes(c) for c in state)

    def canon(self, state: State) -> State:
        cached = self._cache.get(state)
        if cached is None:
            best, best_key = state, self._key(state)
            images = [state]
            for permuter in self.permuters:
                image = permuter.apply(state)
                images.append(image)
                key = self._key(image)
                if key < best_key:
                    best, best_key = image, key
            # Pre-cache every orbit image: the sibling raw states the
            # exploration is about to produce resolve without re-walking
            # the orbit.
            for image in images:
                self._cache[image] = best
            cached = best
        if cached is not state and cached != state:
            self.orbit_hits += 1
        return cached


# ---------------------------------------------------------------------------
# Partial-order reduction: the two sound ample shapes
# ---------------------------------------------------------------------------


def _por_tables(system):
    """Static POR tables: pipeline compute tasks and endpoint-local sets.

    ``pipeline`` lists the single global ``compute`` task of each service
    declaring ``por_queue_pipeline`` (FIFO delivery, performs enqueue
    without responding).  ``locals_table`` lists, per process whose every
    connected service declares ``por_responses_to_invoker_only``, the
    process's step task plus its per-connection ``(component index,
    endpoint position, output task)`` triples for the buffer guards.
    """
    pipeline = []
    for component in system.services + system.registers:
        if not getattr(component, "por_queue_pipeline", False):
            continue
        names = component.global_task_names()
        if len(names) != 1:
            continue
        pipeline.append(Task(component.name, ("compute", names[0])))
    locals_table = []
    for process in system.processes:
        connections = []
        eligible = True
        for service_id in sorted(process.connections, key=repr):
            component = system.service(service_id)
            if not getattr(component, "por_responses_to_invoker_only", False):
                eligible = False
                break
            connections.append(
                (
                    system.component_index(component.name),
                    component.endpoint_position(process.endpoint),
                    Task(component.name, ("output", process.endpoint)),
                )
            )
        if eligible:
            locals_table.append((Task(process.name, "step"), tuple(connections)))
    return tuple(pipeline), tuple(locals_table)


# ---------------------------------------------------------------------------
# The reduced view
# ---------------------------------------------------------------------------


class ReducedView:
    """A drop-in exploration view applying symmetry/POR over a raw view.

    ``successors`` — the only method the engine's expansion loop calls —
    filters the raw successor list down to an ample set (when ``por``)
    and canonicalizes the successor states (when a canonicalizer is
    set).  Everything else delegates to the raw view: ``step``,
    ``apply``, replay, and decision bookkeeping keep raw semantics, so
    consumers holding raw states (the hook search, Lemma 8, the
    refutation engine) work unchanged.

    ``tasks`` is aliased to the base view's tuple: reduced successor
    triples carry base tasks, and the parallel wire protocol indexes
    into this shared tuple.
    """

    def __init__(self, base, canonicalizer=None, por: bool = False) -> None:
        self.base = base
        self.system = base.system
        self.tasks = base.tasks
        self.canonicalizer = canonicalizer
        self.por = bool(por)
        self.pruned_tasks = 0
        self._pipeline: tuple = ()
        self._locals: tuple = ()
        if self.por:
            self._pipeline, self._locals = _por_tables(base.system)

    def trim_caches(self, limit: int) -> int:
        """Clear the orbit cache and the transition memo, each once over ``limit``.

        Returns the number of entries freed.  The store-backed engine
        calls this on every expansion and each pool worker before every
        batch, so a reduced disk-backed run keeps the same RSS ceiling
        as a raw one: each orbit entry holds a full decoded state, one
        per orbit image.
        """
        freed = self.base.trim_caches(limit)
        if self.canonicalizer is not None:
            cache = self.canonicalizer._cache
            if len(cache) > limit:
                freed += len(cache)
                cache.clear()
        return freed

    # -- the reduced expansion ----------------------------------------------

    def successors(self, state: State) -> list[tuple[Task, Action, State]]:
        out = self.base.successors(state)
        if self.por:
            ample = self._ample(state, out)
            if ample is not out:
                self.pruned_tasks += len(out) - len(ample)
                out = ample
        if self.canonicalizer is not None:
            canon = self.canonicalizer.canon
            out = [(task, action, canon(post)) for task, action, post in out]
        return out

    def _ample(self, state, successors):
        """Select an ample subset of ``successors``, or return it unchanged.

        Two shapes, first match wins; both are invisible and satisfy the
        C3 proviso by buffer conservation (see module docstring and
        ``docs/reduction.md``):

        1. The pipeline ``compute`` singleton: a FIFO-delivery service's
           global task with a nonempty queue (progress excludes the
           empty-queue self-loop).  Delivery commutes with every
           non-``compute`` action, and an ample-only cycle would have to
           strictly shrink the queue forever.
        2. The endpoint-local set: a process about to **invoke** (or
           spinning on a pure self-loop) together with the pending
           ``output`` tasks of its connections.  Guards: every connected
           service responds only to its invoker; an endpoint with a
           pending invocation but no pending response is ineligible (a
           deferred ``perform`` would newly enable a dependent
           ``output``); a ``decide`` or a locals-changing non-invoke
           step forces full expansion (visible, or a local cycle could
           starve the rest of the system).
        """
        if len(successors) <= 1:
            return successors
        task_map = {triple[0]: triple for triple in successors}
        for gtask in self._pipeline:
            triple = task_map.get(gtask)
            if triple is not None and triple[2] != state:
                return [triple]
        for ptask, connections in self._locals:
            ptriple = task_map.get(ptask)
            if ptriple is None:
                continue
            self_loop = ptriple[2] == state
            if not self_loop and ptriple[1].kind != "invoke":
                continue
            ample = []
            eligible = True
            for index, position, otask in connections:
                service_state = state[index]
                has_response = bool(service_state.resp_buffers[position])
                if service_state.inv_buffers[position] and not has_response:
                    eligible = False
                    break
                if has_response:
                    otriple = task_map.get(otask)
                    if otriple is None:
                        eligible = False
                        break
                    ample.append(otriple)
            if not eligible:
                continue
            if not self_loop:
                ample.append(ptriple)
            if ample and len(ample) < len(successors):
                return ample
        return successors

    # -- helpers for the analysis layer --------------------------------------

    def canonical(self, state: State) -> State:
        """The canonical representative of ``state`` (identity without symmetry)."""
        if self.canonicalizer is None:
            return state
        return self.canonicalizer.canon(state)

    def drain_stats(self) -> tuple[int, int]:
        """Return and reset ``(orbit_hits, pruned_tasks)`` since the last drain."""
        orbit = 0
        if self.canonicalizer is not None:
            orbit = self.canonicalizer.orbit_hits
            self.canonicalizer.orbit_hits = 0
        pruned = self.pruned_tasks
        self.pruned_tasks = 0
        return orbit, pruned

    # -- raw-semantics delegation --------------------------------------------

    def step(self, state, task):
        return self.base.step(state, task)

    def apply(self, state, task):
        return self.base.apply(state, task)

    def action_of(self, state, task):
        return self.base.action_of(state, task)

    def applicable(self, state, task):
        return self.base.applicable(state, task)

    def applicable_tasks(self, state):
        return self.base.applicable_tasks(state)

    def participants(self, state, task):
        return self.base.participants(state, task)

    def run_task_sequence(self, start, task_sequence, strict=True):
        return self.base.run_task_sequence(start, task_sequence, strict=strict)

    def decisions(self, state):
        return self.base.decisions(state)

    def decision_values(self, state):
        return self.base.decision_values(state)

    def check_failure_free(self, state):
        return self.base.check_failure_free(state)


def build_reduced_view(
    view: DeterministicSystemView, root: State, config: ReductionConfig
) -> ReducedView:
    """A :class:`ReducedView` over ``view`` for exploration from ``root``.

    The canonicalizer's group is the stabilizer of ``root``, so the
    engine may explore directly from ``root`` (``canon(root) == root``).
    """
    canonicalizer = Canonicalizer(view.system, root) if config.symmetry else None
    return ReducedView(view, canonicalizer=canonicalizer, por=config.por)


# ---------------------------------------------------------------------------
# Audit and comparison
# ---------------------------------------------------------------------------


@dataclass
class ReductionComparison:
    """Full-vs-reduced exploration sizes plus the reduction's own stats."""

    full_states: int
    full_transitions: int
    reduced_states: int
    reduced_transitions: int
    state_ratio: float
    transition_ratio: float
    group_size: int
    stabilizer_size: int
    orbit_hits: int
    pruned_tasks: int


def _run_both(system, root, config, budget):
    from .api import ExplorationEngine

    engine = ExplorationEngine(workers=1, budget=budget)
    view = DeterministicSystemView(system)
    view.check_failure_free(root)
    full_graph = engine.explore(view, root)
    reduced_view = build_reduced_view(view, root, config)
    reduced_graph = engine.explore(reduced_view, root)
    return view, full_graph, reduced_view, reduced_graph


def _make_comparison(full_graph, reduced_graph, reduced_view) -> ReductionComparison:
    canonicalizer = reduced_view.canonicalizer
    full_states, full_transitions = len(full_graph), full_graph.edge_count()
    reduced_states, reduced_transitions = len(reduced_graph), reduced_graph.edge_count()
    return ReductionComparison(
        full_states=full_states,
        full_transitions=full_transitions,
        reduced_states=reduced_states,
        reduced_transitions=reduced_transitions,
        state_ratio=full_states / reduced_states if reduced_states else 0.0,
        transition_ratio=(
            full_transitions / reduced_transitions if reduced_transitions else 0.0
        ),
        group_size=canonicalizer.group_size if canonicalizer else 1,
        stabilizer_size=canonicalizer.stabilizer_size if canonicalizer else 1,
        orbit_hits=canonicalizer.orbit_hits if canonicalizer else 0,
        pruned_tasks=reduced_view.pruned_tasks,
    )


def compare_reduction(
    system,
    root: State,
    config: ReductionConfig,
    *,
    budget=None,
) -> ReductionComparison:
    """Explore both graphs and report sizes/ratios without asserting.

    ``budget`` (a :class:`~repro.engine.budget.Budget`, ``None`` for
    :data:`~repro.engine.budget.DEFAULT_BUDGET`) bounds each of the two
    explorations; exhausting it raises
    :class:`~repro.engine.budget.BudgetExhausted`.
    """
    _, full_graph, reduced_view, reduced_graph = _run_both(
        system, root, config, budget
    )
    return _make_comparison(full_graph, reduced_graph, reduced_view)


def audit_reduction(
    system,
    root: State,
    config: ReductionConfig,
    *,
    budget=None,
) -> ReductionComparison:
    """Explore both graphs and assert the reduction preserved every verdict.

    ``budget`` bounds each exploration, as for :func:`compare_reduction`.

    Checks, for every reduced-graph state, that it is reachable in the
    full graph (canonical representatives are genuine states) with an
    identical reachable decision set.  Without POR the check also runs
    the other way: every full-graph state's canonical image must be in
    the reduced graph with the same decision set (the quotient is a
    bisimulation image).  With POR the reduced graph legitimately visits
    fewer states, so only the forward containment applies.  Raises
    :class:`ReductionAuditError` on any mismatch.
    """
    if not config.enabled:
        raise ValueError("audit_reduction requires symmetry or POR to be enabled")
    view, full_graph, reduced_view, reduced_graph = _run_both(
        system, root, config, budget
    )
    full_sets = reachable_decision_sets(full_graph, view)
    reduced_sets = reachable_decision_sets(reduced_graph, view)
    full_position = full_graph.position
    reduced_position = reduced_graph.position
    for state, reduced_set in zip(reduced_graph.order, reduced_sets):
        index = full_position.get(state)
        if index is None:
            raise ReductionAuditError(
                f"reduced graph explored a state unreachable in the full "
                f"graph: {state!r}"
            )
        if reduced_set != full_sets[index]:
            raise ReductionAuditError(
                f"decision-set mismatch at {state!r}: reduced "
                f"{sorted(reduced_set, key=repr)!r} != full "
                f"{sorted(full_sets[index], key=repr)!r}"
            )
    if not config.por:
        for state, full_set in zip(full_graph.order, full_sets):
            image = reduced_view.canonical(state)
            index = reduced_position.get(image)
            if index is None:
                raise ReductionAuditError(
                    f"canonical image of full-graph state missing from the "
                    f"reduced graph: {state!r} -> {image!r}"
                )
            if full_set != reduced_sets[index]:
                raise ReductionAuditError(
                    f"decision-set mismatch across the quotient at {state!r}: "
                    f"full {sorted(full_set, key=repr)!r} != reduced "
                    f"{sorted(reduced_sets[index], key=repr)!r}"
                )
    return _make_comparison(full_graph, reduced_graph, reduced_view)
