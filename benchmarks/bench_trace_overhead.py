"""E-obs: the disabled tracer's overhead on `explore` stays under 5 %.

The observability contract of `repro.obs`: instrumented hot paths guard
every emission behind one hoisted ``tracer.enabled``/``metrics.enabled``
test, so running with the default disabled singletons must cost (almost)
nothing.  This benchmark pits the instrumented
:func:`repro.analysis.explore` — called with its defaults, i.e.
``NULL_TRACER``/``NULL_METRICS`` — against a verbatim copy of the same
engine loop with every observability guard deleted, on an identical
warmed view, and asserts the overhead bound.

The baseline is the *engine's* sequential loop (position index,
frontier cursor, budget check, graph build), not a bare BFS: `explore`
delegates to :class:`repro.engine.ExplorationEngine`, so comparing
against a minimal BFS would measure the engine's bookkeeping, not the
instrumentation.  The only differences between the two contenders are
the obs guards themselves.

Methodology notes (for stability on shared CI machines):

* the workload is ``tob_delegation_system(3, 1)`` — a few thousand
  states, so each timed run is tens of milliseconds and timer/scheduler
  granularity cannot manufacture multi-percent "overhead" (the earlier
  188-state workload did exactly that);
* one untimed exploration per contender runs first and checks that
  both walk the same graph; every timed run then computes the same
  transitions (`DeterministicSystemView.successors` keeps no memo), so
  the contenders differ only in the obs guards;
* within one measurement attempt the contenders are timed in
  alternation and compared by their per-contender *minimums*: timing
  noise on a shared machine is strictly additive, so the minimum
  converges on the true cost while medians of ~0.14 s samples wobble
  by several percent;
* a shared machine can also slow down for seconds at a time — long
  enough to bias a whole attempt — so the bound is asserted over up to
  ``ATTEMPTS`` independent attempts with early exit on the first pass:
  sustained-drift false alarms don't survive five attempts, while a
  real guard-cost regression shifts every attempt and still fails;
* states/sec for both contenders is recorded to ``BENCH_obs.json`` so
  the artifact accumulates a real performance trajectory rather than a
  bare pass/fail bit;
* the assertion allows a small absolute epsilon on top of the 5 %
  relative bound so timer granularity alone cannot fail it.
"""

from statistics import median
from time import perf_counter

from conftest import report

from repro.analysis import DeterministicSystemView, StateGraph, explore
from repro.protocols import tob_delegation_system

REPETITIONS = 9
ATTEMPTS = 5
RELATIVE_BOUND = 0.05
ABSOLUTE_EPSILON_S = 0.002
MAX_STATES = 200_000


class _BaselineRun:
    """Attribute-for-attribute stand-in for the engine's ``_Run``."""

    __slots__ = (
        "view",
        "index",
        "order",
        "succ",
        "transitions",
        "expanded",
        "since_checkpoint",
    )


class _UninstrumentedEngine:
    """The engine's sequential path verbatim, minus every obs guard.

    A *structural* copy of ``ExplorationEngine._drive_sequential`` +
    ``_commit`` for the default single-worker configuration (position
    dict index, no prune, no checkpoints, no deadline): same per-state
    method calls, same attribute access through a slotted run object,
    same budget checks — only the tracer/metrics/progress branches are
    deleted.  The delta against :func:`repro.analysis.explore` is then
    the cost of the disabled-instrumentation guards, not an artifact of
    locals-versus-attributes code shape.
    """

    __slots__ = ("checkpoint_dir", "max_states", "max_transitions")

    def __init__(self):
        self.checkpoint_dir = None
        self.max_states = MAX_STATES
        self.max_transitions = None

    def explore(self, view, root):
        run = _BaselineRun()
        run.view = view
        run.index = {}
        run.order = [root]
        run.succ = []
        for position, state in enumerate(run.order):
            run.index[state] = position
        run.transitions = 0
        run.expanded = 0
        run.since_checkpoint = 0
        self._drive_sequential(run)
        return StateGraph(
            root=root, order=run.order, position=run.index, succ=run.succ
        )

    def _drive_sequential(self, run):
        order = run.order
        succ = run.succ
        while len(succ) < len(order):
            state = order[len(succ)]
            self._commit(run, run.view.successors(state))
            self._maybe_checkpoint(run)

    def _commit(self, run, out):
        if (
            self.max_transitions is not None
            and run.transitions + len(out) > self.max_transitions
        ):
            raise RuntimeError("budget")
        index = run.index
        get = index.get
        order = run.order
        max_states = self.max_states
        row = []
        for task, action, successor in out:
            position = get(successor)
            if position is None:
                position = len(order)
                if max_states is not None and position >= max_states:
                    raise RuntimeError("budget")
                index[successor] = position
                order.append(successor)
            row.append((task, action, position))
        run.succ.append(row)
        run.transitions += len(out)
        run.expanded += 1
        run.since_checkpoint += 1

    def _maybe_checkpoint(self, run):
        if self.checkpoint_dir is not None and run.since_checkpoint >= 1000:
            raise AssertionError("unreachable: no checkpoint_dir")


def uninstrumented_explore(view, root):
    return _UninstrumentedEngine().explore(view, root)


def timed(function, *args) -> float:
    started = perf_counter()
    function(*args)
    return perf_counter() - started


def paired_timings(baseline_fn, instrumented_fn, *args):
    """Alternate the contenders; return each one's sample list.

    Alternation spreads any slow drift (CPU frequency, heap growth)
    evenly across both sample sets instead of biasing whichever ran
    later.
    """
    baselines, instrumenteds = [], []
    for repetition in range(REPETITIONS):
        if repetition % 2 == 0:
            baselines.append(timed(baseline_fn, *args))
            instrumenteds.append(timed(instrumented_fn, *args))
        else:
            instrumenteds.append(timed(instrumented_fn, *args))
            baselines.append(timed(baseline_fn, *args))
    return baselines, instrumenteds


def test_disabled_tracer_overhead_under_5_percent():
    system = tob_delegation_system(3, resilience=1)
    root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
    view = DeterministicSystemView(system)

    # Sanity-check that both contenders walk the same graph.
    warm = explore(view, root)
    baseline_graph = uninstrumented_explore(view, root)
    assert baseline_graph.order == warm.order
    assert baseline_graph.succ == warm.succ
    states = len(warm.states)
    assert states >= 2_000, (
        f"workload too small to measure ({states} states); overhead numbers "
        "on sub-millisecond runs are timer noise"
    )

    rows = []
    passed = False
    for attempt in range(1, ATTEMPTS + 1):
        baselines, instrumenteds = paired_timings(
            uninstrumented_explore, explore, view, root
        )
        baseline, instrumented = min(baselines), min(instrumenteds)
        overhead = (instrumented - baseline) / baseline if baseline else 0.0
        rows.append(
            {
                "attempt": attempt,
                "states": states,
                "baseline_s": round(baseline, 6),
                "instrumented_s": round(instrumented, 6),
                "baseline_states_per_s": round(states / median(baselines)),
                "instrumented_states_per_s": round(
                    states / median(instrumenteds)
                ),
                "overhead": round(overhead, 4),
            }
        )
        passed = (
            instrumented
            <= baseline * (1 + RELATIVE_BOUND) + ABSOLUTE_EPSILON_S
        )
        if passed:
            break
    report("trace overhead (tracer disabled)", rows)
    assert passed, (
        f"disabled-tracer overhead exceeded {RELATIVE_BOUND:.0%} on all "
        f"{ATTEMPTS} attempts: "
        + ", ".join(f"{row['overhead']:.1%}" for row in rows)
    )
