"""E-engine: classic against sqlite exploration in repro.engine.

Times :class:`repro.engine.ExplorationEngine` without a store and
through a sqlite store against the sequential
:func:`repro.analysis.explore` baseline on one instance, verifies every
run reproduces the identical graph (same states in the same discovery
order, same edge count — the engine's documented guarantee), and
appends ``{store, seconds, speedup, peak_rss_kb}`` rows to
``BENCH_engine.json``.  Earlier rows of the artifact also carry worker
pool rows (``workers`` 2 and 4), recorded before the pool was removed;
the rows that decided its removal are the ``E-engine: worker pool
decision`` records.

Instance selection: the default is ``delegation_consensus_system(6, 1)``
(~29k states, seconds per run).  Set ``REPRO_BENCH_FULL=1`` to run
``tob_delegation_system(4, 1)`` (~359k states / 2.9M transitions, the
>=100k-state configuration the committed artifact records; minutes per
run).  Every row records ``os.cpu_count()``.  Each row records the
engine's ``expand_seconds`` phase, so an overhead regression is visible
in the artifact, not just in the bottom line.

The codec's component-encode cache is the digest path's win: the bench
asserts its hit rate stays >= 0.5 (expanding a transition changes one
or two components of a composite state, so re-encodes should be rare)
on the sqlite row, where the codec encodes successors.  The run without
a store dedups full states and never encodes a successor, so its rate
is not a measurement.

``test_reduction_ratio`` times the same instance through the symmetry +
POR :class:`~repro.engine.reduction.ReducedView` and asserts the
committed reduction targets: >= 3x fewer explored states always, and
>= 3x lower sequential wall clock on the full-size instance.
"""

import gc
import os
import resource
from time import perf_counter

from conftest import GcCollections, report

from repro.analysis import DeterministicSystemView, explore
from repro.engine import Budget, ExplorationEngine, ReductionConfig, build_reduced_view
from repro.obs import MetricsRegistry
from repro.protocols import delegation_consensus_system, tob_delegation_system

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")
#: Store URI per timed row; None is the default in-RAM run.
STORES = (None, "sqlite")
STATE_RATIO_TARGET = 3.0
TIME_RATIO_TARGET = 3.0
CACHE_HIT_RATE_FLOOR = 0.5


def _instance():
    if FULL:
        system = tob_delegation_system(4, resilience=1)
        label = "tob(n=4, f=1)"
    else:
        system = delegation_consensus_system(6, resilience=1)
        label = "delegation(n=6, f=1)"
    proposals = {
        endpoint: index % 2 for index, endpoint in enumerate(system.process_ids)
    }
    root = system.initialization(proposals).final_state
    return system, root, label


def _peak_rss_kb() -> int:
    """Peak resident set of this process in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def test_engine_scaling_and_equivalence():
    system, root, label = _instance()
    budget = Budget(max_states=2_000_000)

    # Every contender gets a FRESH system: the composition memoizes
    # component transitions, and a shared warm memo would turn the
    # benchmark into a measure of memo lookups rather than of the
    # engine's actual use case, the first exploration of a space.
    started = perf_counter()
    baseline = explore(
        DeterministicSystemView(system), root, budget=Budget(max_states=budget.max_states)
    )
    baseline_seconds = perf_counter() - started
    baseline_order = list(baseline.states)
    baseline_edge_count = baseline.edge_count()
    del baseline  # keep only the order list; each run builds its own graph

    rows = [
        {
            "instance": label,
            "states": len(baseline_order),
            "transitions": baseline_edge_count,
            "cpu_count": os.cpu_count(),
            "baseline_explore_s": round(baseline_seconds, 3),
        }
    ]
    cache_rates = {}
    for store in STORES:
        system, root, _ = _instance()
        engine = ExplorationEngine(budget=budget, store=store)
        metrics = MetricsRegistry()
        gc.collect()
        with GcCollections() as collections:
            started = perf_counter()
            graph = engine.explore(
                DeterministicSystemView(system), root, metrics=metrics
            )
            seconds = perf_counter() - started
        assert list(graph.states) == baseline_order, (
            f"store={store} produced a different graph"
        )
        assert graph.edge_count() == baseline_edge_count
        del graph
        speedup = baseline_seconds / seconds if seconds else 0.0
        counters = metrics.snapshot()["counters"]
        cache_hits = counters.get("engine.codec.cache_hits", 0)
        cache_misses = counters.get("engine.codec.cache_misses", 0)
        cache_rate = (
            cache_hits / (cache_hits + cache_misses)
            if cache_hits + cache_misses
            else 0.0
        )
        if store is not None:
            cache_rates[store] = cache_rate
        rows.append(
            {
                "store": store,
                "cpu_count": os.cpu_count(),
                "seconds": round(seconds, 3),
                "speedup_vs_sequential": round(speedup, 3),
                "peak_rss_kb": _peak_rss_kb(),
                "codec_cache_hit_rate": round(cache_rate, 4),
                "memo_misses": engine.last_report.memo_misses,
                **collections.columns(),
                "expand_seconds": round(
                    counters.get("engine.phase.expand_seconds", 0.0), 3
                ),
            }
        )

    report("engine scaling" + (" (full)" if FULL else ""), rows,
           artifact="BENCH_engine.json")

    for store, rate in cache_rates.items():
        assert rate >= CACHE_HIT_RATE_FLOOR, (
            f"codec component-cache hit rate {rate:.3f} at store={store} is "
            f"below {CACHE_HIT_RATE_FLOOR} — the packed hot path is "
            "re-encoding components it should be reusing"
        )


def test_reduction_ratio():
    """Symmetry + POR shrink the explored graph by the committed ratios."""
    system, root, label = _instance()
    budget = Budget(max_states=2_000_000)
    config = ReductionConfig.from_name("full")

    started = perf_counter()
    full_graph = explore(
        DeterministicSystemView(system), root, budget=Budget(max_states=budget.max_states)
    )
    full_seconds = perf_counter() - started
    full_states = len(full_graph.states)
    full_transitions = full_graph.edge_count()
    del full_graph

    system, root, _ = _instance()
    reduced_view = build_reduced_view(DeterministicSystemView(system), root, config)
    gc.collect()
    started = perf_counter()
    reduced_graph = explore(reduced_view, root, budget=Budget(max_states=budget.max_states))
    reduced_seconds = perf_counter() - started
    reduced_states = len(reduced_graph.states)
    reduced_transitions = reduced_graph.edge_count()
    del reduced_graph

    state_ratio = full_states / reduced_states
    time_ratio = full_seconds / reduced_seconds if reduced_seconds else 0.0
    canonicalizer = reduced_view.canonicalizer

    report(
        "engine reduction" + (" (full)" if FULL else ""),
        [
            {
                "instance": label,
                "reduction": "symmetry+por",
                "full_states": full_states,
                "full_transitions": full_transitions,
                "full_seconds": round(full_seconds, 3),
                "reduced_states": reduced_states,
                "reduced_transitions": reduced_transitions,
                "reduced_seconds": round(reduced_seconds, 3),
                "state_ratio": round(state_ratio, 2),
                "time_ratio": round(time_ratio, 2),
                "group_size": canonicalizer.group_size,
                "stabilizer_size": canonicalizer.stabilizer_size,
                "orbit_hits": canonicalizer.orbit_hits,
                "pruned_tasks": reduced_view.pruned_tasks,
                "cpu_count": os.cpu_count(),
            },
        ],
        artifact="BENCH_engine.json",
    )
    assert state_ratio >= STATE_RATIO_TARGET, (
        f"expected >= {STATE_RATIO_TARGET}x fewer states under reduction, "
        f"got {state_ratio:.2f}x on {label}"
    )
    if FULL:
        # Wall-clock only on the committed >=100k-state instance; the
        # small default finishes in well under a second, where constant
        # overheads dominate and the ratio is noise.
        assert time_ratio >= TIME_RATIO_TARGET, (
            f"expected >= {TIME_RATIO_TARGET}x lower wall clock under "
            f"reduction, got {time_ratio:.2f}x on {label}"
        )
