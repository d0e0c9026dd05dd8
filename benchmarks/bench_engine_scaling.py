"""E-engine: parallel exploration scaling of repro.engine.

Times :class:`repro.engine.ExplorationEngine` at 1 worker without a
store, and at 1, 2 and 4 workers through a sqlite store, against the
sequential :func:`repro.analysis.explore` baseline on one instance,
verifies every run reproduces the identical graph (same states in the
same discovery order, same edge count — the engine's documented
guarantee), and appends ``{workers, store, seconds, speedup,
peak_rss_kb}`` rows to ``BENCH_engine.json``.  The worker pool runs
only on a store, so the sqlite rows show whether it pays for itself on
the disk-backed path; earlier rows of the artifact also carry a
store-less pool column, deleted with that configuration.

Instance selection: the default is ``delegation_consensus_system(6, 1)``
(~29k states, seconds per run).  Set ``REPRO_BENCH_FULL=1`` to run
``tob_delegation_system(4, 1)`` (~359k states / 2.9M transitions, the
>=100k-state configuration the committed artifact records; minutes per
run).

Speedup honesty: frontier-partitioned BFS cannot beat the sequential
baseline without real cores — on a single-CPU container the worker
processes time-slice one core and IPC overhead makes parallel runs
*slower*.  The artifact therefore always records ``os.cpu_count()``
alongside the measurements, and the speedup assertion at 4 workers
(against the one-worker sqlite run, the loop the pool parallelizes) is
applied only when at least 4 CPUs are actually available (the bench
prints an explicit ``SKIPPED (cpu_count < 4)`` marker and records it in
the artifact when gated off).  Each worker row records the engine's
per-phase breakdown (expand vs fingerprint vs serialize/IPC vs merge
seconds; every phase column is present at every worker count, 0.0 when
a phase did not run) so an overhead regression is visible in the
artifact, not just in the bottom line.

Memory honesty: ``RUSAGE_CHILDREN`` only folds in *reaped* children, so
the old self+children number was identical at 2 and 4 workers (the pool
was still alive at sample time).  Rows now record the coordinator's own
peak plus the per-worker peaks each worker self-reports over the reply
pipe (``EngineReport.worker_rss_kb``).

The codec's component-encode cache is the digest path's win: the bench
asserts its hit rate stays >= 0.5 (expanding a transition changes one
or two components of a composite state, so re-encodes should be rare)
on every row where the codec encodes successors — every sqlite row.
The run without a store dedups full states and never encodes a
successor, so its rate is not a measurement.

``test_reduction_ratio`` times the same instance through the symmetry +
POR :class:`~repro.engine.reduction.ReducedView` and asserts the
committed reduction targets: >= 3x fewer explored states always, and
>= 3x lower sequential wall clock on the full-size instance.  It also
records a combined reduction+parallelism row — the reduced view driven
by the parallel engine — since the two optimizations compose and their
product is the number users actually experience.
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
#: (workers, store URI) per timed row; None is the default in-RAM run.
CONFIGS = ((1, None), (1, "sqlite"), (2, "sqlite"), (4, "sqlite"))
SPEEDUP_TARGET = 2.0
SPEEDUP_MIN_CPUS = 4
STATE_RATIO_TARGET = 3.0
TIME_RATIO_TARGET = 3.0
PHASES = ("expand_seconds", "fingerprint_seconds", "serialize_seconds", "merge_seconds")
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


def _peak_rss_kb(engine_report=None) -> int:
    """Peak resident set in KiB: coordinator + live per-worker peaks.

    ``RUSAGE_CHILDREN`` only covers children already reaped, which made
    the old number blind to the pool actually being measured; workers
    now self-report their peaks over the reply pipe instead.
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = sum(engine_report.worker_rss_kb) if engine_report is not None else 0
    return self_kb + worker_kb


def test_engine_scaling_and_equivalence():
    system, root, label = _instance()
    budget = Budget(max_states=2_000_000)

    # Every contender gets a FRESH system: the composition memoizes
    # component transitions, and a shared warm memo — inherited by forked
    # workers too — would turn the benchmark into a measure of pure IPC
    # overhead rather than of the engine's actual use case, the first
    # exploration of a space.
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
    speedups = {}
    cache_rates = {}
    for workers, store in CONFIGS:
        system, root, _ = _instance()
        engine = ExplorationEngine(workers=workers, budget=budget, store=store)
        metrics = MetricsRegistry()
        gc.collect()
        with GcCollections() as collections:
            started = perf_counter()
            graph = engine.explore(
                DeterministicSystemView(system), root, metrics=metrics
            )
            seconds = perf_counter() - started
        assert list(graph.states) == baseline_order, (
            f"workers={workers} store={store} produced a different graph"
        )
        assert graph.edge_count() == baseline_edge_count
        del graph
        speedups[workers, store] = baseline_seconds / seconds if seconds else 0.0
        counters = metrics.snapshot()["counters"]
        cache_hits = counters.get("engine.codec.cache_hits", 0)
        cache_misses = counters.get("engine.codec.cache_misses", 0)
        cache_rate = (
            cache_hits / (cache_hits + cache_misses)
            if cache_hits + cache_misses
            else 0.0
        )
        if store is not None:
            cache_rates[workers, store] = cache_rate
        rows.append(
            {
                "workers": workers,
                "store": store,
                "cpu_count": os.cpu_count(),
                "seconds": round(seconds, 3),
                "speedup_vs_sequential": round(speedups[workers, store], 3),
                "peak_rss_kb": _peak_rss_kb(engine.last_report),
                "worker_rss_kb": list(engine.last_report.worker_rss_kb),
                "codec_cache_hit_rate": round(cache_rate, 4),
                "memo_misses": engine.last_report.memo_misses,
                **collections.columns(),
                # Every phase column at every worker count (0.0 when the
                # phase did not run), so artifact rows stay comparable.
                **{
                    phase: round(counters.get(f"engine.phase.{phase}", 0.0), 3)
                    for phase in PHASES
                },
            }
        )

    cpus = os.cpu_count() or 1
    if cpus < SPEEDUP_MIN_CPUS:
        marker = f"SKIPPED (cpu_count < {SPEEDUP_MIN_CPUS})"
        print(f"{marker}: speedup assertion needs {SPEEDUP_MIN_CPUS} CPUs, have {cpus}")
        rows.append({"speedup_assert": marker, "cpu_count": cpus})
    report("engine scaling" + (" (full)" if FULL else ""), rows,
           artifact="BENCH_engine.json")

    for (workers, store), rate in cache_rates.items():
        assert rate >= CACHE_HIT_RATE_FLOOR, (
            f"codec component-cache hit rate {rate:.3f} at workers={workers} "
            f"store={store} is below {CACHE_HIT_RATE_FLOOR} — the packed hot "
            "path is re-encoding components it should be reusing"
        )
    if cpus >= SPEEDUP_MIN_CPUS:
        pool_speedup = speedups[4, "sqlite"] / speedups[1, "sqlite"]
        assert pool_speedup >= SPEEDUP_TARGET, (
            f"expected >= {SPEEDUP_TARGET}x at 4 workers over 1 (sqlite) on "
            f"{cpus} CPUs, got {pool_speedup:.2f}x"
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

    # Combined reduction + parallelism: the two optimizations compose —
    # symmetry/POR shrink the space, the worker pool splits what's left.
    # A fresh system keeps the comparison honest (cold transition memo).
    combined_workers = 2
    system, root, _ = _instance()
    combined_view = build_reduced_view(DeterministicSystemView(system), root, config)
    engine = ExplorationEngine(
        workers=combined_workers, budget=budget, store="sqlite"
    )
    gc.collect()
    started = perf_counter()
    combined_graph = engine.explore(combined_view, root)
    combined_seconds = perf_counter() - started
    combined_states = len(combined_graph.states)
    assert combined_states == reduced_states, (
        "parallel exploration of the reduced view found a different graph"
    )
    assert combined_graph.edge_count() == reduced_transitions
    del combined_graph
    combined_time_ratio = full_seconds / combined_seconds if combined_seconds else 0.0

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
            },
            {
                "instance": label,
                "reduction": "symmetry+por",
                "workers": combined_workers,
                "combined_seconds": round(combined_seconds, 3),
                "combined_time_ratio_vs_full_sequential": round(
                    combined_time_ratio, 2
                ),
                "states": combined_states,
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
