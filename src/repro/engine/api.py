"""The :class:`ExplorationEngine` facade.

The engine supersedes :func:`repro.analysis.explorer.explore` as the
default way to exhaust failure-free state spaces: same graph, same
semantics, plus worker-pool parallelism, digest-based visited sets,
disk checkpoints with resume, and a unified :class:`~repro.engine.budget.Budget`
(states / transitions / wall-clock deadline) in place of the bare
``max_states`` int.  ``explore()`` itself remains as a thin wrapper over
a one-worker engine, so nothing downstream had to change.

Identical-graph guarantee
-------------------------

For a run that completes (no budget raise), the engine returns a
:class:`~repro.analysis.explorer.StateGraph` **identical to the
sequential one, including discovery order**, at every worker count.
Why: breadth-first search over a deterministic view is a pure function
of the root once three choices are fixed — the expansion order of the
frontier, the successor order within an expansion, and the dedup
relation.  The engine fixes all three identically in its three loops
(classic sequential, store sequential, store parallel):

* the frontier is FIFO, and the parallel loop *merges* worker results
  in exact frontier order (workers only precompute expansions; the
  single-threaded merge loop is the one that discovers states), so the
  concatenation of rounds replays the sequential queue;
* successor order is ``view.successors`` order, computed per state
  either way;
* dedup is "first discovery wins", applied in merge order.

Parallelism therefore changes *where* ``successors()`` runs, never
*what* the search sees.  The worker pool runs only on a ``sqlite``
store (``workers > 1`` without ``store=`` is a ``ValueError``), so the
one forking loop is also the one digest-native loop, and the classic
loop stays the in-RAM path.  The classic loop dedups by ``==``; every
store-backed run dedups by the digest :mod:`~repro.engine.codec`
defines, where a collision would merge two distinct states.  The
16-byte digests make that probability ~``n^2/2^129``, and the tests
check the paper's instances for distinct digests.  Interrupted runs may
differ from a sequential interrupt in *which* prefix they explored, but resuming any
checkpoint converges to the same completed graph.  That includes a run
that lost a worker: the pool is fail-stop, so the loss raises
:class:`~repro.engine.errors.WorkerLost` (with the checkpoint written on
the way out) and never yields a partial graph.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Hashable, Iterator

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None

from ..analysis.explorer import StateGraph
from ..analysis.view import DeterministicSystemView
from ..obs.events import CHECKPOINT_SAVED, STATE_EXPLORED, WORKER_ROUND
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.progress import ProgressReporter, progress_from_env
from ..obs.sinks import NULL_TRACER, Tracer
from ..obs.spans import end_span, start_span
from .budget import DEFAULT_BUDGET, Budget, BudgetExhausted, Deadline
from .checkpoint import (
    Checkpoint,
    CheckpointError,
    Segment,
    checkpoint_path,
    compact_segments,
    discard_checkpoint,
    find_checkpoint,
    load_checkpoint,
    load_segment,
    resume_hint,
    save_checkpoint,
    save_segment,
    segment_dir,
)
from .codec import Codec, digest_of_packed
from .errors import EngineError, WorkerLost
from .parallel import PRUNED, WorkerPool
from .store import (
    DEFAULT_FLUSH_INTERVAL,
    StateStore,
    StoreConfig,
    open_store,
    resolve_store,
)

#: Sequential deadline checks happen every this many expansions.
_DEADLINE_STRIDE = 512

#: Store-mode cap on the view's caches (entries): a reduced view's orbit
#: cache, whose entries each pin a full decoded state, and the
#: composition's transition memo.  The cap — not the store — decides the
#: coordinator's working-set RSS between flushes.
ORBIT_CACHE_LIMIT = 20_000

#: Store-mode cap on the codec: on its intern table plus queued vectors,
#: and separately on its vector->digest map (see ``Codec.trim``).  The
#: table pins one component object + encoding per distinct component
#: value ever seen, and the map holds one vector per resolved state:
#: both grow linearly with the states streamed through the run.
CODEC_CACHE_LIMIT = 100_000

#: Young-generation GC threshold while any exploration runs.  The loops
#: allocate millions of acyclic tuples and frozen states; at the default
#: gen0 threshold the cyclic collector keeps rescanning them.
_GC_GEN0_THRESHOLD = 100_000

#: The GC scope: thresholds are process-global and serve runs jobs on
#: threads, so the first run to enter saves them, overlapping runs only
#: count, and the last to leave restores them.
_gc_lock = threading.Lock()
_gc_depth = 0
_gc_saved: tuple[int, ...] = ()


def _relax_young_gc() -> None:
    """Enter the GC scope: raise gen0's threshold, keep gen1 and gen2.

    A threshold of 0 (automatic collection off) or above the constant is
    left as it is.
    """
    global _gc_depth, _gc_saved
    with _gc_lock:
        if _gc_depth == 0:
            _gc_saved = gc.get_threshold()
            gen0, *older = _gc_saved
            if 0 < gen0 < _GC_GEN0_THRESHOLD:
                gc.set_threshold(_GC_GEN0_THRESHOLD, *older)
        _gc_depth += 1


def _restore_young_gc() -> None:
    """Leave the GC scope; the last run out restores the saved thresholds."""
    global _gc_depth
    with _gc_lock:
        _gc_depth -= 1
        if _gc_depth == 0:
            gc.set_threshold(*_gc_saved)


class _Exhausted(Exception):
    """Internal signal: a budget limit was hit (run left checkpoint-consistent)."""

    def __init__(self, resource: str, limit: float) -> None:
        self.resource = resource
        self.limit = limit


class _Run:
    """Mutable working state of one exploration."""

    __slots__ = (
        "view",
        "root",
        "root_digest",
        "prune",
        "tracer",
        "tracing",
        "metrics",
        "codec",
        "index",
        "order",
        "succ",
        "transitions",
        "expanded",
        "rounds",
        "since_checkpoint",
        "resumed",
        "recovered",
        "started",
        "elapsed_prior",
        "deadline",
        "phase",
        "orbit_hits",
        "pruned_tasks",
        "pool",
        "store",
        "task_slot",
        "segment_seq",
        "last_flush_ms",
        "cache_published",
        "memo_start",
        "report",
    )

    def elapsed(self) -> float:
        return self.elapsed_prior + (time.monotonic() - self.started)

    def states_count(self) -> int:
        return len(self.order) if self.store is None else len(self.store)

    def frontier_count(self) -> int:
        if self.store is None:
            return len(self.order) - len(self.succ)
        return self.store.frontier_len()


class _StorePackedMap:
    """``packed_of`` for parallel rounds.

    The :class:`~repro.engine.parallel.WorkerPool` wire protocol reads
    and writes one digest-keyed mapping of canonical bytes; this adapter
    answers from the store for every discovered digest and stages the
    novel bytes worker replies deliver in ``pending`` until the merge
    loop commits them (or the round ends — uncommitted novel bytes are
    recomputed on resume).
    """

    __slots__ = ("store", "pending")

    def __init__(self, store: StateStore) -> None:
        self.store = store
        self.pending: dict[bytes, bytes] = {}

    def get(self, digest: bytes) -> bytes | None:
        packed = self.pending.get(digest)
        if packed is None:
            packed = self.store.get(digest)
        return packed

    def setdefault(self, digest: bytes, packed: bytes) -> bytes:
        existing = self.get(digest)
        if existing is not None:
            return existing
        self.pending[digest] = packed
        return packed


@dataclass(frozen=True)
class EngineReport:
    """Progress snapshot of one exploration.

    The engine builds one of these on its progress cadence (whenever a
    progress reporter or a run-ledger handle is attached) and once when
    the exploration ends; :meth:`live` projects the fields the progress
    line, the ledger heartbeat, serve's progress events and the
    ``engine.run`` span share, so those can never disagree.  The final
    snapshot is :attr:`ExplorationEngine.last_report` after every
    ``explore()`` call (including ones that raised
    :class:`~repro.engine.budget.BudgetExhausted`; ``None`` after one
    that failed before exploring, e.g. an unusable resume).  It covers that one
    exploration: a refutation runs several, and its run-ledger record
    sums them from the metrics registry instead.  ``degraded`` is
    true when the run finished on in-process expanders despite multiple
    workers being requested, because fork was unavailable.
    """

    states: int
    transitions: int
    rounds: int
    elapsed_seconds: float
    workers: int
    degraded: bool
    #: Peak RSS per worker slot in KiB, as self-reported over the reply
    #: pipe (forked pools only; empty for in-process runs).  The honest
    #: memory number for a parallel run is the coordinator's own
    #: ``ru_maxrss`` *plus* the sum of these — ``RUSAGE_CHILDREN`` only
    #: folds in children that already exited.
    worker_rss_kb: tuple = ()
    #: Successors whose packed bytes were recomputed coordinator-side
    #: because a torn visited-table slot suppressed their shipment (see
    #: the engine's missing-bytes recovery).
    recovered_states: int = 0
    #: Which :mod:`~repro.engine.store` backend held the run's states:
    #: ``"sqlite"``, or ``"memory"`` for a classic in-RAM run.
    store_backend: str = "memory"
    #: Frontier digests that overflowed the in-memory window onto disk.
    spilled_states: int = 0
    #: Durable store flushes (each one is a delta-checkpoint boundary).
    store_flushes: int = 0
    #: Wall-clock seconds spent inside store flushes.
    store_flush_seconds: float = 0.0
    #: The coordinator's own peak RSS in KiB (``ru_maxrss``; add
    #: ``worker_rss_kb`` for the whole-run number, as documented there).
    peak_rss_kb: int = 0
    #: The RSS ceiling the run was asked to respect (reporting only; the
    #: CLI enforces it with ``resource.setrlimit`` before the run).
    rss_limit_mb: int | None = None
    #: Wall-clock seconds per internal phase (``expand_seconds``,
    #: ``merge_seconds``, worker-side serialization, ...) — the same
    #: breakdown the ``engine.phase.*`` counters publish, carried on the
    #: report so run-ledger records and ``repro runs diff`` can compare
    #: phase histograms without a metrics registry attached.
    phase_seconds: dict = field(default_factory=dict)
    #: Transition-memo misses during the run and the entries the memo
    #: held at its end (:class:`~repro.ioa.composition.Composition`),
    #: counted in this process: forked workers' copies are not included.
    memo_misses: int = 0
    memo_entries: int = 0
    #: States discovered but not yet expanded.
    frontier: int = 0
    #: Latency of the last store flush in milliseconds (``None`` before
    #: the first one, and for runs without a store).
    flush_ms: float | None = None

    def live(self) -> dict:
        """The live fields: what progress lines and heartbeats render.

        ``spilled`` appears only for a store-backed run, and
        ``flush_ms`` only once a store flush has happened.
        """
        fields = {
            "states": self.states,
            "transitions": self.transitions,
            "frontier": self.frontier,
            "workers": self.workers,
            "rounds": self.rounds,
            "elapsed": round(self.elapsed_seconds, 3),
            "phases": dict(self.phase_seconds),
        }
        if self.store_backend != "memory":
            fields["spilled"] = self.spilled_states
        if self.flush_ms is not None:
            fields["flush_ms"] = self.flush_ms
        return fields

    def summary(self) -> str:
        """One-line human summary (the shared report protocol)."""
        line = (
            f"engine: {self.states} states / {self.transitions} transitions"
            f" in {self.elapsed_seconds:.3f}s"
            f" ({self.workers} worker{'s' if self.workers != 1 else ''}"
            f", {self.rounds} rounds)"
        )
        if self.degraded:
            line += "; degraded to in-process expansion"
        if self.store_backend != "memory":
            line += (
                f"; store={self.store_backend}"
                f" ({self.store_flushes} flushes"
                f", {self.spilled_states} frontier digests spilled)"
            )
        if self.rss_limit_mb is not None:
            line += (
                f"; rss {self.peak_rss_kb / 1024:.0f}"
                f"/{self.rss_limit_mb} MB"
            )
        return line

    def to_json(self) -> dict:
        """JSON-serializable payload (the shared report protocol)."""
        return {
            "states": self.states,
            "transitions": self.transitions,
            "rounds": self.rounds,
            "elapsed_seconds": self.elapsed_seconds,
            "workers": self.workers,
            "degraded": self.degraded,
            "worker_rss_kb": list(self.worker_rss_kb),
            "recovered_states": self.recovered_states,
            "store_backend": self.store_backend,
            "spilled_states": self.spilled_states,
            "store_flushes": self.store_flushes,
            "store_flush_seconds": self.store_flush_seconds,
            "peak_rss_kb": self.peak_rss_kb,
            "rss_limit_mb": self.rss_limit_mb,
            "phase_seconds": dict(self.phase_seconds),
            "memo_misses": self.memo_misses,
            "memo_entries": self.memo_entries,
            "frontier": self.frontier,
            "flush_ms": self.flush_ms,
        }


class ExplorationEngine:
    """Parallel, checkpointed, budgeted exploration of failure-free graphs.

    Parameters
    ----------
    workers:
        Expansion processes.  ``1`` (the default) runs in-process.  More
        than one needs a ``store`` (``ValueError`` without one) and
        explores through it with forked workers — or in-process
        expanders when the platform lacks the ``fork`` start method (the
        system under analysis is not picklable, so workers must inherit
        it — see :mod:`repro.engine.parallel`).
    budget:
        The :class:`Budget`; defaults to the explorer's historical
        ``Budget(max_states=200_000)``.
    store:
        Where discovered states live: ``None`` (the default) keeps
        the classic in-RAM exploration; otherwise a
        :mod:`~repro.engine.store` selector — a URI string
        (``"sqlite"`` for a scratch directory, or ``"sqlite:/path"``), a
        :class:`~repro.engine.store.StoreConfig`, or a ready
        :class:`~repro.engine.store.StateStore` instance (bound to
        exactly one exploration).  With a store the engine runs
        **digest-native**: decoded states are never retained, so RSS
        stays bounded while the packed bytes stream to the backend, and
        the produced graph is still identical to the classic one.  A
        configured path is namespaced per exploration by root digest,
        so pipelines reuse one directory safely.
    checkpoint_dir:
        When set, the engine snapshots its progress into this directory
        every ``flush_interval`` expansions and on budget exhaustion;
        snapshots are named by the root state's digest and deleted when
        their exploration completes.  Store-backed runs write streaming
        *delta segments* (tiny counter + frontier files — the states are
        already in the store); classic runs write monolithic checkpoint
        files.  Segments are only as durable as their store, so a
        scratch store (``"sqlite"``, ``StoreConfig(path=None)``: deleted
        when its exploration ends) with ``checkpoint_dir`` is a
        ``ValueError``.
    flush_interval:
        Expansions between durable store flushes / checkpoint
        snapshots.  ``None`` defers to the store's configured
        :attr:`~repro.engine.store.StoreConfig.flush_interval` (50,000
        without a store).
    resume:
        When true (and ``checkpoint_dir`` holds a checkpoint for this
        root), continue from the snapshot instead of starting over.  A
        checkpoint resumes only under the configuration that wrote it:
        store-backed runs resume from the newest delta segment (the
        store is truncated to the segment's durable marks), classic runs
        from the monolithic v2 file, and either kind found by the
        other raises :class:`~repro.engine.checkpoint.CheckpointError`.
    rss_limit_mb:
        The RSS ceiling the run is expected to respect, echoed in
        :class:`EngineReport` next to the measured ``peak_rss_kb``.
        Reporting only — enforcement belongs to the caller (the CLI's
        ``--rss-limit-mb`` installs a ``resource.setrlimit`` address
        -space cap before the run starts).
    progress:
        A :class:`~repro.obs.progress.ProgressReporter` for live
        ``states/s`` lines on stderr, handed :meth:`EngineReport.live`
        per round in parallel runs and every 256 expansions
        sequentially.  ``None`` (the default) consults the
        ``REPRO_PROGRESS`` environment variable; pass ``False`` to force
        it off regardless of the environment.
    cancel:
        A cooperative stop signal: a zero-argument callable (or a
        :class:`threading.Event`, whose ``is_set`` is used) polled at
        the same cadence as the deadline.  When it reports true, the
        run exits through the budget machinery —
        :class:`~repro.engine.budget.BudgetExhausted` with
        ``resource="cancelled"``, checkpoint written when checkpointing
        is on — so a cancelled exploration is resumable, not lost.
        This is how ``repro serve`` aborts jobs on DELETE and drains
        in-flight work at shutdown.
    run:
        The run-ledger identity of this exploration: either a
        :class:`~repro.obs.ledger.RunHandle` (the engine then refreshes
        its heartbeat file on the progress cadence with the same
        :meth:`EngineReport.live` fields the progress line renders)
        or a bare run-id string (identity only, no heartbeats).  The id
        is stamped into checkpoint and delta-segment metadata so ``repro
        runs show`` can tie artifacts back to the run.  ``None`` (the
        default) keeps the engine ledger-free.
    """

    def __init__(
        self,
        workers: int = 1,
        budget: Budget | None = None,
        *,
        store: StateStore | StoreConfig | str | None = None,
        checkpoint_dir: str | Path | None = None,
        flush_interval: int | None = None,
        resume: bool = False,
        rss_limit_mb: int | None = None,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
        progress: ProgressReporter | bool | None = None,
        cancel=None,
        run=None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = resolve_store(store)
        if flush_interval is None:
            config = getattr(self.store, "config", self.store)
            flush_interval = (
                config.flush_interval
                if isinstance(config, StoreConfig)
                else DEFAULT_FLUSH_INTERVAL
            )
        if flush_interval < 1:
            raise ValueError("flush_interval must be >= 1")
        if rss_limit_mb is not None and rss_limit_mb < 1:
            raise ValueError(f"rss_limit_mb must be >= 1, got {rss_limit_mb}")
        if workers > 1 and self.store is None:
            raise ValueError(
                f"workers={workers} needs a store: the worker pool runs on a "
                "sqlite store; use workers=1 (the in-RAM loop, the fastest "
                "without a store) or pass store='sqlite:/path'"
            )
        if (
            checkpoint_dir is not None
            and isinstance(self.store, StoreConfig)
            and self.store.path is None
        ):
            raise ValueError(
                "checkpoint_dir needs a store that outlives the run: a "
                "scratch store (store='sqlite', no path) is deleted when its "
                "exploration ends, so its delta segments could never resume; "
                "pass store='sqlite:/path' or no store"
            )
        self.workers = workers
        self.budget = DEFAULT_BUDGET if budget is None else budget
        self.checkpoint_dir = None if checkpoint_dir is None else Path(checkpoint_dir)
        self.flush_interval = flush_interval
        self.rss_limit_mb = rss_limit_mb
        #: Root digest a caller-owned StateStore instance is bound to.
        self._store_bound: bytes | None = None
        self.resume = resume
        self.tracer = tracer
        self.metrics = metrics
        if progress is None:
            self.progress = progress_from_env()
        elif progress is False:
            self.progress = None
        elif progress is True:
            self.progress = ProgressReporter()
        else:
            self.progress = progress
        self.cancel = getattr(cancel, "is_set", cancel)
        if self.cancel is not None and not callable(self.cancel):
            raise TypeError("cancel must be callable or carry is_set()")
        #: The live ledger handle (heartbeats) and the bare run id
        #: (checkpoint/segment metadata); see the ``run`` parameter.
        self.run_handle = run if hasattr(run, "heartbeat") else None
        self.run_id = run if isinstance(run, str) else getattr(run, "run_id", None)
        #: :class:`EngineReport` of the most recent ``explore()`` call.
        self.last_report: EngineReport | None = None

    # -- public API -----------------------------------------------------------

    def explore(
        self,
        view: DeterministicSystemView,
        root: Hashable,
        prune: Callable[[Hashable], bool] | None = None,
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> StateGraph:
        """Exhaust the failure-free graph reachable from ``root``.

        Raises :class:`~repro.engine.budget.BudgetExhausted` (an
        :class:`~repro.analysis.explorer.ExplorationBudget`) when a
        budget limit is hit, with progress stats and — when
        checkpointing is on — the snapshot to resume from; raises
        :class:`~repro.engine.errors.WorkerLost`, with the same
        checkpoint fields, when a pool worker dies.

        Store-backed runs (``store=``, which every run with more than
        one worker needs) materialize the returned
        :class:`~repro.analysis.explorer.StateGraph` from the store at
        the end — which decodes every state back into RAM; a classic
        run returns the graph it built in RAM.  For runs
        whose entire point is *not* holding the graph in memory, use
        :meth:`scan`.
        """
        with self._run_scope(view, root, prune, tracer, metrics) as run:
            self._drive(run)
            if run.store is not None:
                return self._materialize_graph(run)
            return StateGraph(
                root=root, order=run.order, position=run.index, succ=run.succ
            )

    def scan(
        self,
        view: DeterministicSystemView,
        root: Hashable,
        prune: Callable[[Hashable], bool] | None = None,
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> EngineReport:
        """Exhaust the graph without materializing it; returns the report.

        Identical exploration to :meth:`explore` — same budgets,
        checkpoints, and identical-graph discovery order — but nothing
        is decoded back at the end, so a disk-backed run's RSS stays
        bounded by the frontier window instead of the state count.
        This is the entry point for the 10^6+-state instances the
        in-memory engine cannot touch; the store (and its directory,
        when configured with a real path) retains the packed graph for
        later materialization or auditing.
        """
        with self._run_scope(view, root, prune, tracer, metrics) as run:
            self._drive(run)
        return self.last_report

    @contextmanager
    def _run_scope(self, view, root, prune, tracer, metrics) -> Iterator[_Run]:
        """One exploration's resources, released in reverse on every exit.

        Each resource is registered as it is acquired: the GC scope
        (:func:`_relax_young_gc`, entered before the pool forks, so its
        workers inherit the raised threshold), the ``engine.run`` span (so
        a failed setup or resume still ends it, with status ``error``),
        then the store (closed if the engine opened it, flushed if it is
        the caller's), the worker pool and the progress reporter.  The
        checkpoint is discarded only after a clean exit.
        """
        run = self._new_run(
            view,
            root,
            prune,
            self.tracer if tracer is None else tracer,
            self.metrics if metrics is None else metrics,
        )
        with ExitStack() as scope:
            _relax_young_gc()
            scope.callback(_restore_young_gc)
            attrs = {"workers": self.workers}
            if self.run_id is not None:
                attrs["run"] = self.run_id
            span = start_span(run.tracer, "engine.run", **attrs)
            scope.push(partial(self._end_run, run, span))
            if self.store is None:
                self._start_classic(run)
            else:
                run.store = self._open_store(run.root_digest)
                scope.callback(
                    run.store.flush if run.store is self.store else run.store.close
                )
                self._start_store(run)
            if run.resumed and run.metrics.enabled:
                run.metrics.counter("engine.resumes").inc()
            run.started = time.monotonic()
            run.deadline = Deadline(
                self.budget.deadline_seconds, already_elapsed=run.elapsed_prior
            )
            if self.workers > 1:
                run.pool = WorkerPool(
                    self.workers,
                    view,
                    prune,
                    expected_states=self.budget.max_states,
                    tracer=run.tracer,
                    metrics=run.metrics,
                ).start()
                scope.callback(run.pool.stop)
            if self.progress is not None:
                scope.callback(self.progress.finish)
            yield run
        if self.checkpoint_dir is not None:
            discard_checkpoint(self.checkpoint_dir, run.root_digest)

    def _end_run(self, run: _Run, span, exc_type, exc, traceback) -> bool:
        """The scope's last exit step: end the span, publish the report."""
        if exc_type is None:
            status = "ok"
        elif issubclass(exc_type, BudgetExhausted):
            status = "exhausted"
        else:
            # A lost worker, a store or checkpoint error, a raising
            # cancel hook, KeyboardInterrupt: the run did not finish.
            status = "error"
        report = run.report
        live = {} if report is None else report.live()
        end_span(run.tracer, span, status=status, resumed=run.resumed, **live)
        if report is not None:
            self._publish(run, report)
        self.last_report = report
        return False

    def _drive(self, run: _Run) -> None:
        """Run the exploration loop; its end is the run's final snapshot."""
        try:
            if self.workers > 1:
                self._drive_store_parallel(run)
            elif run.store is not None:
                self._drive_store_sequential(run)
            else:
                self._drive_sequential(run)
        except _Exhausted as signal:
            path = self._write_checkpoint(run)
            if run.metrics.enabled:
                run.metrics.counter("explore.budget_exhausted").inc()
                run.metrics.counter("engine.budget_exhausted").inc()
            raise BudgetExhausted(
                resource=signal.resource,
                limit=signal.limit,
                states=run.states_count(),
                transitions=run.transitions,
                elapsed_seconds=run.elapsed(),
                checkpoint=path,
                resume_command=None if path is None else self._resume_hint(),
            ) from None
        except WorkerLost as lost:
            # The pool is stopped and the lost round's frontier is back
            # at its head: checkpoint that and hand the resume path to
            # the caller.
            path = self._write_checkpoint(run)
            raise WorkerLost(
                lost.worker,
                lost.round_index,
                checkpoint=path,
                resume_command=None if path is None else self._resume_hint(),
            ) from None
        finally:
            run.report = self._tick(run, force=True)

    def _resume_hint(self) -> str:
        """The resume recipe, naming the configured store (if any)."""
        store = self.store.to_uri() if isinstance(self.store, StoreConfig) else None
        return resume_hint(self.checkpoint_dir, store)

    # -- run setup ------------------------------------------------------------

    def _new_run(self, view, root, prune, tracer, metrics) -> _Run:
        run = _Run()
        run.view = view
        run.root = root
        run.codec = Codec()
        run.root_digest = run.codec.encode_digest(root)[1]
        run.prune = prune
        run.tracer = tracer
        run.tracing = tracer.enabled
        run.metrics = metrics
        # The classic loop's position index, state -> discovery position
        # (the graph's ``position``, handed over at the end).
        run.index = {}
        run.transitions = 0
        run.expanded = 0
        run.rounds = 0
        run.since_checkpoint = 0
        run.resumed = False
        run.recovered = 0
        run.elapsed_prior = 0.0
        run.phase = {}
        run.orbit_hits = 0
        run.pruned_tasks = 0
        run.pool = None
        run.store = None
        run.task_slot = None
        run.segment_seq = 0
        run.last_flush_ms = None
        run.cache_published = (0, 0)
        run.memo_start = view.system.memo_misses
        run.report = None
        return run

    def _start_classic(self, run: _Run) -> None:
        """Seed the in-RAM tables: from a monolithic checkpoint, or the root."""
        checkpoint = None
        if self.resume and self.checkpoint_dir is not None:
            path = find_checkpoint(self.checkpoint_dir, run.root_digest)
            if path is not None:
                checkpoint = load_checkpoint(path)
        if checkpoint is None:
            run.order = [run.root]
            run.succ = []
        else:
            run.order = checkpoint.order
            run.succ = checkpoint.succ
            run.transitions = checkpoint.transitions
            run.elapsed_prior = checkpoint.elapsed_seconds
            run.resumed = True
        index = run.index
        for position, state in enumerate(run.order):
            index[state] = position

    # -- store-backed runs ----------------------------------------------------

    def _open_store(self, root_digest: bytes) -> StateStore:
        """The store for one exploration of ``root_digest``.

        A caller's :class:`StateStore` instance is returned as is (the
        caller owns it); a :class:`StoreConfig` opens a fresh store.
        """
        if isinstance(self.store, StateStore):
            if self._store_bound is not None and self._store_bound != root_digest:
                raise EngineError(
                    "a StateStore instance serves exactly one exploration; "
                    "this one is bound to root "
                    f"{self._store_bound.hex()} — pass a StoreConfig or URI "
                    "to let the engine open per-run stores"
                )
            self._store_bound = root_digest
            return self.store
        return open_store(self.store, namespace=root_digest.hex())

    def _start_store(self, run: _Run) -> None:
        """Seed the store: from the newest delta segment, or the root."""
        store = run.store
        run.task_slot = {task: slot for slot, task in enumerate(run.view.tasks)}
        if self.resume and self.checkpoint_dir is not None:
            run.resumed = self._resume_external(run)
        if run.resumed:
            return
        if len(store) > 0:
            if store is self.store:
                raise EngineError(
                    "the StateStore already holds an exploration; pass "
                    "resume=True to continue it or a fresh store to start over"
                )
            # resume=False means start over, exactly as a stale
            # monolithic checkpoint would be overwritten.
            store.clear()
        store.add(run.root_digest, run.codec.encode(run.root))
        store.push(run.root_digest)

    def _resume_external(self, run: _Run) -> bool:
        store = run.store
        segment = load_segment(self.checkpoint_dir, run.root_digest)
        if segment is None:
            path = checkpoint_path(self.checkpoint_dir, run.root_digest)
            if path.exists():
                # A checkpoint resumes only under the configuration that
                # wrote it, mirroring load_checkpoint's refusal of a
                # segment directory for a store-less resume.
                raise CheckpointError(
                    f"{path} is a classic checkpoint, written without a "
                    "store; resume it without store= (no --store on the "
                    "CLI), or delete it to start the store-backed run over"
                )
            return False
        if len(store) < segment.marks.get("states", 0):
            raise CheckpointError(
                "delta segment expects "
                f"{segment.marks.get('states', 0)} states but the "
                f"store holds {len(store)}; resume needs the store "
                "directory the segment was written against"
            )
        store.truncate(segment.marks)
        store.frontier_load(segment.frontier_blob)
        run.transitions = segment.transitions
        run.elapsed_prior = segment.elapsed_seconds
        run.expanded = segment.meta.get("expanded", 0)
        compact_segments(self.checkpoint_dir, run.root_digest, segment.seq)
        run.segment_seq = segment.seq + 1
        return True

    def _materialize_graph(self, run: _Run) -> StateGraph:
        """Rebuild the store's graph as a classic :class:`StateGraph`.

        Successor indices are resolved by digest, never by ``==`` — two
        ==-equal states with distinct encodings are distinct graph
        nodes.  The store logs expansions in discovery order, as the
        classic loop does; a store that does not fails here instead of
        yielding a wrong graph.
        """
        store = run.store
        codec = run.codec
        order: list = []
        index_of: dict[bytes, int] = {}
        # A state this process resolved rebuilds from its vector; only the
        # rest (states a resumed run inherited, or whose vectors a trim
        # dropped) are decoded.
        resolved = codec.resolved()
        for packed in store.iter_packed():
            digest = digest_of_packed(packed)
            index_of[digest] = len(order)
            state = resolved.get(digest)
            if state is None:
                state = codec.decode(packed)
            order.append(state)
        tasks = run.view.tasks
        actions = store.actions()
        succ: list = []
        for parent_digest, rows in store.iter_expansions():
            if index_of[parent_digest] != len(succ):
                raise EngineError(
                    f"the store logs an expansion of position "
                    f"{index_of[parent_digest]} where position {len(succ)} "
                    "was due; the exploration is corrupt (please report this)"
                )
            succ.append(
                [
                    (tasks[task], actions[action], index_of[successor])
                    for task, action, successor in rows
                ]
            )
        return StateGraph(
            root=run.root, order=order, position=_first_positions(order), succ=succ
        )

    # -- drivers --------------------------------------------------------------

    def _drive_sequential(self, run: _Run) -> None:
        budget = self.budget
        cancel = self.cancel
        deadline_enabled = run.deadline.enabled
        polling = deadline_enabled or cancel is not None
        timing = run.metrics.enabled
        ticking = self._ticking()
        order = run.order
        succ = run.succ
        # Breadth-first search expands in discovery order, so the
        # frontier is order[len(succ):] and its head is a cursor.
        while len(succ) < len(order):
            if polling and run.expanded % _DEADLINE_STRIDE == 0:
                if cancel is not None and cancel():
                    raise _Exhausted("cancelled", 0.0)
                if deadline_enabled and run.deadline.expired():
                    raise _Exhausted("deadline", budget.deadline_seconds)
            if ticking and run.expanded % 256 == 0:
                self._tick(run)
            state = order[len(succ)]
            if run.prune is not None and run.prune(state):
                self._commit_pruned(run)
            elif timing:
                before = time.perf_counter()
                out = run.view.successors(state)
                run.phase["expand_seconds"] = run.phase.get(
                    "expand_seconds", 0.0
                ) + (time.perf_counter() - before)
                self._commit(run, out)
            else:
                self._commit(run, run.view.successors(state))
            self._maybe_checkpoint(run)

    # -- store-backed (digest-native) drivers ---------------------------------
    #
    # These mirror _drive_sequential with one structural difference: the
    # frontier, visited set and edges live in the StateStore keyed by
    # digest, so RSS is bounded by the codec's capped tables and the
    # frontier window instead of the state count.  The sequential driver
    # keeps no state object of its own: it resolves each successor by
    # its component-id vector in the codec's vector->digest map, encodes
    # and hashes a state once, when first seen, and rebuilds a state it
    # discovered from that vector when expanding it; only a state loaded
    # by a resume, or one queued before a trim cleared the table, is
    # decoded from the store.  The parallel driver decodes inside the workers.
    # Discovery still happens in exact frontier order — same BFS, same
    # graph.

    def _drive_store_sequential(self, run: _Run) -> None:
        budget = self.budget
        cancel = self.cancel
        store = run.store
        codec = run.codec
        view = run.view
        prune = run.prune
        deadline_enabled = run.deadline.enabled
        polling = deadline_enabled or cancel is not None
        timing = run.metrics.enabled
        ticking = self._ticking()
        if not run.resumed:
            codec.remember(codec.vector(run.root), run.root_digest, queued=True)
        while store.frontier_len():
            if polling and run.expanded % _DEADLINE_STRIDE == 0:
                if cancel is not None and cancel():
                    raise _Exhausted("cancelled", 0.0)
                if deadline_enabled and run.deadline.expired():
                    raise _Exhausted("deadline", budget.deadline_seconds)
            if ticking and run.expanded % 256 == 0:
                self._tick(run)
            digest = store.pop()
            state = codec.take(digest)
            if state is None:
                state = codec.decode(store.get(digest))
            if prune is not None and prune(state):
                self._commit_external_empty(run, digest)
            else:
                if timing:
                    before = time.perf_counter()
                    out = view.successors(state)
                    run.phase["expand_seconds"] = run.phase.get(
                        "expand_seconds", 0.0
                    ) + (time.perf_counter() - before)
                else:
                    out = view.successors(state)
                self._commit_vectors(run, digest, out)
            self._maybe_checkpoint(run)

    def _drive_store_parallel(self, run: _Run) -> None:
        budget = self.budget
        store = run.store
        pool = run.pool
        # The wire protocol's packed_of table, backed by the store: the
        # store serves every already-discovered digest; novel bytes from
        # worker replies stage in an in-RAM overlay for the duration of
        # one round's merge (they must transit RAM anyway — the reply
        # pipe just delivered them) and reach the store via _commit.
        # The shared visited filter starts cold on purpose: it is a
        # filter, never truth, and re-seeding it with 10^7 digests would
        # cost more than the duplicate shipping it avoids.
        packed_of = _StorePackedMap(store)
        cancel = self.cancel
        # A round is at most one frontier window: rounds are consecutive
        # prefixes of the FIFO, so the cap bounds the coordinator's
        # in-RAM frontier without changing the merge order.
        window = store.config.frontier_window
        while store.frontier_len():
            if cancel is not None and cancel():
                raise _Exhausted("cancelled", 0.0)
            if run.deadline.expired():
                raise _Exhausted("deadline", budget.deadline_seconds)
            digests = []
            while len(digests) < window:
                digest = store.pop()
                if digest is None:
                    break
                digests.append(digest)
            round_span = start_span(
                run.tracer, "round", round=run.rounds + 1, states=len(digests)
            )
            try:
                results = pool.run_round(
                    run.rounds + 1,
                    digests,
                    packed_of,
                    run.phase,
                    round_span_id=(
                        None if round_span is None else round_span.span_id
                    ),
                )
            except WorkerLost:
                # Nothing of the round was merged: put its whole
                # frontier back at the head, in order.
                for digest in reversed(digests):
                    store.push_front(digest)
                end_span(run.tracer, round_span, status="error")
                raise
            merge_started = time.perf_counter()
            position = 0
            try:
                for position, digest in enumerate(digests):
                    result = results[position]
                    if result == PRUNED:
                        self._commit_external_empty(run, digest)
                        continue
                    rows = []
                    for task_index, action, succ_digest in result:
                        packed = packed_of.get(succ_digest)
                        if packed is None:
                            packed = self._recover_packed_external(
                                run, digest, succ_digest, packed_of
                            )
                        rows.append((task_index, action, succ_digest, packed))
                    self._commit_external(run, digest, rows)
            except _Exhausted:
                # _commit_external re-queued the offending digest at
                # the head; slot the round's unmerged tail right
                # after it to preserve BFS order.
                state_digest = store.pop()
                for tail_digest in reversed(digests[position + 1 :]):
                    store.push_front(tail_digest)
                store.push_front(state_digest)
                end_span(run.tracer, round_span, status="exhausted")
                raise
            finally:
                packed_of.pending.clear()
                run.phase["merge_seconds"] = run.phase.get(
                    "merge_seconds", 0.0
                ) + (time.perf_counter() - merge_started)
            run.rounds += 1
            if run.tracing:
                run.tracer.emit(
                    WORKER_ROUND,
                    round=run.rounds,
                    expanded=len(digests),
                    shards=pool.last_round_producers,
                    frontier=store.frontier_len(),
                )
            end_span(run.tracer, round_span, frontier=store.frontier_len())
            self._tick(run)
            self._maybe_checkpoint(run)

    def _commit_external_empty(self, run: _Run, digest: bytes) -> None:
        """A pruned expansion: node kept, no outgoing edges."""
        run.store.append_expansion(digest, [])
        run.expanded += 1
        run.since_checkpoint += 1
        if run.tracing:
            run.tracer.emit(STATE_EXPLORED, edges=0, pruned=True)

    def _check_transitions(self, run: _Run, digest: bytes, edges: int) -> None:
        """Re-queue ``digest`` and signal if ``edges`` more breach the budget."""
        limit = self.budget.max_transitions
        if limit is not None and run.transitions + edges > limit:
            run.store.push_front(digest)
            raise _Exhausted("transitions", limit)

    def _discover_external(
        self, run: _Run, parent: bytes, digest: bytes, packed: bytes
    ) -> None:
        """Add a state the store does not hold and queue it.

        A states-budget breach leaves the identical checkpoint-consistent
        shape the classic :meth:`_commit` documents: ``parent`` back at
        the frontier's head (expansion record withheld) with any
        successors discovered before the breach already in the store and
        queued behind it.
        """
        store = run.store
        max_states = self.budget.max_states
        if max_states is not None and len(store) >= max_states:
            store.push_front(parent)
            raise _Exhausted("states", max_states)
        store.add(digest, packed)
        store.push(digest)

    def _log_expansion(self, run: _Run, digest: bytes, rows: list) -> None:
        """Record one committed store-backed expansion and count it."""
        store = run.store
        store.append_expansion(digest, rows)
        run.transitions += len(rows)
        run.expanded += 1
        run.since_checkpoint += 1
        if run.tracing:
            run.tracer.emit(
                STATE_EXPLORED, edges=len(rows), frontier=store.frontier_len()
            )

    def _commit_external(self, run: _Run, digest: bytes, out) -> None:
        """The pool's merge step: discover successors, log the expansion.

        ``out`` rows are ``(task_slot, action, succ_digest, packed)``.
        """
        self._check_transitions(run, digest, len(out))
        store = run.store
        rows = []
        for task_slot, action, succ_digest, packed in out:
            if succ_digest not in store:
                self._discover_external(run, digest, succ_digest, packed)
            rows.append((task_slot, store.action_slot(action), succ_digest))
        self._log_expansion(run, digest, rows)

    def _commit_vectors(self, run: _Run, digest: bytes, out) -> None:
        """The sequential store merge: resolve successors by vector.

        ``out`` is the expansion of ``digest``.  A successor whose
        component-id vector the codec's index holds costs one lookup;
        only a miss reaches :meth:`_discover_vector`.
        """
        self._check_transitions(run, digest, len(out))
        lookup = run.codec.lookup
        task_slot = run.task_slot
        action_slot = run.store.action_slot
        rows = []
        for task, action, successor in out:
            vector, succ_digest = lookup(successor)
            if succ_digest is None:
                succ_digest = self._discover_vector(run, digest, successor, vector)
            rows.append((task_slot[task], action_slot(action), succ_digest))
        self._log_expansion(run, digest, rows)

    def _discover_vector(
        self, run: _Run, parent: bytes, successor, vector: tuple
    ) -> bytes:
        """Encode and hash a successor the index lacks; add it if novel.

        Without a trim this runs once per discovered state; a state the
        store already holds got here because a trim, or a resume, emptied
        the index.  A novel state keeps its vector for its expansion.
        """
        codec = run.codec
        packed, digest = codec.encode_digest(successor)
        novel = digest not in run.store
        if novel:
            self._discover_external(run, parent, digest, packed)
        codec.remember(vector, digest, queued=novel)
        return digest

    def _recover_packed_external(
        self, run: _Run, parent_digest: bytes, digest: bytes, packed_of
    ) -> bytes:
        """Re-derive packed bytes a worker reply referenced but never shipped.

        One rare path gets here: a torn shared visited-table slot
        answered "present" to a digest nobody shipped.  The parent is in
        the store and the view is deterministic, so re-expanding it
        in-process reproduces the exact successor — the identical-graph
        guarantee never rests on the table.
        """
        parent = run.codec.decode(run.store.get(parent_digest))
        recovered = None
        for _task, _action, post in run.view.successors(parent):
            packed, post_digest = run.codec.encode_digest(post)
            packed_of.setdefault(post_digest, packed)
            if post_digest == digest:
                recovered = packed
        if recovered is None:
            raise EngineError(
                f"worker reply referenced digest {digest.hex()} that is not "
                "a successor of its parent state; the exploration is "
                "corrupt (please report this)"
            )
        run.recovered += 1
        if run.metrics.enabled:
            run.metrics.counter("engine.recovered_states").inc()
        return recovered

    # -- the single merge step ------------------------------------------------

    def _commit_pruned(self, run: _Run) -> None:
        run.succ.append([])
        run.expanded += 1
        run.since_checkpoint += 1
        if run.tracing:
            run.tracer.emit(STATE_EXPLORED, edges=0, pruned=True)

    def _commit(self, run: _Run, out) -> None:
        """Discover ``out``'s successors and record the expansion.

        ``out`` is the expansion of ``run.order[len(run.succ)]``, the
        frontier's head.  Each successor resolves to its discovery
        position with one index lookup; a novel one is appended to
        ``order``.  On a budget breach the row is withheld, which leaves
        the run in the documented checkpoint-consistent shape — the
        offending state still at the frontier's head, any successors it
        already discovered queued behind it — then signals the driver.
        """
        budget = self.budget
        if (
            budget.max_transitions is not None
            and run.transitions + len(out) > budget.max_transitions
        ):
            raise _Exhausted("transitions", budget.max_transitions)
        index = run.index
        get = index.get
        order = run.order
        max_states = budget.max_states
        row = []
        for task, action, successor in out:
            position = get(successor)
            if position is None:
                position = len(order)
                if max_states is not None and position >= max_states:
                    raise _Exhausted("states", max_states)
                index[successor] = position
                order.append(successor)
            row.append((task, action, position))
        run.succ.append(row)
        run.transitions += len(out)
        run.expanded += 1
        run.since_checkpoint += 1
        if run.tracing:
            run.tracer.emit(
                STATE_EXPLORED, edges=len(out), frontier=len(order) - len(run.succ)
            )

    # -- live snapshots -------------------------------------------------------

    def _ticking(self) -> bool:
        """Whether anything renders the live snapshot (see :meth:`_tick`)."""
        return self.progress is not None or self.run_handle is not None

    def _tick(self, run: _Run, force: bool = False) -> EngineReport | None:
        """Hand one snapshot to the progress reporter and the ledger handle.

        Called on the progress cadence, never per expansion; both
        renderers throttle themselves unless ``force``.  Builds nothing
        (and returns ``None``) when neither is attached, except when
        forced: the forced end-of-run snapshot is the run's report.
        """
        if not (force or self._ticking()):
            return None
        report = self._build_report(run)
        live = report.live()
        if self.progress is not None:
            self.progress.update(live, budget=self.budget, force=force)
        if self.run_handle is not None:
            self.run_handle.heartbeat(force=force, **live)
        return report

    # -- store flush instrumentation ------------------------------------------

    def _flush_store(self, run: _Run) -> None:
        """Flush the store and publish the flush live (latency, spill depth).

        Before this the store counters surfaced only in the end-of-run
        :class:`EngineReport`; a stalled disk backend was invisible until
        the run finished.  The flush cadence is the natural publication
        point — it is already off the hot loop.
        """
        before = time.perf_counter()
        run.store.flush()
        run.last_flush_ms = (time.perf_counter() - before) * 1000.0
        metrics = run.metrics
        if metrics.enabled:
            metrics.histogram("engine.store.flush_ms").observe(run.last_flush_ms)
            metrics.gauge("engine.store.spill_depth").set(
                run.store.stats().spilled_states
            )
            self._publish_cache_counters(run)

    def _publish_cache_counters(self, run: _Run) -> None:
        """Publish codec decode-cache hits/misses accumulated since last time.

        Idempotent against :meth:`_publish`: ``run.cache_published``
        remembers what already reached the registry, so live flushes and
        the end-of-run publication never double-count.
        """
        hits, misses = run.codec.stats()
        if run.pool is not None:
            hits += run.pool.cache_hits
            misses += run.pool.cache_misses
        published_hits, published_misses = run.cache_published
        metrics = run.metrics
        if hits > published_hits:
            metrics.counter("engine.codec.cache_hits").inc(hits - published_hits)
        if misses > published_misses:
            metrics.counter("engine.codec.cache_misses").inc(misses - published_misses)
        run.cache_published = (max(hits, published_hits), max(misses, published_misses))

    # -- checkpointing --------------------------------------------------------

    def _maybe_checkpoint(self, run: _Run) -> None:
        if run.store is not None:
            # The composition's transition memo pins one decoded object
            # per distinct component value, and a reduced view's orbit
            # cache maps every orbit image it has seen to its
            # representative: unbounded decoded-state caches that defeat
            # the store's RSS ceiling.  Trimming only on the flush
            # cadence is not enough (a flush window of parents x
            # branching x orbit size entries reaches hundreds of MB), so
            # cap them by entry count on every expansion; a dropped
            # entry costs one recompute.
            run.view.trim_caches(ORBIT_CACHE_LIMIT)
            # Same story for the codec: its intern table pins every
            # distinct component object ever encoded or decoded, and its
            # vector map holds every state resolved, which for a
            # streaming run is the whole history.
            run.codec.trim(CODEC_CACHE_LIMIT)
        if run.since_checkpoint < self.flush_interval:
            return
        if self.checkpoint_dir is not None:
            self._write_checkpoint(run)
        elif run.store is not None:
            # No checkpointing, but the store's write buffers must still
            # drain on the flush cadence or a disk backend quietly grows
            # an unbounded pending list in RAM.
            self._flush_store(run)
            run.since_checkpoint = 0

    def _checkpoint_meta(self, run: _Run) -> dict:
        """Checkpoint/segment metadata: progress marks plus run identity."""
        meta = {"expanded": run.expanded}
        if self.run_id is not None:
            meta["run_id"] = self.run_id
        return meta

    def _write_checkpoint(self, run: _Run) -> Path | None:
        if self.checkpoint_dir is None:
            return None
        states = run.states_count()
        checkpoint_span = start_span(run.tracer, "checkpoint", states=states)
        if run.store is None:
            path = save_checkpoint(
                self.checkpoint_dir,
                Checkpoint(
                    root=run.root,
                    root_digest=run.root_digest,
                    order=run.order,
                    succ=run.succ,
                    transitions=run.transitions,
                    elapsed_seconds=run.elapsed(),
                    workers=self.workers,
                    meta=self._checkpoint_meta(run),
                ),
                codec=run.codec,
            )
        else:
            path = self._write_segment(run)
        run.since_checkpoint = 0
        if run.metrics.enabled:
            run.metrics.counter("engine.checkpoints_written").inc()
        if run.tracing:
            run.tracer.emit(CHECKPOINT_SAVED, states=states, path=str(path))
        end_span(run.tracer, checkpoint_span, path=str(path))
        return path

    def _write_segment(self, run: _Run) -> Path:
        """One streaming delta segment: flush the store, snapshot the rest."""
        store = run.store
        self._flush_store(run)
        save_segment(
            self.checkpoint_dir,
            Segment(
                root_digest=run.root_digest,
                seq=run.segment_seq,
                states=len(store),
                transitions=run.transitions,
                elapsed_seconds=run.elapsed(),
                workers=self.workers,
                marks=store.marks(),
                frontier_blob=store.frontier_snapshot(),
                store_uri=store.config.to_uri(),
                meta=self._checkpoint_meta(run),
            ),
        )
        run.segment_seq += 1
        return segment_dir(self.checkpoint_dir, run.root_digest)

    # -- reporting ------------------------------------------------------------

    def _build_report(self, run: _Run) -> EngineReport:
        """The one snapshot of a run, live or final (see :meth:`_tick`)."""
        pool = run.pool
        stats = None if run.store is None else run.store.stats()
        flush_ms = run.last_flush_ms
        if flush_ms is None and stats is not None and stats.flushes:
            # The engine has not driven a flush yet, but the backend has
            # flushed on its own buffer cadence: report its last flush so
            # the latency shows up as soon as any flush happened at all.
            flush_ms = (
                stats.last_flush_seconds or stats.flush_seconds / stats.flushes
            ) * 1000.0
        peak_rss_kb = 0
        if _resource is not None:
            peak_rss_kb = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
        return EngineReport(
            states=run.states_count(),
            transitions=run.transitions,
            rounds=run.rounds,
            elapsed_seconds=run.elapsed(),
            workers=self.workers,
            degraded=bool(pool is not None and pool.local and self.workers > 1),
            worker_rss_kb=(
                ()
                if pool is None
                else tuple(
                    pool.worker_rss_kb.get(worker, 0)
                    for worker in range(pool.workers)
                )
            ),
            recovered_states=run.recovered,
            store_backend="memory" if stats is None else "sqlite",
            spilled_states=0 if stats is None else stats.spilled_states,
            store_flushes=0 if stats is None else stats.flushes,
            store_flush_seconds=0.0 if stats is None else stats.flush_seconds,
            peak_rss_kb=peak_rss_kb,
            rss_limit_mb=self.rss_limit_mb,
            phase_seconds={
                name: round(value, 6) for name, value in run.phase.items()
            },
            memo_misses=run.view.system.memo_misses - run.memo_start,
            memo_entries=run.view.system.memo_entries(),
            frontier=run.frontier_count(),
            flush_ms=None if flush_ms is None else round(flush_ms, 3),
        )

    # -- metrics --------------------------------------------------------------

    def _publish(self, run: _Run, report: EngineReport) -> None:
        """Fold the run into the metrics registry, from its final report."""
        # Reduction stats gathered by the pool (worker replies) belong to
        # the run, metrics or not.
        if run.pool is not None:
            run.orbit_hits += run.pool.orbit_hits
            run.pruned_tasks += run.pool.pruned_tasks
            run.pool.orbit_hits = run.pool.pruned_tasks = 0
        metrics = run.metrics
        if not metrics.enabled:
            return
        metrics.counter("explore.runs").inc()
        metrics.counter("explore.states").inc(report.states)
        metrics.counter("explore.transitions").inc(report.transitions)
        metrics.gauge("explore.last_run_states").set(report.states)
        metrics.counter("engine.runs").inc()
        metrics.counter("engine.expanded").inc(run.expanded)
        metrics.gauge("engine.workers").set(self.workers)
        # Codec component-cache effectiveness, coordinator + workers
        # combined (the scaling bench asserts on the hit rate).  Delta
        # published: live store flushes already pushed a prefix.
        self._publish_cache_counters(run)
        # The transition memo's, this process only (see EngineReport).
        if report.memo_misses:
            metrics.counter("engine.memo.misses").inc(report.memo_misses)
        metrics.gauge("engine.memo.entries").set(report.memo_entries)
        if run.pool is not None and run.pool.visited_overflows:
            metrics.counter("engine.visited.overflows").inc(
                run.pool.visited_overflows
            )
        if run.rounds:
            metrics.counter("engine.rounds").inc(run.rounds)
        if run.resumed:
            metrics.gauge("engine.resumed_states").set(report.states)
        if run.store is not None:
            metrics.counter("engine.store.flushes").inc(report.store_flushes)
            if report.spilled_states:
                metrics.counter("engine.store.spilled").inc(report.spilled_states)
        for name, seconds in run.phase.items():
            if seconds:
                metrics.counter(f"engine.phase.{name}").inc(seconds)
        # Sequential runs accumulate reduction stats inside the view
        # itself; drain them here.  (The drain is inside the
        # metrics-enabled guard on purpose: engines running with
        # NULL_METRICS — e.g. the audit/compare helpers — must leave the
        # view's counters for their caller to read.)
        drain = getattr(run.view, "drain_stats", None)
        if drain is not None:
            orbit_hits, pruned_tasks = drain()
            run.orbit_hits += orbit_hits
            run.pruned_tasks += pruned_tasks
        if run.orbit_hits:
            metrics.counter("engine.reduction.orbit_hits").inc(run.orbit_hits)
        if run.pruned_tasks:
            metrics.counter("engine.reduction.pruned_tasks").inc(run.pruned_tasks)


def _first_positions(order: list) -> dict:
    """State -> position over ``order``; the first of ==-equal states wins."""
    position: dict = {}
    for index, state in enumerate(order):
        position.setdefault(state, index)
    return position
