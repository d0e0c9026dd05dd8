"""The multiprocessing substrate of the parallel engine.

The engine parallelizes the *expensive* half of breadth-first search —
computing ``view.successors(state)`` and the successor encodings — while
the coordinator keeps the cheap half (digest-set membership, graph
assembly) single-threaded, which is what makes the result provably
identical to the sequential graph (see :mod:`repro.engine.api`).  The
coordinator is the engine's store-backed round loop; one
:meth:`WorkerPool.run_round` expands one BFS layer.

Workers are long-lived ``multiprocessing`` processes created with the
**fork** start method, each attached to the coordinator by a duplex
pipe.  Fork is a requirement, not a preference: systems under analysis
close over local functions (service ``delta`` closures) and are not
picklable, so the only way a worker can hold the
:class:`~repro.analysis.view.DeterministicSystemView` is by inheriting
the parent's memory image.  A worker closes the coordinator pipe ends
it inherits, so a dead (even SIGKILLed) coordinator reads as EOF and
the worker exits with it.  When the platform cannot fork,
:class:`WorkerPool` runs on :class:`LocalExpander` stand-ins — same
protocol, same graph, no processes.

Wire protocol
-------------

States never cross the pipe as Python object graphs.  The engine's
primary representation is the **packed canonical bytes** of
:mod:`repro.engine.codec` — the same TLV encoding whose BLAKE2b digest
is the state's fingerprint, produced in the same pass
(:meth:`~repro.engine.codec.Codec.encode_digest`), so a worker that has
fingerprinted a successor already holds its wire form for free.  A
round's frontier items are bare digests.  Each worker keeps a ``digest
-> state`` cache of every state it has expanded or produced (decoded
objects stay local), and the coordinator ships an outbound frontier
entry as either

* a bare 16-byte digest — the worker re-resolves the state from its
  local cache; or
* a ``(digest, packed)`` bootstrap pair when the worker's cache does not
  hold it (the root, a resumed frontier, a successor first produced by
  another worker, or any state after a cache reset) — the worker
  decodes the packed bytes, which the coordinator reads from the store.

Outbound messages are ``(entries, ship_all, reset)`` triples;
``ship_all`` is the crash-recovery flag described below.  The
coordinator mirrors each worker's cache keys exactly (``seen``), so it
alone decides resets: once a mirror passes :data:`WORKER_CACHE_LIMIT`
and the worker is idle (no reply in flight could re-add dropped
digests), it clears the mirror and sends the next chunk — all bootstrap
pairs — with ``reset``, which empties the worker's cache first.

Replies carry ``(task_index, action_index, successor_digest)`` triples
— indices into the shared ``view.tasks`` tuple and a per-worker action
table — plus a ``novel`` list of ``(digest, packed)`` pairs for
successors this worker inserted first into the **shared visited table**
(:class:`~repro.engine.visited.SharedVisitedTable`, one lock-free
shared-memory segment inherited by every fork): a successor some other
worker already produced is *not* re-shipped, which is what keeps reply
volume proportional to distinct new states rather than to edges.  The
reply tuple also carries the newly-tabled actions, a stats tuple
(per-phase timings, reduction counters, the worker's own peak RSS, and
codec cache hit/miss deltas), and — when the coordinator's tracer or
metrics registry is enabled — a self-contained telemetry batch of span
events and counters (see :mod:`repro.obs.spans`), ``None`` otherwise.

Replies are **batched**: a worker drains up to :data:`BATCH_REPLIES`
queued chunks from its pipe before replying once with the list of
per-chunk payloads, amortizing pickle and wakeup costs across chunks.
Because a batch defers every chunk's payload to one send, the worker
also emits a tiny :data:`ACK` marker immediately before expanding each
chunk — the coordinator's cursor over these acks is what tells it,
after a crash, *which* chunk was being expanded (see below).

Flow control: outbound chunks are bounded (``CHUNK_DIGESTS`` /
``CHUNK_STATES`` entries) and at most ``WINDOW`` digest-only chunks are
in flight per worker — small enough to fit the pipe buffer while the
worker is busy — while a chunk carrying bootstrap pairs (larger, though
bounded now that pairs are packed bytes) is sent only to an idle
worker, whose blocking ``recv`` drains the pipe as the coordinator
writes.  Shipping is re-decided at send time (a respawn or a cache
reset empties the target's cache), so a digest-only chunk sized to
``CHUNK_DIGESTS`` at build time that turns stateful by send time is
re-split there to keep every message under the ``CHUNK_STATES`` bound.
Together these rule out the send-while-both-full deadlock.

Fault tolerance
---------------

:class:`WorkerPool` assumes workers can die at any moment — OOM kills,
segfaults in native extensions, or the scheduled kills of a
:class:`~repro.engine.chaos.FaultPlan` — and recovers without
sacrificing the identical-graph guarantee:

* **detection** — a dead worker surfaces as ``EOFError``/``OSError`` on
  its pipe; workers that die without closing the pipe (SIGKILL can race
  the kernel's cleanup) are caught by a heartbeat: whenever no reply
  arrives for :data:`HEARTBEAT_SECONDS`, every waited-on worker's
  process is liveness-checked;
* **retry** — the coordinator first drains whatever the dead worker
  shipped before dying (pipe data written pre-crash stays readable):
  completed reply batches are ingested normally, and the per-chunk
  :data:`ACK` markers advance a cursor identifying the chunk that was
  *being expanded* at death.  Only that chunk takes the blame (retry
  bump, split, quarantine) — with batched replies the first un-replied
  chunk may already have been expanded cleanly into a batch that never
  shipped, and blaming it would let a poison state that rides behind a
  batchmate push an innocent singleton into quarantine.  All in-flight
  chunks are re-dispatched with ``ship_all=True``: the dead worker may
  have inserted successor digests into the shared visited table and
  died before shipping their bytes, so the retry expander ships every
  successor unconditionally (the coordinator dedupes) rather than
  trusting the filter.  Re-expansion is idempotent: the view is
  deterministic and chunk results are keyed by absolute frontier
  position, so a retried chunk yields byte-identical rows no matter
  which worker runs it.  Each loss bumps the blamed chunk's retry
  count; past ``max_partition_retries`` the pool raises
  :class:`~repro.engine.errors.PartitionRetryExhausted`;
* **respawn** — a crashed worker slot is restarted (fresh fork, empty
  cache — but the *shared* visited table survives, so the incarnation
  does not re-ship the world) up to ``max_worker_restarts`` times with
  exponential backoff from :data:`RESTART_BACKOFF_SECONDS`; past that,
  its partitions are redistributed across the survivors;
* **quarantine** — a multi-state chunk that kills its worker is split
  into singletons to isolate the killer; a singleton that reaches
  :data:`MAX_STATE_RETRIES` losses is quarantined (skipped, recorded,
  and surfaced in the final report) rather than retried forever — or,
  with ``quarantine=False``, raises
  :class:`~repro.engine.errors.StateQuarantined`;
* **collapse** — when every worker is dead and respawns are exhausted,
  the pool degrades to in-process :class:`LocalExpander` drivers and
  finishes the run rather than raising.

The shared table is a *filter*, never the source of truth: any residual
case where a row references a digest whose packed bytes were lost with
a worker (or a torn table slot answered "present" falsely) is repaired
by the coordinator, which recomputes the successor from its parent
in-process — see ``ExplorationEngine._recover_packed_external``.

Quarantining is the one deliberate breach of the identical-graph
guarantee — a quarantined state keeps its node but loses its outgoing
edges — which is why quarantined states are always surfaced in the
engine's report, never silently dropped.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from collections import deque
from typing import Callable, Hashable, Sequence

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

from ..obs.events import STATE_QUARANTINED, WORKER_LOST, WORKER_RESPAWNED
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.sinks import NULL_TRACER, Tracer
from ..obs.spans import WorkerTelemetry, merge_worker_events, record_span
from .chaos import FaultPlan
from .codec import Codec
from .errors import EngineError, PartitionRetryExhausted, StateQuarantined
from .fingerprint import shard_of
from .visited import LocalVisitedFilter, SharedVisitedTable, shared_memory_available

#: Marker returned for a pruned state instead of its successor list.
PRUNED = "__pruned__"

#: Marker returned for a quarantined state (it repeatedly killed workers).
QUARANTINED = "__quarantined__"

#: Max entries per digest-only chunk (bounded pickle ≪ the pipe buffer).
CHUNK_DIGESTS = 512

#: Max entries per chunk carrying at least one bootstrap (digest, packed)
#: pair.  Packed states are a few hundred bytes, so this is far roomier
#: than when bootstrap pairs were unbounded object pickles.
CHUNK_STATES = 256

#: Digest-only chunks in flight per worker.
WINDOW = 2

#: Max queued chunks a worker folds into one batched reply.
BATCH_REPLIES = 8

#: Marker a worker sends just before expanding a chunk, so the
#: coordinator can attribute a crash to the chunk actually in progress
#: (batched replies make "first un-replied" the wrong guess).
ACK = "__ack__"

#: Base of the exponential respawn backoff (doubles per restart of the
#: same slot, capped at 2s per sleep).
RESTART_BACKOFF_SECONDS = 0.05

#: Worker losses a *single* state may cause before it is quarantined.
MAX_STATE_RETRIES = 2

#: Liveness-check interval: when no worker replies for this long, every
#: waited-on worker's process is checked (catches deaths the pipe has
#: not reported yet).
HEARTBEAT_SECONDS = 5.0

#: Cap (entries) on each worker's decoded-state caches.  The
#: digest->state cache is reset by the coordinator (see the module
#: docstring); the composition's transition memo, a reduced view's
#: orbit cache and the codec's interning caches are trimmed by the
#: worker itself.  All of them are performance caches only, so the cap
#: keeps disk-backed runs that stream millions of states through a
#: worker from growing its RSS without bound.
WORKER_CACHE_LIMIT = 32_768


def fork_available() -> bool:
    """True when the platform supports the fork start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def _self_rss_kb() -> int:
    """This process's peak RSS in KiB (0 where unsupported)."""
    if _resource is None:  # pragma: no cover - non-POSIX platforms
        return 0
    return _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss


def _trim_worker_caches(view, codec: Codec) -> None:
    """Trim the view's caches and the codec's interning caches."""
    view.trim_caches(WORKER_CACHE_LIMIT)
    codec.trim(WORKER_CACHE_LIMIT)


class _ChunkExpander:
    """One expander's local state and its chunk expansion step.

    Holds the ``digest -> state`` cache, the codec, the task and action
    tables and the telemetry buffer; shared by the forked worker loop
    and :class:`LocalExpander`, so both build identical reply payloads.
    ``visited`` is the pool's shared table (``None`` when shared memory
    was unavailable, in which case every locally-novel successor ships).
    """

    def __init__(self, view, prune, visited, label) -> None:
        self.view = view
        self.prune = prune
        self.visited = visited
        self.codec = Codec()
        self.store: dict = {}
        self.task_ids = {task: index for index, task in enumerate(view.tasks)}
        self.action_ids: dict = {}
        self.drain = getattr(view, "drain_stats", None)
        self.tel = None if label is None else WorkerTelemetry(label)
        self.hits_flushed = self.misses_flushed = 0

    def expand(self, entries, ship_all, reset, send_seconds, rss_kb):
        """Expand one chunk against the local cache; returns its payload.

        The payload's ``novel`` list holds ``(digest, packed)`` pairs for
        successors whose bytes the coordinator does not have yet (first
        insertion into ``visited``, or every successor when
        ``ship_all``).  ``send_seconds`` and ``rss_kb`` ride the stats
        tuple as given; the codec counters are per-payload deltas.
        """
        store = self.store
        if reset:
            store.clear()
        view, prune, codec, visited = self.view, self.prune, self.codec, self.visited
        task_ids, action_ids = self.task_ids, self.action_ids
        tel = self.tel
        span = tel.start_span("partition", states=len(entries)) if tel else None
        stored_before = len(store)
        results = []
        novel = []
        new_actions = []
        expand_seconds = 0.0
        fingerprint_seconds = 0.0
        for entry in entries:
            if type(entry) is bytes:
                state = store[entry]
            else:
                digest, packed = entry
                state = store.get(digest)
                if state is None:
                    state = codec.decode(packed)
                    store[digest] = state
            if prune is not None and prune(state):
                results.append(PRUNED)
                continue
            before = time.perf_counter()
            successors = view.successors(state)
            after = time.perf_counter()
            expand_seconds += after - before
            row = []
            for task, action, post in successors:
                packed, digest = codec.encode_digest(post)
                if digest not in store:
                    store[digest] = post
                    # The shared table answers "has anyone produced this
                    # digest?"; only the first inserter ships the bytes.
                    # ship_all (crash retry) bypasses the filter but
                    # still records the insertion.
                    if visited is None:
                        novel.append((digest, packed))
                    else:
                        present = visited.test_and_set(digest)
                        if ship_all or not present:
                            novel.append((digest, packed))
                elif ship_all:
                    novel.append((digest, packed))
                action_index = action_ids.get(action)
                if action_index is None:
                    action_index = action_ids[action] = len(action_ids)
                    new_actions.append(action)
                row.append((task_ids[task], action_index, digest))
            fingerprint_seconds += time.perf_counter() - after
            results.append(row)
        orbit_hits = pruned_tasks = 0
        if self.drain is not None:
            orbit_hits, pruned_tasks = self.drain()
        if tel is not None:
            # The span opened before expansion gains expand/fingerprint
            # children, plus the one count the coordinator cannot
            # attribute itself: states stored in this worker's cache.
            stored = len(store) - stored_before
            if expand_seconds:
                tel.record_span("expand", expand_seconds, parent=span)
            if fingerprint_seconds:
                tel.record_span("fingerprint", fingerprint_seconds, parent=span)
            tel.end_span(
                span,
                transitions=sum(len(row) for row in results if row != PRUNED),
                stored=stored,
            )
            tel.inc("explore.states", stored)
        stats = (
            expand_seconds,
            fingerprint_seconds,
            send_seconds,
            orbit_hits,
            pruned_tasks,
            rss_kb,
            codec.hits - self.hits_flushed,
            codec.misses - self.misses_flushed,
        )
        self.hits_flushed, self.misses_flushed = codec.hits, codec.misses
        return results, novel, new_actions, stats, None if tel is None else tel.flush()


def _worker_main(
    conn,
    inherited,
    view,
    prune,
    visited,
    poison: frozenset = frozenset(),
    telemetry: bool = False,
) -> None:
    """Worker loop: expand chunk batches until the ``None`` sentinel (or EOF).

    ``inherited`` are the coordinator's pipe ends this fork copied (its
    own pipe's and every earlier worker's); they are closed first, so a
    dead coordinator reads as EOF here rather than leaving the worker
    blocked forever.

    ``poison`` is the fault-injection digest set of
    :class:`~repro.engine.chaos.FaultPlan`: asked to expand a poisoned
    state, the worker hard-exits before expanding — the deterministic
    stand-in for "this state segfaults whoever touches it".

    With ``telemetry`` on (the parent's tracer is enabled), the worker
    buffers spans/counters into a :class:`~repro.obs.spans.WorkerTelemetry`
    flushed with every payload — each batch is self-contained, so a crash
    loses at most the in-flight chunks' telemetry, never a half-open span.
    """
    for other in inherited:
        other.close()
    expander = _ChunkExpander(
        view, prune, visited, f"w{os.getpid()}" if telemetry else None
    )
    send_seconds = 0.0
    closing = False
    while not closing:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            break
        messages = [message]
        # Batch: fold already-queued chunks into one reply, amortizing
        # the reply pickle and the coordinator wakeup across them.
        while len(messages) < BATCH_REPLIES:
            try:
                if not conn.poll():
                    break
                queued = conn.recv()
            except (EOFError, OSError):
                return
            if queued is None:
                closing = True
                break
            messages.append(queued)
        payloads = []
        _trim_worker_caches(view, expander.codec)
        for entries, ship_all, reset in messages:
            # The ack marks this chunk as the one being expanded: if the
            # process dies before the batched reply ships, coordinator
            # blame lands here rather than on an innocent batchmate.
            # Sent before the poison check so a poisoned chunk takes its
            # own blame.
            try:
                conn.send(ACK)
            except OSError:
                return
            if poison:
                for entry in entries:
                    digest = entry if type(entry) is bytes else entry[0]
                    if digest in poison:
                        os._exit(137)
            # send_seconds is the cost of shipping the *previous* batch,
            # reported one beat late (and dropped for the last one).
            payloads.append(
                expander.expand(entries, ship_all, reset, send_seconds, _self_rss_kb())
            )
            send_seconds = 0.0
        before = time.perf_counter()
        try:
            conn.send(payloads)
        except OSError:
            return
        send_seconds = time.perf_counter() - before
    conn.close()


class _WorkerHandle:
    """One forked worker: its pipe endpoint and process object."""

    __slots__ = ("conn", "process")

    def __init__(self, conn, process) -> None:
        self.conn = conn
        self.process = process

    def send(self, chunk) -> None:
        self.conn.send(chunk)

    def recv(self):
        return self.conn.recv()


class LocalExpander:
    """In-process stand-in for one worker (the no-fork fallback).

    Speaks the exact message/batch protocol of :func:`_worker_main` —
    ``send`` expands immediately and queues a batch-of-one reply for
    ``recv`` — so the driver runs one code path regardless of platform.
    Local expanders cannot crash, so fault plans do not apply to them;
    their peak RSS is the coordinator's own, so they report 0 to keep
    the per-child accounting honest.  The view is the coordinator's own
    object, whose memo the engine trims, so only the decoded-state cache
    follows the coordinator's resets.
    """

    _incarnations = 0

    def __init__(
        self,
        view,
        prune,
        visited=None,
        telemetry: bool = False,
    ) -> None:
        label = None
        if telemetry:
            # In-process expanders share the coordinator's pid, so the
            # label carries an incarnation counter to keep span ids unique.
            LocalExpander._incarnations += 1
            label = f"local{LocalExpander._incarnations}"
        self._expander = _ChunkExpander(view, prune, visited, label)
        self._replies: deque = deque()

    def send(self, message) -> None:
        if message is not None:
            entries, ship_all, reset = message
            self._replies.append(
                [self._expander.expand(entries, ship_all, reset, 0.0, 0)]
            )

    def recv(self):
        return self._replies.popleft()


class _Chunk:
    """One dispatchable slice of the round's frontier.

    ``positions`` are absolute indices into the round's digest list (the
    coordinator's results array is keyed by them, which is what makes
    re-dispatching to *any* worker sound); ``digests`` are the matching
    frontier digests; ``retries`` counts how many worker
    losses this chunk has survived; ``ship_all`` marks a chunk requeued
    after a loss — its expander must ship every successor's bytes, since
    the dead worker may have claimed table slots and taken the bytes
    with it.
    """

    __slots__ = ("positions", "digests", "retries", "ship_all")

    def __init__(
        self,
        positions: list,
        digests: list,
        retries: int = 0,
        ship_all: bool = False,
    ) -> None:
        self.positions = positions
        self.digests = digests
        self.retries = retries
        self.ship_all = ship_all


class WorkerPool:
    """A crash-tolerant pool of expansion workers.

    Owns the full worker lifecycle — forking, the shared visited table,
    chunking and dispatch, reply ingestion, crash detection,
    retry/respawn/quarantine, and the in-process collapse fallback (see
    the module docstring for the recovery model).  One pool serves one
    exploration run.

    :meth:`run_round` is the only work entry point: it ships one
    round's frontier and returns a results list aligned to it, where
    each slot is a successor row list, :data:`PRUNED`, or
    :data:`QUARANTINED`.  Rows carry *decoded* actions (the per-worker
    action-index indirection is resolved at ingest), so results are
    independent of which worker produced them.
    """

    def __init__(
        self,
        workers: int,
        view,
        prune: Callable[[Hashable], bool] | None,
        *,
        expected_states: int | None = None,
        max_worker_restarts: int = 3,
        max_partition_retries: int = 5,
        quarantine: bool = True,
        fault_plan: FaultPlan | None = None,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.workers = max(1, workers)
        self._view = view
        self._prune = prune
        self._expected_states = expected_states
        self._codec = Codec()  # decodes quarantined states
        self.max_worker_restarts = max_worker_restarts
        self.max_partition_retries = max_partition_retries
        self.quarantine = quarantine
        self.fault_plan = fault_plan
        self.tracer = tracer
        self.metrics = metrics
        # Recovery bookkeeping, read by the engine's final report.
        self.local = False
        self.worker_failures = 0
        self.worker_respawns = 0
        self.partitions_reassigned = 0
        self.quarantined: list = []  # (state, digest) in quarantine order
        self.orbit_hits = 0
        self.pruned_tasks = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.last_round_producers = 0
        self.visited = None
        self.visited_overflows = 0
        self.worker_rss_kb: dict[int, int] = {}  # slot -> peak RSS (KiB)
        self._handles: list = []
        self._alive: list[bool] = []
        self._restarts: list[int] = []
        # Per worker: chunks acked as started but not yet replied — the
        # crash-blame cursor (see _worker_lost).
        self._started: list[int] = []
        # Per worker: the digests its decoded-state cache holds — an
        # exact mirror, which is what lets the coordinator own resets.
        self.seen: list[set] = []
        self.actions: list[list] = []
        self._context = None
        self._round = 0
        self._round_span: str | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Fork the workers (or fall back to in-process expanders)."""
        self.local = self.workers <= 1 or not fork_available()
        self.visited = self._make_visited()
        if self.local:
            self._handles = [
                LocalExpander(
                    self._view,
                    self._prune,
                    visited=self.visited,
                    telemetry=self.tracer.enabled or self.metrics.enabled,
                )
                for _ in range(self.workers)
            ]
            if self.workers > 1 and self.metrics.enabled:
                self.metrics.counter("engine.inprocess_fallbacks").inc()
        else:
            self._context = multiprocessing.get_context("fork")
            self._handles = []
            for _ in range(self.workers):
                self._handles.append(self._spawn())
        self._alive = [True] * self.workers
        self._restarts = [0] * self.workers
        self._started = [0] * self.workers
        self.seen = [set() for _ in range(self.workers)]
        self.actions = [[] for _ in range(self.workers)]
        return self

    def _make_visited(self):
        if self.local:
            # One address space: a plain shared set is exact and free.
            return LocalVisitedFilter()
        if not shared_memory_available():  # pragma: no cover - exotic builds
            return None
        try:
            return SharedVisitedTable(self._expected_states)
        except OSError:  # pragma: no cover - /dev/shm unavailable or full
            return None

    def stop(self) -> None:
        """Shut the pool down and release the shared visited table."""
        if not self.local:
            stop_workers(
                [self._handles[w] for w in range(self.workers) if self._alive[w]]
            )
        if self.visited is not None:
            self.visited_overflows = self.visited.overflows
            self.visited.close(unlink=True)
            self.visited = None

    def _spawn(self) -> _WorkerHandle:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        poison = self.fault_plan.poison if self.fault_plan is not None else frozenset()
        # Coordinator ends the fork copies; the child closes them (see
        # _worker_main).  A dead slot's end is already closed — a no-op.
        inherited = [parent_conn, *(handle.conn for handle in self._handles)]
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_conn,
                inherited,
                self._view,
                self._prune,
                self.visited,
                poison,
                self.tracer.enabled or self.metrics.enabled,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(parent_conn, process)

    # -- one exchange round -------------------------------------------------

    def run_round(
        self,
        round_index: int,
        digests: list,
        packed_of,
        phase: dict,
        round_span_id: str | None = None,
    ) -> list:
        """Expand one round's frontier; returns results by item position.

        ``digests`` is the round's frontier in order; ``packed_of`` is
        the coordinator's digest-to-packed-bytes mapping (novel
        successors are folded into it; bootstrap pairs are drawn from
        it); ``phase`` accumulates per-phase timings.  Each result slot
        is a row list of ``(task_index, action, digest)`` tuples
        (actions decoded), :data:`PRUNED`, or :data:`QUARANTINED`.

        ``round_span_id`` is the coordinator's open ``round`` span:
        merged worker spans (and the synthesized ``lost`` partition of a
        dead worker) are re-parented under it.
        """
        self._round = round_index
        self._round_span = round_span_id
        self._packed_of = packed_of
        self._phase = phase
        self._results: list = [None] * len(digests)
        self._pending: list[deque] = [deque() for _ in range(self.workers)]
        self._inflight: list[deque] = [deque() for _ in range(self.workers)]
        self._outstanding = [0] * self.workers
        self._producers: set[int] = set()
        self._build_chunks(digests)
        self._pump_all()
        self._apply_scheduled_faults(round_index)
        while True:
            self._pump_all()
            if not any(self._outstanding):
                break
            for worker in self._collect_ready():
                try:
                    message = self._handles[worker].recv()
                except (EOFError, OSError):
                    self._worker_lost(worker)
                    continue
                self._receive(worker, message)
        self.last_round_producers = len(self._producers)
        return self._results

    def _receive(self, worker: int, message) -> None:
        """Process one worker message: an ack or a batched reply.

        Acks advance the started-chunk cursor; each payload of a reply
        batch retires the oldest in-flight chunk (the worker expands and
        replies strictly FIFO) and its ack.
        """
        if message == ACK:
            self._started[worker] += 1
            return
        for payload in message:
            self._outstanding[worker] -= 1
            if self._started[worker]:  # local expanders do not ack
                self._started[worker] -= 1
            self._ingest(worker, self._inflight[worker].popleft(), payload)

    def _build_chunks(self, digests) -> None:
        # Shard by digest as always; a dead shard's bucket is routed to a
        # survivor up front (states re-ship via the encode-at-send path).
        workers = self.workers
        buckets: list[list] = [[] for _ in range(workers)]
        for position, digest in enumerate(digests):
            buckets[shard_of(digest, workers)].append((position, digest))
        survivors = [w for w in range(workers) if self._alive[w]]
        for shard, bucket in enumerate(buckets):
            if not bucket:
                continue
            worker = shard if self._alive[shard] else survivors[shard % len(survivors)]
            seen = self.seen[worker]
            positions: list = []
            chunk_digests: list = []
            stateful = False
            for position, digest in bucket:
                entry_stateful = digest not in seen
                cap = CHUNK_STATES if (stateful or entry_stateful) else CHUNK_DIGESTS
                if chunk_digests and len(chunk_digests) >= cap:
                    self._pending[worker].append(_Chunk(positions, chunk_digests))
                    positions, chunk_digests, stateful = [], [], False
                positions.append(position)
                chunk_digests.append(digest)
                stateful = stateful or entry_stateful
            if chunk_digests:
                self._pending[worker].append(_Chunk(positions, chunk_digests))

    def _apply_scheduled_faults(self, round_index: int) -> None:
        if self.local or self.fault_plan is None:
            return
        for worker in self.fault_plan.victims_at(round_index):
            if worker < self.workers and self._alive[worker]:
                # SIGKILL after the first pump, so the loss is in-flight:
                # detection, retry, and respawn all run for real.
                self._handles[worker].process.kill()

    # -- dispatch -----------------------------------------------------------

    def _pump_all(self) -> None:
        # A lost worker mid-pump moves chunks onto queues already visited
        # this pass, so pump to fixpoint.  Terminates: every pass either
        # sends a chunk (finite pending) or buries a worker (finite pool).
        progressed = True
        while progressed:
            progressed = False
            for worker in range(self.workers):
                progressed |= self._pump(worker)

    def _pump(self, worker: int) -> bool:
        queue = self._pending[worker]
        if not queue:
            return False
        if not self._alive[worker]:
            chunks = list(queue)
            queue.clear()
            self._reassign(worker, chunks)
            return True
        progressed = False
        reset = False
        while queue:
            chunk = queue[0]
            if len(self.seen[worker]) > WORKER_CACHE_LIMIT:
                # The worker's cache is due for a reset.  Only an idle
                # worker takes it: a reply still in flight would re-add
                # digests to the mirror that the reset drops.
                if self._outstanding[worker] > 0:
                    break
                self.seen[worker] = set()
                reset = True
            entries, fresh = self._encode(worker, chunk)
            stateful = bool(fresh)
            if stateful and len(chunk.digests) > CHUNK_STATES:
                # Build-time sizing assumed the target still held these
                # digests (cap CHUNK_DIGESTS); a respawn, reassignment or
                # cache reset since then makes every entry a bootstrap pair, so
                # re-split at send time to keep each message under the
                # CHUNK_STATES bound the pipe-sizing argument relies on.
                # A transport split, not a blame split: retries carry over.
                queue.popleft()
                for start in reversed(range(0, len(chunk.digests), CHUNK_STATES)):
                    queue.appendleft(
                        _Chunk(
                            chunk.positions[start : start + CHUNK_STATES],
                            chunk.digests[start : start + CHUNK_STATES],
                            retries=chunk.retries,
                            ship_all=chunk.ship_all,
                        )
                    )
                continue
            # Digest-only chunks ride the pipe buffer (WINDOW in flight);
            # a bootstrap-carrying chunk (the large kind) goes only to an
            # idle worker whose blocking recv drains the pipe.
            if stateful:
                if self._outstanding[worker] > 0:
                    break
            elif self._outstanding[worker] >= WINDOW:
                break
            queue.popleft()
            before = time.perf_counter()
            try:
                self._handles[worker].send((entries, chunk.ship_all, reset))
            except (BrokenPipeError, OSError):
                queue.appendleft(chunk)
                self._worker_lost(worker)
                return True
            self._phase["serialize_seconds"] = self._phase.get(
                "serialize_seconds", 0.0
            ) + (time.perf_counter() - before)
            self.seen[worker].update(fresh)
            self._inflight[worker].append(chunk)
            self._outstanding[worker] += 1
            progressed = True
            reset = False
        return progressed

    def _encode(self, worker: int, chunk: _Chunk):
        # Encoded at send time, against the *current* target's cache:
        # after a reassignment, respawn or cache reset the same chunk may
        # need its states re-shipped, which deciding at build time would
        # miss.  Bootstrap pairs carry packed bytes from the store, which
        # holds every frontier digest.
        seen = self.seen[worker]
        packed_of = self._packed_of
        entries: list = []
        fresh: list = []
        for digest in chunk.digests:
            if digest in seen:
                entries.append(digest)
            else:
                packed = packed_of.get(digest)
                if packed is None:
                    raise EngineError(
                        f"frontier digest {digest.hex()} has no packed "
                        "bytes in the state store"
                    )
                entries.append((digest, packed))
                fresh.append(digest)
        return entries, fresh

    def _collect_ready(self) -> list[int]:
        if self.local:
            return [w for w, count in enumerate(self._outstanding) if count]
        waitable = {
            self._handles[w].conn: w
            for w in range(self.workers)
            if self._alive[w] and self._outstanding[w]
        }
        ready = multiprocessing.connection.wait(
            list(waitable), timeout=HEARTBEAT_SECONDS
        )
        if not ready:
            # Heartbeat expired with no replies: a worker may have died
            # without the pipe reporting EOF yet.  Liveness-check them.
            for worker in list(waitable.values()):
                if not self._handles[worker].process.is_alive():
                    self._worker_lost(worker)
            return []
        return [waitable[conn] for conn in ready]

    # -- ingestion ----------------------------------------------------------

    def _ingest(self, worker: int, chunk: _Chunk, payload) -> None:
        results, novel, new_actions, stats, batch = payload
        (
            expand_seconds,
            fingerprint_seconds,
            send_seconds,
            orbit_hits,
            pruned,
            rss_kb,
            cache_hits,
            cache_misses,
        ) = stats
        if batch is not None:
            self._merge_telemetry(worker, batch)
        packed_of = self._packed_of
        for digest, packed in novel:
            packed_of.setdefault(digest, packed)
        table = self.actions[worker]
        table.extend(new_actions)
        seen = self.seen[worker]
        transitions = 0
        decoded: list = []
        # Decode action indices against the producing worker's table now,
        # so result rows are self-contained (a retried chunk may be
        # expanded by a different worker than the merge loop expects).
        for row in results:
            if row == PRUNED:
                decoded.append(PRUNED)
                continue
            out = []
            for task_index, action_index, digest in row:
                seen.add(digest)
                out.append((task_index, table[action_index], digest))
            transitions += len(out)
            decoded.append(out)
        if rss_kb and rss_kb > self.worker_rss_kb.get(worker, 0):
            self.worker_rss_kb[worker] = rss_kb
        self.cache_hits += cache_hits
        self.cache_misses += cache_misses
        if self.metrics.enabled:
            self.metrics.counter(f"engine.worker{worker}.expanded").inc(len(results))
            self.metrics.counter(f"engine.worker{worker}.transitions").inc(transitions)
            self.metrics.histogram(f"engine.worker{worker}.phase.expand_seconds").observe(
                expand_seconds
            )
            self.metrics.histogram(
                f"engine.worker{worker}.phase.fingerprint_seconds"
            ).observe(fingerprint_seconds)
        phase = self._phase
        phase["expand_seconds"] = phase.get("expand_seconds", 0.0) + expand_seconds
        phase["fingerprint_seconds"] = (
            phase.get("fingerprint_seconds", 0.0) + fingerprint_seconds
        )
        phase["serialize_seconds"] = phase.get("serialize_seconds", 0.0) + send_seconds
        self.orbit_hits += orbit_hits
        self.pruned_tasks += pruned
        if results:
            self._producers.add(worker)
        for offset, position in enumerate(chunk.positions):
            self._results[position] = decoded[offset]

    def _merge_telemetry(self, worker: int, batch) -> None:
        """Fold one worker batch into the coordinator's tracer/metrics.

        Events are re-emitted through the parent tracer in buffer order
        (re-stamping ``seq``/``lamport``), with the worker's top-level
        spans re-parented under the current round span and tagged with
        the worker slot.  Worker counters merge *namespaced*
        (``engine.worker<w>.<name>``) — never into the coordinator's own
        ``explore.*`` counters, which already count the same work once.
        """
        events, counters = batch
        if events and self.tracer.enabled:
            attach = {"worker": worker, "round": self._round}
            if self.tracer.run_id is not None:
                # Event-level run stamping happens in Tracer.emit; the
                # span *attribute* makes worker spans greppable by run
                # in assembled/chrome-trace form too.
                attach["run"] = self.tracer.run_id
            merge_worker_events(
                self.tracer,
                events,
                parent_id=self._round_span,
                attach=attach,
            )
        if counters and self.metrics.enabled:
            for name, value in counters.items():
                self.metrics.counter(f"engine.worker{worker}.{name}").inc(value)

    # -- recovery -----------------------------------------------------------

    def _worker_lost(self, worker: int) -> None:
        if self.local or not self._alive[worker]:
            return
        handle = self._handles[worker]
        # Salvage what the dead worker shipped before dying (pipe data
        # written pre-crash stays readable): completed reply batches are
        # ingested normally — their chunks need no retry — and acks
        # advance the started-chunk cursor that decides blame below.
        try:
            while handle.conn.poll():
                self._receive(worker, handle.conn.recv())
        except (EOFError, OSError):
            pass
        self._alive[worker] = False
        self.worker_failures += 1
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.process.join(timeout=0.2)
        inflight = list(self._inflight[worker])
        pending = list(self._pending[worker])
        started = self._started[worker]
        self._inflight[worker].clear()
        self._pending[worker].clear()
        self._outstanding[worker] = 0
        self._started[worker] = 0
        # Workers expand chunks strictly FIFO but reply in batches, so
        # the chunk being expanded at death is the *last acked*
        # un-replied one — in-flight chunks before it were already
        # expanded into a batch that never shipped, those after it sat
        # unread in the pipe.  Only that chunk takes the blame (retry
        # bump, split, quarantine); the rest re-dispatch unbumped so a
        # poison state riding behind a batchmate cannot push innocent
        # states into quarantine.  With no ack at all the worker died
        # before expanding anything, and nothing is blamed.
        blamed = started - 1 if 0 < started <= len(inflight) else None
        if self.metrics.enabled:
            self.metrics.counter("engine.worker_failures").inc()
        if self.tracer.enabled:
            self.tracer.emit(
                WORKER_LOST,
                worker=worker,
                round=self._round,
                inflight=len(inflight),
                pending=len(pending),
                restarts=self._restarts[worker],
            )
            if blamed is not None:
                # The blamed chunk died with the worker; its telemetry is
                # gone, so the coordinator synthesizes the closed span the
                # worker never got to flush.
                record_span(
                    self.tracer,
                    "partition",
                    0.0,
                    parent_id=self._round_span,
                    status="lost",
                    worker=worker,
                    round=self._round,
                    states=len(inflight[blamed].digests),
                )
        requeue: list = []
        # Every requeued in-flight chunk is marked ship_all — the dead
        # worker may have claimed visited-table slots for their
        # successors without the bytes ever reaching the coordinator.
        for index, chunk in enumerate(inflight):
            chunk.ship_all = True
            if index != blamed:
                requeue.append(chunk)
                continue
            chunk.retries += 1
            if chunk.retries > self.max_partition_retries:
                raise PartitionRetryExhausted(
                    len(chunk.digests), chunk.retries, self.max_partition_retries
                )
            if len(chunk.digests) > 1:
                # Split to isolate a potential killer state; each
                # singleton restarts its own retry count.
                for position, digest in zip(chunk.positions, chunk.digests):
                    requeue.append(_Chunk([position], [digest], ship_all=True))
            elif chunk.retries >= MAX_STATE_RETRIES:
                self._quarantine(chunk)
            else:
                requeue.append(chunk)
        requeue.extend(pending)
        self._revive_or_reassign(worker, requeue)

    def _quarantine(self, chunk: _Chunk) -> None:
        digest = chunk.digests[0]
        state = self._codec.decode(self._packed_of.get(digest))
        if not self.quarantine:
            raise StateQuarantined(state, digest, chunk.retries)
        self.quarantined.append((state, digest))
        self._results[chunk.positions[0]] = QUARANTINED
        if self.metrics.enabled:
            self.metrics.counter("engine.quarantined_states").inc()
        if self.tracer.enabled:
            self.tracer.emit(
                STATE_QUARANTINED,
                digest=digest.hex(),
                retries=chunk.retries,
                round=self._round,
            )

    def _revive_or_reassign(self, worker: int, chunks: list) -> None:
        if self._restarts[worker] < self.max_worker_restarts:
            delay = RESTART_BACKOFF_SECONDS * (2 ** self._restarts[worker])
            if delay > 0:
                time.sleep(min(delay, 2.0))
            self._restarts[worker] += 1
            self.worker_respawns += 1
            self._handles[worker] = self._spawn()
            self._alive[worker] = True
            # The new incarnation starts with an empty store; resetting
            # the coordinator's view of it makes encode re-ship states.
            # (The shared visited table is inherited as-is — membership
            # is global state, not worker state.)
            self.seen[worker] = set()
            self.actions[worker] = []
            if self.metrics.enabled:
                self.metrics.counter("engine.worker_respawns").inc()
            if self.tracer.enabled:
                self.tracer.emit(
                    WORKER_RESPAWNED,
                    worker=worker,
                    round=self._round,
                    restarts=self._restarts[worker],
                )
            self._requeue(chunks, [worker])
        else:
            survivors = [w for w in range(self.workers) if self._alive[w]]
            if not survivors:
                self._collapse(chunks)
            else:
                self._requeue(chunks, survivors)

    def _reassign(self, worker: int, chunks: list) -> None:
        # Chunks found queued on an already-dead worker (a send raced the
        # death): move them to survivors without touching retry counts.
        survivors = [w for w in range(self.workers) if self._alive[w]]
        if not survivors:
            self._collapse(chunks)
        else:
            self._requeue(chunks, survivors)

    def _requeue(self, chunks: list, targets: list[int]) -> None:
        if not chunks:
            return
        self.partitions_reassigned += len(chunks)
        if self.metrics.enabled:
            self.metrics.counter("engine.partitions_reassigned").inc(len(chunks))
        for index, chunk in enumerate(chunks):
            self._pending[targets[index % len(targets)]].append(chunk)

    def _collapse(self, chunks: list) -> None:
        """Degrade to in-process expansion: the pool is gone, the run is not."""
        self.local = True
        # The shared table (if any) keeps serving the in-process
        # expanders; digests claimed by dead workers stay "present",
        # which is safe — ship_all requeues and the coordinator's
        # recovery path cover the missing bytes.
        if self.visited is None:
            self.visited = LocalVisitedFilter()
        self._handles = [
            LocalExpander(
                self._view,
                self._prune,
                visited=self.visited,
                telemetry=self.tracer.enabled or self.metrics.enabled,
            )
            for _ in range(self.workers)
        ]
        self._alive = [True] * self.workers
        self.seen = [set() for _ in range(self.workers)]
        self.actions = [[] for _ in range(self.workers)]
        self._inflight = [deque() for _ in range(self.workers)]
        self._outstanding = [0] * self.workers
        self._started = [0] * self.workers
        if self.metrics.enabled:
            self.metrics.counter("engine.pool_collapses").inc()
        for index, chunk in enumerate(chunks):
            self._pending[index % self.workers].append(chunk)


def stop_workers(handles: Sequence[_WorkerHandle]) -> None:
    """Shut the pool down, draining stuck replies so workers can exit.

    A worker interrupted mid-round may be blocked in ``send`` on a reply
    larger than the pipe buffer; receiving (and discarding) pending
    replies unblocks it so it can see the sentinel.  Stragglers are
    terminated.
    """
    for handle in handles:
        try:
            handle.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
    deadline = time.monotonic() + 5.0
    for handle in handles:
        while handle.process.is_alive() and time.monotonic() < deadline:
            try:
                while handle.conn.poll(0.05):
                    handle.conn.recv()
            except (EOFError, OSError):
                break
            handle.process.join(timeout=0.05)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=1.0)
        try:
            handle.conn.close()
        except OSError:
            pass
