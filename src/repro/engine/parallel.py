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

Outbound messages are ``(entries, reset)`` pairs.  The coordinator
mirrors each worker's cache keys exactly (``seen``), so it alone decides
resets: once a mirror passes :data:`WORKER_CACHE_LIMIT` and the worker
is idle (no reply in flight could re-add dropped digests), it clears the
mirror and sends the next chunk — all bootstrap pairs — with ``reset``,
which empties the worker's cache first.

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

Flow control: outbound chunks are bounded (``CHUNK_DIGESTS`` /
``CHUNK_STATES`` entries) and at most ``WINDOW`` digest-only chunks are
in flight per worker — small enough to fit the pipe buffer while the
worker is busy — while a chunk carrying bootstrap pairs (larger, though
bounded now that pairs are packed bytes) is sent only to an idle
worker, whose blocking ``recv`` drains the pipe as the coordinator
writes.  Shipping is re-decided at send time (a cache reset empties the
target's cache), so a digest-only chunk sized to ``CHUNK_DIGESTS`` at
build time that turns stateful by send time is re-split there to keep
every message under the ``CHUNK_STATES`` bound.  Together these rule out
the send-while-both-full deadlock.

Failure model: fail-stop
------------------------

A dead worker surfaces as ``EOFError``/``OSError`` on its pipe, or —
for a worker that dies without the pipe reporting it yet — through a
heartbeat: whenever no reply arrives for :data:`HEARTBEAT_SECONDS`,
every waited-on worker's process is liveness-checked.  Either way the
pool raises :class:`~repro.engine.errors.WorkerLost` from
:meth:`WorkerPool.run_round`.  Nothing of the lost round is merged: the
engine puts the round's frontier back at its head, stops the surviving
workers, writes a checkpoint when checkpointing is on and re-raises.
The run continues by ``resume`` from that checkpoint, the one recovery
path the engine has for any stopped run, and yields the identical graph.

The shared table is a *filter*, never the source of truth: a torn table
slot that answers "present" for a digest nobody shipped is repaired by
the coordinator, which recomputes the successor from its parent
in-process — see ``ExplorationEngine._recover_packed_external``.
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

from ..obs.events import WORKER_LOST
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.sinks import NULL_TRACER, Tracer
from ..obs.spans import WorkerTelemetry, merge_worker_events
from .codec import Codec
from .errors import EngineError, WorkerLost
from .visited import LocalVisitedFilter, SharedVisitedTable, shared_memory_available


def shard_of(digest: bytes, shards: int) -> int:
    """The worker shard owning ``digest`` (frontier partitioning)."""
    return int.from_bytes(digest[:8], "big") % shards


#: Marker returned for a pruned state instead of its successor list.
PRUNED = "__pruned__"

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

    def expand(self, entries, reset, send_seconds, rss_kb):
        """Expand one chunk against the local cache; returns its payload.

        The payload's ``novel`` list holds ``(digest, packed)`` pairs for
        successors whose bytes the coordinator does not have yet (first
        insertion into ``visited``).  ``send_seconds`` and ``rss_kb``
        ride the stats tuple as given; the codec counters are
        per-payload deltas.
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
                    if visited is None or not visited.test_and_set(digest):
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
    telemetry: bool = False,
) -> None:
    """Worker loop: expand chunk batches until the ``None`` sentinel (or EOF).

    ``inherited`` are the coordinator's pipe ends this fork copied (its
    own pipe's and every earlier worker's); they are closed first, so a
    dead coordinator reads as EOF here rather than leaving the worker
    blocked forever.

    With ``telemetry`` on (the parent's tracer is enabled), the worker
    buffers spans/counters into a :class:`~repro.obs.spans.WorkerTelemetry`
    flushed with every payload — each batch is self-contained, so a
    merged trace never holds a worker's half-open span.
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
        for entries, reset in messages:
            # send_seconds is the cost of shipping the *previous* batch,
            # reported one beat late (and dropped for the last one).
            payloads.append(
                expander.expand(entries, reset, send_seconds, _self_rss_kb())
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
    Their peak RSS is the coordinator's own, so they report 0 to keep
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
            entries, reset = message
            self._replies.append([self._expander.expand(entries, reset, 0.0, 0)])

    def recv(self):
        return self._replies.popleft()


class _Chunk:
    """One dispatchable slice of the round's frontier.

    ``positions`` are absolute indices into the round's digest list (the
    coordinator's results array is keyed by them); ``digests`` are the
    matching frontier digests.
    """

    __slots__ = ("positions", "digests")

    def __init__(self, positions: list, digests: list) -> None:
        self.positions = positions
        self.digests = digests


class WorkerPool:
    """A fail-stop pool of expansion workers.

    Owns the full worker lifecycle — forking, the shared visited table,
    chunking and dispatch, reply ingestion and loss detection (see the
    module docstring for the failure model).  One pool serves one
    exploration run.

    :meth:`run_round` is the only work entry point: it ships one
    round's frontier and returns a results list aligned to it, where
    each slot is a successor row list or :data:`PRUNED`.  Rows carry
    *decoded* actions (the per-worker action-index indirection is
    resolved at ingest), so results are independent of which worker
    produced them.
    """

    def __init__(
        self,
        workers: int,
        view,
        prune: Callable[[Hashable], bool] | None,
        *,
        expected_states: int | None = None,
        tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.workers = max(1, workers)
        self._view = view
        self._prune = prune
        self._expected_states = expected_states
        self.tracer = tracer
        self.metrics = metrics
        self.local = False
        self.orbit_hits = 0
        self.pruned_tasks = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.last_round_producers = 0
        self.visited = None
        self.visited_overflows = 0
        self.worker_rss_kb: dict[int, int] = {}  # slot -> peak RSS (KiB)
        self._handles: list = []
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
            stop_workers(self._handles)
        if self.visited is not None:
            self.visited_overflows = self.visited.overflows
            self.visited.close(unlink=True)
            self.visited = None

    def _spawn(self) -> _WorkerHandle:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        # Coordinator ends the fork copies; the child closes them (see
        # _worker_main).
        inherited = [parent_conn, *(handle.conn for handle in self._handles)]
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_conn,
                inherited,
                self._view,
                self._prune,
                self.visited,
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
        (actions decoded) or :data:`PRUNED`.

        ``round_span_id`` is the coordinator's open ``round`` span:
        merged worker spans are re-parented under it.

        Raises :class:`~repro.engine.errors.WorkerLost` when a worker
        dies; the round's results are then discarded whole.
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
        while True:
            for worker in range(self.workers):
                self._pump(worker)
            if not any(self._outstanding):
                break
            for worker in self._collect_ready():
                try:
                    message = self._handles[worker].recv()
                except (EOFError, OSError):
                    self._worker_lost(worker)
                # Each payload of a reply batch retires the oldest
                # in-flight chunk: workers expand and reply strictly FIFO.
                for payload in message:
                    self._outstanding[worker] -= 1
                    self._ingest(worker, self._inflight[worker].popleft(), payload)
        self.last_round_producers = len(self._producers)
        return self._results

    def _build_chunks(self, digests) -> None:
        workers = self.workers
        buckets: list[list] = [[] for _ in range(workers)]
        for position, digest in enumerate(digests):
            buckets[shard_of(digest, workers)].append((position, digest))
        for worker, bucket in enumerate(buckets):
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

    # -- dispatch -----------------------------------------------------------

    def _pump(self, worker: int) -> None:
        queue = self._pending[worker]
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
                # digests (cap CHUNK_DIGESTS); a cache reset since then
                # makes every entry a bootstrap pair, so re-split at send
                # time to keep each message under the CHUNK_STATES bound
                # the pipe-sizing argument relies on.
                queue.popleft()
                for start in reversed(range(0, len(chunk.digests), CHUNK_STATES)):
                    queue.appendleft(
                        _Chunk(
                            chunk.positions[start : start + CHUNK_STATES],
                            chunk.digests[start : start + CHUNK_STATES],
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
                self._handles[worker].send((entries, reset))
            except (BrokenPipeError, OSError):
                self._worker_lost(worker)
            self._phase["serialize_seconds"] = self._phase.get(
                "serialize_seconds", 0.0
            ) + (time.perf_counter() - before)
            self.seen[worker].update(fresh)
            self._inflight[worker].append(chunk)
            self._outstanding[worker] += 1
            reset = False

    def _encode(self, worker: int, chunk: _Chunk):
        # Encoded at send time, against the target's *current* cache:
        # after a cache reset the same chunk needs its states re-shipped,
        # which deciding at build time would miss.  Bootstrap pairs carry
        # packed bytes from the store, which holds every frontier digest.
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
            if self._outstanding[w]
        }
        ready = multiprocessing.connection.wait(
            list(waitable), timeout=HEARTBEAT_SECONDS
        )
        if not ready:
            # Heartbeat expired with no replies: a worker may have died
            # without the pipe reporting EOF yet.  Liveness-check them.
            for worker in waitable.values():
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
        # so result rows are self-contained.
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

    # -- loss -----------------------------------------------------------------

    def _worker_lost(self, worker: int) -> None:
        """Close the dead worker's pipe, emit ``worker_lost`` and raise."""
        try:
            self._handles[worker].conn.close()
        except OSError:
            pass
        if self.tracer.enabled:
            self.tracer.emit(WORKER_LOST, worker=worker, round=self._round)
        raise WorkerLost(worker, self._round)


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
