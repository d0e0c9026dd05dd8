"""Unit tests for WorkerPool recovery bookkeeping and dispatch sizing.

These drive the pool's internal machinery directly with stub handles —
no forking — to pin down three regressions:

* crash blame under reply batching: the chunk being expanded at death
  (identified by the per-chunk acks) takes the retry bump, not the
  first un-replied chunk in flight;
* send-time chunk re-sizing: a digest-only chunk built against a warm
  worker store must be re-split when a respawn turns every entry into a
  bootstrap pair, keeping messages under the ``CHUNK_STATES`` bound;
* coordinator-owned cache resets: a worker's decoded-state cache is
  cleared only on the coordinator's word, while the worker is idle.

The end-to-end behavior (real SIGKILLs, poison plans) is covered by
``test_chaos.py``; these tests exist because batching makes some blame
orderings hard to provoke deterministically from outside.
"""

from collections import deque

from repro.engine import parallel
from repro.engine.codec import Codec
from repro.engine.parallel import (
    ACK,
    CHUNK_STATES,
    MAX_STATE_RETRIES,
    QUARANTINED,
    WorkerPool,
    _Chunk,
)


class _StubConn:
    """A dead worker's pipe end: replays pre-crash messages, then EOF."""

    def __init__(self, buffered=()):
        self.buffered = deque(buffered)

    def poll(self, *args):
        return bool(self.buffered)

    def recv(self):
        if not self.buffered:
            raise EOFError
        return self.buffered.popleft()

    def close(self):
        pass


class _StubProcess:
    def join(self, timeout=None):
        pass

    def is_alive(self):
        return False


class _StubHandle:
    def __init__(self, buffered=()):
        self.conn = _StubConn(buffered)
        self.process = _StubProcess()
        self.sent = []

    def send(self, message):
        self.sent.append(message)


def _pool(workers=2, **kwargs):
    pool = WorkerPool(workers, view=None, prune=None, **kwargs)
    pool._handles = [_StubHandle() for _ in range(workers)]
    pool._alive = [True] * workers
    # Exhaust restarts so a loss reassigns to survivors instead of forking.
    pool._restarts = [pool.max_worker_restarts] * workers
    pool._started = [0] * workers
    pool.seen = [set() for _ in range(workers)]
    pool.actions = [[] for _ in range(workers)]
    pool._pending = [deque() for _ in range(workers)]
    pool._inflight = [deque() for _ in range(workers)]
    pool._outstanding = [0] * workers
    pool._packed_of = PACKED_OF
    pool._phase = {}
    pool._producers = set()
    pool._round = 1
    pool._round_span = None
    return pool


CODEC = Codec()


def _state(index):
    return ("state", index)


def _digest(index):
    return CODEC.encode_digest(_state(index))[1]


#: The coordinator's packed bytes for every test digest (the store's role).
PACKED_OF = {
    digest: packed
    for packed, digest in (
        CODEC.encode_digest(_state(index)) for index in range(2 * CHUNK_STATES + 1)
    )
}


def _singleton(position):
    return _Chunk([position], [_digest(position)])


class TestCrashBlame:
    def test_blame_lands_on_chunk_being_expanded_not_first_inflight(self):
        """Regression: with batched replies the worker may die expanding
        the 2nd..Nth in-flight chunk, but blame always hit the first
        (REVIEW: parallel.py _worker_lost)."""
        pool = _pool()
        chunks = [_singleton(0), _singleton(1), _singleton(2)]
        pool._inflight[0].extend(chunks)
        pool._outstanding[0] = 3
        pool._results = [None] * 3
        # Chunk 0 expanded into an unsent batch, chunk 1 mid-expansion,
        # chunk 2 unread: two acks reached the coordinator.
        pool._started[0] = 2
        pool._worker_lost(0)
        assert chunks[1].retries == 1  # blamed
        assert chunks[0].retries == 0 and chunks[2].retries == 0
        requeued = list(pool._pending[1])
        assert set(map(id, requeued)) == set(map(id, chunks))
        assert all(chunk.ship_all for chunk in requeued)
        assert not pool.quarantined

    def test_innocent_batchmates_not_quarantined(self):
        """A singleton at the quarantine threshold survives when the ack
        cursor says a different chunk was being expanded."""
        pool = _pool()
        innocent, poison = _singleton(0), _singleton(1)
        innocent.retries = MAX_STATE_RETRIES - 1
        pool._inflight[0].extend([innocent, poison])
        pool._outstanding[0] = 2
        pool._results = [None] * 2
        pool._started[0] = 2  # both acked: the *second* is in progress
        pool._worker_lost(0)
        assert innocent.retries == MAX_STATE_RETRIES - 1
        assert poison.retries == 1
        assert not pool.quarantined

    def test_blamed_singleton_quarantined_at_threshold(self):
        pool = _pool()
        victim = _singleton(0)
        victim.retries = MAX_STATE_RETRIES - 1
        trailing = _singleton(1)
        pool._inflight[0].extend([victim, trailing])
        pool._outstanding[0] = 2
        pool._results = [None] * 2
        pool._started[0] = 1  # victim in progress, trailing unread
        pool._worker_lost(0)
        assert pool.quarantined == [(_state(0), victim.digests[0])]
        assert pool._results[0] == QUARANTINED
        assert trailing.retries == 0
        assert list(pool._pending[1]) == [trailing]

    def test_no_ack_means_no_blame(self):
        """A worker that died before expanding anything (no ack) bumps
        nothing: every in-flight chunk re-dispatches unbumped."""
        pool = _pool()
        chunks = [_singleton(0), _singleton(1)]
        pool._inflight[0].extend(chunks)
        pool._outstanding[0] = 2
        pool._results = [None] * 2
        pool._worker_lost(0)
        assert all(chunk.retries == 0 for chunk in chunks)
        assert not pool.quarantined
        assert len(pool._pending[1]) == 2

    def test_buffered_acks_salvaged_before_blame(self):
        """Acks the worker shipped before dying are drained from the pipe
        and advance the blame cursor."""
        pool = _pool()
        pool._handles[0] = _StubHandle(buffered=[ACK, ACK])
        chunks = [_singleton(0), _singleton(1)]
        pool._inflight[0].extend(chunks)
        pool._outstanding[0] = 2
        pool._results = [None] * 2
        pool._worker_lost(0)
        assert chunks[0].retries == 0
        assert chunks[1].retries == 1

    def test_blamed_multistate_chunk_splits_into_singletons(self):
        pool = _pool()
        multi = _Chunk([0, 1, 2], [_digest(index) for index in range(3)])
        pool._inflight[0].append(multi)
        pool._outstanding[0] = 1
        pool._results = [None] * 3
        pool._started[0] = 1
        pool._worker_lost(0)
        requeued = list(pool._pending[1])
        assert len(requeued) == 3
        assert all(len(chunk.digests) == 1 for chunk in requeued)
        assert all(chunk.retries == 0 for chunk in requeued)  # fresh counts
        assert all(chunk.ship_all for chunk in requeued)


class TestSendTimeResplit:
    def test_stateful_chunk_resplit_to_chunk_states_bound(self):
        """Regression: a digest-only chunk sized to CHUNK_DIGESTS at build
        time shipped as one oversized bootstrap message after a respawn
        cleared the worker's store (REVIEW: parallel.py _encode)."""
        pool = _pool(workers=1)
        total = CHUNK_STATES + 44
        positions = list(range(total))
        digests = [_digest(index) for index in positions]
        pool._pending[0].append(_Chunk(positions, digests))
        # seen[0] is empty — as after a respawn — so every entry ships
        # as a (digest, packed) bootstrap pair.
        pool._pump(0)
        handle = pool._handles[0]
        # Stateful chunks go one at a time to an idle worker: the head
        # piece shipped, the tail piece waits, both within the bound.
        assert len(handle.sent) == 1
        entries, ship_all, reset = handle.sent[0]
        assert len(entries) == CHUNK_STATES
        assert not ship_all and not reset
        assert all(type(entry) is tuple for entry in entries)  # bootstrap pairs
        assert [len(chunk.digests) for chunk in pool._pending[0]] == [44]
        head = pool._inflight[0][0]
        assert head.positions == positions[:CHUNK_STATES]

    def test_digest_only_chunk_not_resplit(self):
        pool = _pool(workers=1)
        total = CHUNK_STATES + 44
        positions = list(range(total))
        digests = [_digest(index) for index in positions]
        pool.seen[0].update(digests)
        pool._pending[0].append(_Chunk(positions, digests))
        pool._pump(0)
        handle = pool._handles[0]
        assert len(handle.sent) == 1
        entries, _, _ = handle.sent[0]
        assert len(entries) == total
        assert all(type(entry) is bytes for entry in entries)

    def test_resplit_preserves_retry_count_and_ship_all(self):
        pool = _pool(workers=1)
        total = 2 * CHUNK_STATES + 1
        positions = list(range(total))
        digests = [_digest(index) for index in positions]
        pool._pending[0].append(_Chunk(positions, digests, retries=2, ship_all=True))
        pool._pump(0)
        pieces = [pool._inflight[0][0], *pool._pending[0]]
        assert [len(piece.digests) for piece in pieces] == [CHUNK_STATES, CHUNK_STATES, 1]
        assert all(piece.retries == 2 and piece.ship_all for piece in pieces)
        assert [position for piece in pieces for position in piece.positions] == positions


class TestCacheReset:
    def _over_limit(self, monkeypatch, outstanding):
        monkeypatch.setattr(parallel, "WORKER_CACHE_LIMIT", 2)
        pool = _pool(workers=1)
        pool.seen[0].update(_digest(index) for index in range(3))
        pool._outstanding[0] = outstanding
        pool._pending[0].append(_Chunk([0, 1], [_digest(0), _digest(1)]))
        return pool

    def test_idle_worker_reset_ships_bootstrap_pairs(self, monkeypatch):
        """Past the cap the coordinator clears its mirror and tells the
        worker to clear its cache, so every entry ships its bytes."""
        pool = self._over_limit(monkeypatch, outstanding=0)
        pool._pump(0)
        (entries, ship_all, reset), = pool._handles[0].sent
        assert reset and not ship_all
        assert entries == [
            (digest, PACKED_OF[digest]) for digest in (_digest(0), _digest(1))
        ]
        assert pool.seen[0] == {_digest(0), _digest(1)}

    def test_busy_worker_waits_for_reset(self, monkeypatch):
        """A reply in flight would re-add digests the reset drops, so a
        busy worker gets nothing until it is idle."""
        pool = self._over_limit(monkeypatch, outstanding=1)
        pool._pump(0)
        assert pool._handles[0].sent == []
        assert len(pool.seen[0]) == 3
