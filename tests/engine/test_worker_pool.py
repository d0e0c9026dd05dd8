"""Unit tests for WorkerPool dispatch sizing and cache resets.

These drive the pool's internal machinery directly with a stub handle —
no forking — to pin down two regressions:

* send-time chunk re-sizing: a digest-only chunk built against a warm
  worker store must be re-split when a cache reset turns every entry
  into a bootstrap pair, keeping messages under the ``CHUNK_STATES``
  bound;
* coordinator-owned cache resets: a worker's decoded-state cache is
  cleared only on the coordinator's word, while the worker is idle.

Real worker deaths are covered by ``test_chaos.py``.
"""

from collections import deque

from repro.engine import parallel
from repro.engine.codec import Codec
from repro.engine.parallel import CHUNK_STATES, WorkerPool, _Chunk


class _StubHandle:
    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


def _pool(workers=2):
    pool = WorkerPool(workers, view=None, prune=None)
    pool._handles = [_StubHandle() for _ in range(workers)]
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


class TestSendTimeResplit:
    def test_stateful_chunk_resplit_to_chunk_states_bound(self):
        """Regression: a digest-only chunk sized to CHUNK_DIGESTS at build
        time shipped as one oversized bootstrap message once the worker's
        store no longer held its digests."""
        pool = _pool(workers=1)
        total = CHUNK_STATES + 44
        positions = list(range(total))
        digests = [_digest(index) for index in positions]
        pool._pending[0].append(_Chunk(positions, digests))
        # seen[0] is empty — as after a cache reset — so every entry
        # ships as a (digest, packed) bootstrap pair.
        pool._pump(0)
        handle = pool._handles[0]
        # Stateful chunks go one at a time to an idle worker: the head
        # piece shipped, the tail piece waits, both within the bound.
        assert len(handle.sent) == 1
        entries, reset = handle.sent[0]
        assert len(entries) == CHUNK_STATES
        assert not reset
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
        entries, _ = handle.sent[0]
        assert len(entries) == total
        assert all(type(entry) is bytes for entry in entries)


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
        (entries, reset), = pool._handles[0].sent
        assert reset
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
