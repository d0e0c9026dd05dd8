"""A shared-memory, lock-free visited table for the worker pool.

Before this table existed, every worker shipped every successor it had
not seen *locally* back to the coordinator, and the coordinator's merge
loop was the only place global membership was known — on wide graphs
most of the reply volume was states some other worker had already
produced.  :class:`SharedVisitedTable` moves the membership test to the
workers: an open-addressing table of fixed-size digests in one
``multiprocessing.shared_memory`` segment, inherited by every forked
worker, where :meth:`test_and_set` answers "has anyone, anywhere,
already produced this digest?" without a message or a lock.

Design constraints, in order:

* **correctness never depends on the table.**  The engine treats the
  table as a *filter* for reply traffic, not as the visited set (the
  coordinator's index remains the single source of truth for what is in
  the graph).  A false "present" answer — possible from a torn 16-byte
  write observed half-written, or from a worker that inserted a digest
  and then died before shipping the bytes — at worst suppresses a
  shipment, and the coordinator recovers by recomputing the successor
  from its already-known parent (the view is deterministic).  A false
  "absent" answer merely ships a duplicate, which the coordinator
  dedupes as it always has.  This is what buys the next property:
* **no locks.**  The pool's chaos model allows SIGKILL at any
  instruction (see :mod:`repro.engine.chaos`); a worker killed while
  holding a cross-process lock would deadlock the pool.  Slot writes
  are plain 16-byte stores — atomic in practice on CPython (one
  ``memcpy`` under the GIL-released buffer copy), but *assumed tearable*
  by the recovery story above, so nothing breaks if they are not;
* **bounded memory.**  The table is sized once from the run's state
  budget (two slots per expected state, clamped to sane powers of two)
  and never grows.  When a probe sequence exhausts :data:`PROBE_LIMIT`
  slots the insert is dropped and the query answers "absent" — degrading
  to pre-table behavior (ship and let the coordinator dedupe) exactly
  when the table gets crowded.

An all-zero slot means empty, so the (astronomically unlikely) all-zero
digest is special-cased as "always absent" rather than given a marker.
"""

from __future__ import annotations

from .codec import DIGEST_SIZE

try:  # pragma: no cover - exercised by presence on every CPython >= 3.8
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - exotic builds only
    shared_memory = None

#: Probes before an insert/query gives up and reports "absent".
PROBE_LIMIT = 128

#: Slot-count clamps: never below 2^14 (256 KiB at 16-byte digests),
#: never above 2^23 (128 MiB) — past that, run against a disk-backed
#: :class:`~repro.engine.store.StateStore` (``store="sqlite:..."``),
#: whose exact visited set replaces this table as the source of truth
#: while the table keeps its filter role per round.
MIN_SLOTS = 1 << 14
MAX_SLOTS = 1 << 23


def shared_memory_available() -> bool:
    """True when ``multiprocessing.shared_memory`` can back a table."""
    return shared_memory is not None


def _slot_count(expected_states: int | None) -> int:
    target = MIN_SLOTS if expected_states is None else 2 * expected_states
    slots = MIN_SLOTS
    while slots < target and slots < MAX_SLOTS:
        slots <<= 1
    return slots


class SharedVisitedTable:
    """Fixed-size open-addressing digest table in shared memory.

    One table serves one exploration run: the coordinator creates it
    (seeding the root and any resumed states), forked workers inherit
    the object and probe the same segment, and the coordinator unlinks
    it when the pool stops.  All methods are safe to call from any
    process at any time; see the module docstring for why the lock-free
    races are benign.
    """

    __slots__ = ("slots", "_shm", "_buf", "_mask", "overflows")

    def __init__(self, expected_states: int | None = None) -> None:
        if shared_memory is None:  # pragma: no cover - exotic builds only
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        self.slots = _slot_count(expected_states)
        self._mask = self.slots - 1
        self._shm = shared_memory.SharedMemory(
            create=True, size=self.slots * DIGEST_SIZE
        )
        # A fresh segment is zero-filled by the OS; zero slot == empty.
        self._buf = self._shm.buf
        self.overflows = 0

    # -- the one operation ---------------------------------------------------

    def test_and_set(self, digest: bytes) -> bool:
        """Insert ``digest``; returns True when it was already present.

        Probes linearly from a position derived from the digest's own
        bits (digests are uniform, so no second hash is needed).  On
        table overflow (:data:`PROBE_LIMIT` full slots) the digest is
        *not* inserted and the answer is False — "absent" — so callers
        fall back to shipping, never to dropping.
        """
        size = DIGEST_SIZE
        buf = self._buf
        mask = self._mask
        index = int.from_bytes(digest[:8], "little") & mask
        empty = b"\x00" * size
        if digest == empty:
            return False
        for _ in range(PROBE_LIMIT):
            offset = index * size
            slot = bytes(buf[offset : offset + size])
            if slot == digest:
                return True
            if slot == empty:
                buf[offset : offset + size] = digest
                return False
            index = (index + 1) & mask
        self.overflows += 1
        return False

    def __contains__(self, digest: bytes) -> bool:
        size = DIGEST_SIZE
        buf = self._buf
        mask = self._mask
        index = int.from_bytes(digest[:8], "little") & mask
        empty = b"\x00" * size
        if digest == empty:
            return False
        for _ in range(PROBE_LIMIT):
            offset = index * size
            slot = bytes(buf[offset : offset + size])
            if slot == digest:
                return True
            if slot == empty:
                return False
            index = (index + 1) & mask
        return False

    def add(self, digest: bytes) -> None:
        """Insert without caring about prior membership (seeding)."""
        self.test_and_set(digest)

    # -- lifecycle -----------------------------------------------------------

    def close(self, unlink: bool = False) -> None:
        """Detach from the segment; ``unlink`` destroys it (creator only)."""
        self._buf = None
        try:
            self._shm.close()
            if unlink:
                self._shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass


class LocalVisitedFilter:
    """Plain-set stand-in for :class:`SharedVisitedTable`.

    Used by in-process pools (one address space, no sharing needed) and
    as the fallback when shared memory cannot be allocated.  Exact — no
    probe limit, no overflow.
    """

    __slots__ = ("_digests", "overflows")

    slots = 0

    def __init__(self) -> None:
        self._digests: set[bytes] = set()
        self.overflows = 0

    def test_and_set(self, digest: bytes) -> bool:
        if digest in self._digests:
            return True
        self._digests.add(digest)
        return False

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._digests

    def add(self, digest: bytes) -> None:
        self._digests.add(digest)

    def close(self, unlink: bool = False) -> None:
        self._digests = set()
