"""Canonical, stable state fingerprinting.

The engine's visited set stores fixed-size 16-byte digests instead
of full ``State`` objects: workers dedupe and shard by digest, and
checkpoints identify explorations by the digest of their root.  Two
properties make a digest usable for that:

* **canonical** — equal states yield equal digests no matter how their
  parts were built.  Python's builtin ``hash`` fails this across
  *processes* (string hashing is salted per interpreter via
  ``PYTHONHASHSEED``), and ``pickle`` fails it for ``frozenset`` (dump
  order follows salted iteration order).  The canonical encoding
  therefore encodes values itself: a tag-length-value scheme in which
  unordered collections are serialized in sorted-encoding order, so the
  encoding is a pure function of the value;
* **stable** — the encoding depends only on the value's structure, never
  on interpreter state, so digests computed in a worker process, the
  coordinator, or a later resume of a checkpointed run all agree.

The encoding itself lives in :mod:`repro.engine.codec` — since the
packed-bytes refactor it is the engine's *primary* state representation
(shipped over worker pipes and stored in checkpoints), not just hash
input, and the codec adds the decode path and interning caches.  This
module keeps the digest-level API on top of it: :func:`fingerprint`,
:func:`shard_of`, and the visited-set indexes.

Soundness: a digest collision would make the engine silently identify
two distinct states (dropping one subtree of the graph).  With the
16-byte BLAKE2b digest, the collision probability over an
``n``-state exploration is about ``n^2 / 2^129`` — below ``10^-28`` even
at a billion states.  For certification-grade runs,
:class:`FingerprintIndex` offers a **collision-audit mode** that
additionally keeps the full state per digest and raises
:class:`FingerprintCollision` the moment two unequal states hash alike,
turning the probabilistic argument into a checked one (at the memory
cost fingerprinting was meant to avoid — audit is a verification mode,
not a production mode).
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable

from .codec import (  # noqa: F401  (canonical_bytes re-exported for compat)
    DIGEST_SIZE,
    _TUPLE,
    Codec,
    _cached_bytes,
    canonical_bytes,
    digest_of_packed,
)

class FingerprintCollision(RuntimeError):
    """Two unequal states produced the same digest (audit mode only)."""


def fingerprint(value: Any) -> bytes:
    """The :data:`DIGEST_SIZE`-byte canonical digest of ``value``."""
    return digest_of_packed(canonical_bytes(value))


def fingerprint_components(state: Any, cache: dict) -> bytes:
    """:func:`fingerprint` of a tuple state via a per-component cache.

    Bit-identical to ``fingerprint(state)``: the tuple
    encoding is tag + length + concatenated component encodings, so the
    digest can be assembled from cached ``canonical_bytes`` of the
    components.  Composite states share component states massively
    (expanding one transition changes one or two components), which
    makes the amortized encoding cost near zero on the engine's hot
    path.  Non-tuple states fall back to plain :func:`fingerprint`.

    :class:`repro.engine.codec.Codec` is the stateful form of this
    helper (it owns the cache, counts hits, and also produces the packed
    bytes); this function remains for callers that manage their own
    cache dict.  Treat that dict as opaque: it is strictly keyed (never
    by plain ``==``, which would conflate ``True``/``1``-style values
    whose canonical encodings differ — see
    :func:`repro.engine.codec._cached_bytes`).
    """
    if type(state) is not tuple:
        return fingerprint(state)
    out = bytearray()
    out += _TUPLE
    out += len(state).to_bytes(4, "big")
    for component in state:
        out += _cached_bytes(cache, component)[0]
    return digest_of_packed(bytes(out))


def shard_of(digest: bytes, shards: int) -> int:
    """The worker shard owning ``digest`` (frontier partitioning)."""
    return int.from_bytes(digest[:8], "big") % shards


# ---------------------------------------------------------------------------
# The visited set
# ---------------------------------------------------------------------------


class FingerprintIndex:
    """A digest-keyed visited set with an optional collision audit.

    In normal mode only digests are retained; in ``audit`` mode the full
    state is kept per digest and every membership hit is verified by
    value equality, raising :class:`FingerprintCollision` on mismatch.

    Digests are computed through a :class:`~repro.engine.codec.Codec`,
    so the sequential fingerprinting path gets the same per-component
    encode cache as the parallel workers: checking a successor that
    shares most components with its parent re-encodes only the changed
    components.  Pass a shared ``codec`` to pool the cache with other
    participants in the same process (the engine shares one codec
    between its index and its merge loop).
    """

    __slots__ = ("codec", "_digests", "_audit")

    def __init__(self, audit: bool = False, codec: Codec | None = None) -> None:
        self.codec = codec if codec is not None else Codec()
        self._digests: set[bytes] = set()
        self._audit: dict[bytes, Hashable] | None = {} if audit else None

    @property
    def audit(self) -> bool:
        return self._audit is not None

    def __len__(self) -> int:
        return len(self._digests)

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._digests

    def check(self, state: Hashable, digest: bytes | None = None) -> tuple[bool, bytes]:
        """``(known, digest)`` for ``state``; audits collisions when on."""
        if digest is None:
            digest = self.codec.digest(state)
        known = digest in self._digests
        if known and self._audit is not None:
            stored = self._audit[digest]
            if stored != state:
                raise FingerprintCollision(
                    f"digest {digest.hex()} identifies two distinct states:\n"
                    f"  {stored!r}\n  {state!r}\n"
                    "(please report this)"
                )
        return known, digest

    def add(self, state: Hashable, digest: bytes | None = None) -> bytes:
        """Record ``state`` as visited; returns its digest."""
        if digest is None:
            digest = self.codec.digest(state)
        self._digests.add(digest)
        if self._audit is not None:
            self._audit[digest] = state
        return digest


class StateIndex:
    """Exact visited set keyed by full states (the sequential default).

    Same interface as :class:`FingerprintIndex`; dedupes by state
    equality (no collision risk, no encoding cost) — the right trade for
    single-process exploration, where the graph retains references to
    every state anyway.

    The set is stored as a state-to-state mapping so it doubles as an
    **interning table**: ``interned(state, default)`` returns the
    first-seen object equal to ``state``, or ``default`` when ``state``
    is novel, letting the engine store one object per distinct state in
    the graph instead of one per discovery (deep composite tuples arrive
    as fresh objects from every expansion).  It is the mapping's own
    ``get``, so the membership test and the interning share one hash of
    the state.
    """

    __slots__ = ("_states", "interned")

    audit = False

    def __init__(self) -> None:
        self._states: dict[Hashable, Hashable] = {}
        self.interned = self._states.get

    def __len__(self) -> int:
        return len(self._states)

    def check(self, state: Hashable, digest: bytes | None = None) -> tuple[bool, bytes | None]:
        return state in self._states, digest

    def add(self, state: Hashable, digest: bytes | None = None) -> bytes | None:
        self._states[state] = state
        return digest

    def add_states(self, states: Iterable[Hashable]) -> None:
        for state in states:
            self._states[state] = state
