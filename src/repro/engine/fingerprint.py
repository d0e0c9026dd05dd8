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
:func:`shard_of`, and the digest-keyed :class:`FingerprintIndex`.

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

from typing import Any, Hashable

from .codec import (  # noqa: F401  (canonical_bytes re-exported for compat)
    DIGEST_SIZE,
    Codec,
    canonical_bytes,
    digest_of_packed,
)


class FingerprintCollision(RuntimeError):
    """Two unequal states produced the same digest (audit mode only)."""


def fingerprint(value: Any) -> bytes:
    """The :data:`DIGEST_SIZE`-byte canonical digest of ``value``."""
    return digest_of_packed(canonical_bytes(value))


def shard_of(digest: bytes, shards: int) -> int:
    """The worker shard owning ``digest`` (frontier partitioning)."""
    return int.from_bytes(digest[:8], "big") % shards


# ---------------------------------------------------------------------------
# The visited set
# ---------------------------------------------------------------------------


class FingerprintIndex:
    """A digest-keyed position index with an optional collision audit.

    Maps each recorded state's digest to its discovery position, with
    the same ``get(state)`` / ``index[state] = position`` protocol as
    the plain ``dict`` the classic loop uses, so the engine's commit
    step runs unchanged over either.  In normal mode only digests are
    retained; in ``audit`` mode the full state is kept per digest and
    every hit is verified by value equality, raising
    :class:`FingerprintCollision` on mismatch.

    Digests are computed through a :class:`~repro.engine.codec.Codec`,
    whose per-component encode cache means checking a successor that
    shares most components with its parent re-encodes only the changed
    components.  Pass a shared ``codec`` to pool the cache with other
    participants in the same process.
    """

    __slots__ = ("codec", "_positions", "_audit")

    def __init__(self, audit: bool = False, codec: Codec | None = None) -> None:
        self.codec = codec if codec is not None else Codec()
        self._positions: dict[bytes, int] = {}
        self._audit: dict[bytes, Hashable] | None = {} if audit else None

    @property
    def audit(self) -> bool:
        return self._audit is not None

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._positions

    def get(self, state: Hashable) -> int | None:
        """The position recorded for ``state``, or ``None``; audits when on."""
        digest = self.codec.digest(state)
        position = self._positions.get(digest)
        if position is not None and self._audit is not None:
            stored = self._audit[digest]
            if stored != state:
                raise FingerprintCollision(
                    f"digest {digest.hex()} identifies two distinct states:\n"
                    f"  {stored!r}\n  {state!r}\n"
                    "(please report this)"
                )
        return position

    def __setitem__(self, state: Hashable, position: int) -> None:
        digest = self.codec.digest(state)
        self._positions[digest] = position
        if self._audit is not None:
            self._audit[digest] = state
