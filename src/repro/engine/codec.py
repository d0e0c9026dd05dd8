"""Packed canonical state representation: the TLV codec and the digest.

This module is the one place that defines a state's identity for the
engine.  It holds the canonical tag-length-value encoding
(:func:`canonical_bytes`), the state digest (:func:`fingerprint`, the
BLAKE2b hash of that encoding, :data:`DIGEST_SIZE` bytes) and the
**codec** built on them: the same bytes that are hashed are also
*kept*, shipped across worker pipes, stored in checkpoints, and decoded
back into states.  Every store-backed run dedups by digest, so two
states are one graph vertex exactly when their encodings hash alike.
Four properties carry the design:

* **canonical** — equal states yield equal bytes no matter how their
  parts were built.  Python's builtin ``hash`` fails this across
  *processes* (string hashing is salted per interpreter via
  ``PYTHONHASHSEED``), and ``pickle`` fails it for ``frozenset`` (dump
  order follows salted iteration order).  The encoder therefore
  serializes unordered collections in sorted-encoding order, so the
  bytes, and the digest, are a pure function of the value: a worker
  process, the coordinator and a later resume all agree.
* **digest parity by construction** — :meth:`Codec.encode_digest`
  returns ``(packed, digest)`` from one encoding pass, and ``digest ==
  blake2b(packed) == fingerprint(state)`` because the packed bytes *are*
  the canonical encoding.  Producing the wire form and the digest is
  one serialization, not two.
* **verified identity** — ``decode(encode(x)) == x`` for every value
  built from the canonical forms (``None``/``bool``/``int``/``float``/
  ``str``/``bytes``/``tuple``/``frozenset``/``dict``, registered frozen
  dataclasses, registered enums).  Non-canonical aliases encode like
  their canonical form and decode *to* it (``list`` → ``tuple``,
  ``set`` → ``frozenset``, ``bytearray`` → ``bytes``) — states are
  hashable, so real states only ever contain the canonical forms.
* **interning** — composite states share components massively (one
  transition changes one or two of them; the 29,314 states of
  delegation(6,1) hold 1,475 distinct component values), so each codec
  keeps one intern table that gives every distinct component value a
  small-int **component id**, assigned by its canonical bytes in
  first-seen order.  A component is encoded once, equal components
  decode to the *same* object, and a store-backed run keys each state
  by its component-id vector instead of encoding it.  The vector key is
  exact: ids are assigned by bytes, so two states have equal vectors
  exactly when their components have pairwise equal encodings; a
  packed state is the tuple header followed by those encodings, and the
  tag-length-value encoding is prefix-free, so that holds exactly when
  the packed states, and hence the digests, are equal.  Deduplicating
  by vector is deduplicating by packed bytes, with the same vertices,
  digests and discovery order.  The table never changes the bytes: the
  packed form stays flat and self-contained, byte-identical across
  processes and interpreter restarts, and ids, which depend only on the
  order components are met (never on ``PYTHONHASHSEED``), never leave
  the process.

Soundness of digest dedup is the hash-compaction argument (Stern &
Dill, 1995): a collision would merge two distinct states and drop one
subtree of the graph.  With a 16-byte digest the chance over an
``n``-state exploration is about ``n^2 / 2^129``, below ``10^-28`` even
at a billion states.  The tests check it on the paper's instances: the
digests of a classic (``==``-deduplicated) graph are pairwise distinct,
and classic and store-backed runs build identical graphs.

Dataclasses and enums encode by qualname (plus field values / member
name), so decoding needs the class object.  The codec keeps a process
global registry: encoding a dataclass or enum registers its type
automatically, forked workers inherit the parent's registrations, and
checkpoints persist the classes they used (by reference) so a fresh
process can resume.  Decoding an unregistered qualname raises
:class:`CodecError` naming :func:`register_codec_type` — it never
guesses.  The one lossy encoding is the ``repr`` fallback for exotic
component types; packed bytes containing it raise on decode, and the
engine's checkpoint writer falls back to whole-object pickling for such
states.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
import sys
from typing import Any

try:  # pragma: no cover - blake2b is part of CPython's hashlib
    from hashlib import blake2b
except ImportError:  # pragma: no cover - exotic builds only
    blake2b = None
    from hashlib import sha256

#: The digest width in bytes (collision-safe for any feasible run).
DIGEST_SIZE = 16


class CodecError(ValueError):
    """Packed bytes could not be decoded (or a value cannot round-trip)."""


# ---------------------------------------------------------------------------
# Tags.  Every chunk is ``tag + payload`` where composite payloads are
# length-prefixed, so no value's encoding is a prefix of another's.
# ---------------------------------------------------------------------------

_NONE = b"N"
_TRUE = b"T"
_FALSE = b"F"
_INT = b"i"
_FLOAT = b"f"
_STR = b"s"
_BYTES = b"b"
_TUPLE = b"t"
_SET = b"S"
_DICT = b"d"
_DATACLASS = b"D"
_ENUM = b"E"
_REPR = b"R"

# Integer forms of the tags, for decoding (indexing bytes yields ints).
_T_NONE, _T_TRUE, _T_FALSE = _NONE[0], _TRUE[0], _FALSE[0]
_T_INT, _T_FLOAT, _T_STR, _T_BYTES = _INT[0], _FLOAT[0], _STR[0], _BYTES[0]
_T_TUPLE, _T_SET, _T_DICT = _TUPLE[0], _SET[0], _DICT[0]
_T_DATACLASS, _T_ENUM, _T_REPR = _DATACLASS[0], _ENUM[0], _REPR[0]


# ---------------------------------------------------------------------------
# The type registry (dataclasses and enums decode through it)
# ---------------------------------------------------------------------------

_TYPE_REGISTRY: dict[str, type] = {}


def register_codec_type(cls: type) -> type:
    """Register ``cls`` so packed values containing it can be decoded.

    Usable as a decorator.  Encoding registers types automatically, so
    explicit registration is only needed in processes that *decode*
    values they never encoded — a fresh process resuming a checkpoint
    registers the classes stored in the checkpoint itself.
    """
    name = cls.__qualname__
    if dataclasses.is_dataclass(cls):
        if any(not field.init for field in dataclasses.fields(cls)):
            raise CodecError(
                f"{name} has init=False fields; the codec reconstructs "
                "dataclasses positionally and cannot round-trip it"
            )
    elif not (isinstance(cls, type) and issubclass(cls, enum.Enum)):
        raise CodecError(f"{cls!r} is neither a dataclass nor an Enum")
    existing = _TYPE_REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise CodecError(
            f"codec type name {name!r} is already registered to "
            f"{existing!r}; qualnames must be unique across encoded types"
        )
    _TYPE_REGISTRY[name] = cls
    return cls


def registered_codec_types() -> dict[str, type]:
    """A snapshot of the registry (checkpoints persist these classes)."""
    return dict(_TYPE_REGISTRY)


# ---------------------------------------------------------------------------
# Encoding (the canonical bytes) and the digest
# ---------------------------------------------------------------------------


def _encode(value: Any, out: bytearray) -> None:
    if value is None:
        out += _NONE
        return
    if value is True:
        out += _TRUE
        return
    if value is False:
        out += _FALSE
        return
    kind = type(value)
    if kind is int:
        payload = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
        out += _INT
        out += len(payload).to_bytes(4, "big")
        out += payload
        return
    if kind is float:
        out += _FLOAT
        out += struct.pack(">d", value)
        return
    if kind is str:
        payload = value.encode("utf-8")
        out += _STR
        out += len(payload).to_bytes(4, "big")
        out += payload
        return
    if kind in (bytes, bytearray):
        out += _BYTES
        out += len(value).to_bytes(4, "big")
        out += bytes(value)
        return
    if isinstance(value, tuple) or kind is list:
        out += _TUPLE
        out += len(value).to_bytes(4, "big")
        for item in value:
            _encode(item, out)
        return
    if isinstance(value, (set, frozenset)):
        # Unordered: serialize elements in sorted-encoding order so the
        # encoding is independent of (salted) iteration order.
        encoded = sorted(canonical_bytes(item) for item in value)
        out += _SET
        out += len(encoded).to_bytes(4, "big")
        for chunk in encoded:
            out += chunk
        return
    if isinstance(value, enum.Enum):
        _TYPE_REGISTRY.setdefault(type(value).__qualname__, type(value))
        out += _ENUM
        _encode(type(value).__qualname__, out)
        _encode(value.name, out)
        return
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        _TYPE_REGISTRY.setdefault(type(value).__qualname__, type(value))
        out += _DATACLASS
        _encode(type(value).__qualname__, out)
        fields = dataclasses.fields(value)
        out += len(fields).to_bytes(4, "big")
        for field in fields:
            _encode(getattr(value, field.name), out)
        return
    if isinstance(value, dict):
        entries = sorted(
            (canonical_bytes(key), canonical_bytes(item))
            for key, item in value.items()
        )
        out += _DICT
        out += len(entries).to_bytes(4, "big")
        for key_bytes, item_bytes in entries:
            out += key_bytes
            out += item_bytes
        return
    # Fallback for exotic state components: the repr must itself be
    # canonical for the digest to be (documented contract).  Not
    # decodable.
    payload = repr(value).encode("utf-8")
    out += _REPR
    out += len(payload).to_bytes(4, "big")
    out += payload


def canonical_bytes(value: Any) -> bytes:
    """The canonical tag-length-value encoding of ``value``."""
    out = bytearray()
    _encode(value, out)
    return bytes(out)


def digest_of_packed(packed: bytes) -> bytes:
    """The fingerprint of the state ``packed`` encodes, from bytes alone.

    ``digest_of_packed(encode(s)) == fingerprint(s)`` — this is what lets
    resumed runs rebuild their visited set from a packed checkpoint
    without decoding (let alone re-encoding) a single state.
    """
    if blake2b is not None:
        return blake2b(packed, digest_size=DIGEST_SIZE).digest()
    return sha256(packed).digest()[:DIGEST_SIZE]  # pragma: no cover


def fingerprint(value: Any) -> bytes:
    """The :data:`DIGEST_SIZE`-byte canonical digest of ``value``."""
    return digest_of_packed(canonical_bytes(value))


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _read_length(data: bytes, offset: int) -> tuple[int, int]:
    end = offset + 4
    if end > len(data):
        raise CodecError("truncated packed value (length field)")
    return int.from_bytes(data[offset:end], "big"), end


def _decode(data: bytes, offset: int) -> tuple[Any, int]:
    try:
        tag = data[offset]
    except IndexError:
        raise CodecError("truncated packed value (missing tag)") from None
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT:
        length, offset = _read_length(data, offset)
        end = offset + length
        if end > len(data):
            raise CodecError("truncated packed int")
        return int.from_bytes(data[offset:end], "big", signed=True), end
    if tag == _T_FLOAT:
        end = offset + 8
        if end > len(data):
            raise CodecError("truncated packed float")
        return struct.unpack_from(">d", data, offset)[0], end
    if tag == _T_STR:
        length, offset = _read_length(data, offset)
        end = offset + length
        if end > len(data):
            raise CodecError("truncated packed str")
        return sys.intern(data[offset:end].decode("utf-8")), end
    if tag == _T_BYTES:
        length, offset = _read_length(data, offset)
        end = offset + length
        if end > len(data):
            raise CodecError("truncated packed bytes")
        return bytes(data[offset:end]), end
    if tag == _T_TUPLE:
        count, offset = _read_length(data, offset)
        items = []
        for _ in range(count):
            item, offset = _decode(data, offset)
            items.append(item)
        return tuple(items), offset
    if tag == _T_SET:
        count, offset = _read_length(data, offset)
        items = []
        for _ in range(count):
            item, offset = _decode(data, offset)
            items.append(item)
        return frozenset(items), offset
    if tag == _T_DICT:
        count, offset = _read_length(data, offset)
        result = {}
        for _ in range(count):
            key, offset = _decode(data, offset)
            value, offset = _decode(data, offset)
            result[key] = value
        return result, offset
    if tag == _T_DATACLASS:
        qualname, offset = _decode(data, offset)
        count, offset = _read_length(data, offset)
        values = []
        for _ in range(count):
            value, offset = _decode(data, offset)
            values.append(value)
        cls = _TYPE_REGISTRY.get(qualname)
        if cls is None:
            raise CodecError(
                f"packed value contains unregistered dataclass {qualname!r}; "
                "call repro.engine.register_codec_type on it first"
            )
        if len(dataclasses.fields(cls)) != count:
            raise CodecError(
                f"packed {qualname} has {count} fields, the registered class "
                f"has {len(dataclasses.fields(cls))} (stale class version?)"
            )
        return cls(*values), offset
    if tag == _T_ENUM:
        qualname, offset = _decode(data, offset)
        member, offset = _decode(data, offset)
        cls = _TYPE_REGISTRY.get(qualname)
        if cls is None:
            raise CodecError(
                f"packed value contains unregistered enum {qualname!r}; "
                "call repro.engine.register_codec_type on it first"
            )
        try:
            return cls[member], offset
        except KeyError:
            raise CodecError(f"{qualname} has no member {member!r}") from None
    if tag == _T_REPR:
        length, offset = _read_length(data, offset)
        preview = data[offset : offset + min(length, 80)]
        raise CodecError(
            "packed value contains a repr-encoded component "
            f"({preview!r}...); repr encoding is hash-only and cannot be "
            "decoded — give the type a dataclass/enum form or keep it out "
            "of packed paths"
        )
    raise CodecError(f"unknown tag byte {tag:#x} at offset {offset - 1}")


def decode_bytes(packed: bytes) -> Any:
    """Decode one packed value; inverse of :func:`canonical_bytes`."""
    value, end = _decode(packed, 0)
    if end != len(packed):
        raise CodecError(
            f"trailing garbage after packed value ({len(packed) - end} bytes)"
        )
    return value


# ---------------------------------------------------------------------------
# The component intern table
# ---------------------------------------------------------------------------
#
# Every component a codec meets gets a **component id**: a small int
# assigned by canonical bytes, in first-seen order — the component's
# *representative* (the first object seen, or decoded, with those
# bytes) takes the next free id, and every later component with equal
# bytes gets the same id.  One dict maps three key spaces that cannot
# collide (``int``, ``bytes``, ``tuple``) to ids:
#
# * **identity** — ``id(component)``, the hot path: successors share
#   unchanged component *objects* with their parents.  Exact because
#   every identity-keyed object stays pinned (as a representative, or in
#   the alias pins) while its key lives, so its id cannot be recycled.
# * **bytes** — the canonical encoding; this tier assigns the ids and is
#   the decode memo, so equal components decode to the representative.
# * **scalar equality** — ``(type, value)`` for ``int``, ``str`` and
#   ``bytes``, where equality within the exact type implies encoding
#   equality; it lets an equal-but-distinct scalar skip its encode.
#
# The table must NOT be keyed by plain equality: ``True == 1 == 1.0`` and
# ``(0,) == (False,)`` while their canonical encodings differ, so an
# ==-keyed dict would return whichever encoding was cached first and the
# digest would become encounter-order dependent.  ``bool`` is excluded
# from the scalar tier by the exact-type check (its singletons make the
# identity tier exact); ``float`` because ``-0.0 == 0.0`` yet they encode
# with different sign bits; containers and dataclasses because their
# ``==`` ignores the bool/int distinction of nested members.
#
# Unhashable components (mutable by convention) are never interned:
# pinning one could serve stale bytes after a mutation, so it re-encodes
# every time and has no component id.

_EQ_CACHEABLE = (int, str, bytes)


class Codec:
    """A per-run packed-state encoder/decoder over a component intern table.

    One instance serves one exploration participant (the coordinator, or
    one worker process); its tables are plain containers, not shared
    state.  ``hits``/``misses`` count intern-table outcomes — a miss is
    one component encode — the number the scaling benchmark asserts on,
    since a healthy hot path re-encodes almost nothing (expanding a
    transition changes one or two components of a composite state).

    A store-backed run also keeps its state index here, behind
    :meth:`lookup`, :meth:`remember`, :meth:`take` and :meth:`resolved`,
    because the index is only as valid as the table's ids.  It holds
    two maps:

    * the *component-id vector* (:meth:`vector`) of each state the run
      has resolved, to the state's digest;
    * the digest of each state the run discovered and has not expanded
      yet, to its vector, from which :meth:`take` rebuilds the state
      without decoding.

    The ids make a vector an exact state key (see the module docstring).
    """

    __slots__ = (
        "hits",
        "misses",
        "_ids",
        "_reps",
        "_parts",
        "_pins",
        "_vectors",
        "_queued",
    )

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._ids: dict[Any, int] = {}
        self._reps: list = []
        self._parts: list[bytes] = []
        self._pins: list = []
        self._vectors: dict[tuple, bytes] = {}
        self._queued: dict[bytes, tuple] = {}

    # -- the intern table ---------------------------------------------------

    def _adopt(self, component: Any, encoded: bytes) -> int:
        """Make ``component`` the representative of ``encoded``; its id."""
        cid = len(self._reps)
        self._reps.append(component)
        self._parts.append(encoded)
        self._ids[encoded] = cid
        self._ids[id(component)] = cid
        return cid

    def _intern(self, component: Any) -> int | None:
        """The id of a component the identity tier does not know.

        ``None`` for an unhashable component, which is never interned.
        """
        try:
            hash(component)
        except TypeError:
            return None
        ids = self._ids
        kind = type(component)
        if kind in _EQ_CACHEABLE:
            cid = ids.get((kind, component))
            if cid is not None:
                self.hits += 1
                ids[id(component)] = cid
                self._pins.append(component)
                return cid
        encoded = canonical_bytes(component)
        self.misses += 1
        cid = ids.get(encoded)
        if cid is None:
            cid = self._adopt(component, encoded)
        else:
            ids[id(component)] = cid
            self._pins.append(component)
        if kind in _EQ_CACHEABLE:
            ids[(kind, component)] = cid
        return cid

    def component_bytes(self, component: Any) -> bytes:
        """The canonical bytes of one state component, through the table.

        The table is strictly keyed (see the notes above :class:`Codec`):
        values that merely compare equal across types — ``True``/``1``/
        ``1.0``, ``(0,)``/``(False,)`` — never share an entry, so the
        returned bytes are always the component's own canonical encoding.
        """
        cid = self._ids.get(id(component))
        if cid is None:
            cid = self._intern(component)
            if cid is None:
                self.misses += 1
                return canonical_bytes(component)
        else:
            self.hits += 1
        return self._parts[cid]

    def vector(self, state: tuple) -> tuple:
        """The component-id vector of a tuple ``state``, interning it.

        A state whose components the table holds resolves at C level,
        with no per-component Python step.  Raises :class:`CodecError`
        for a non-tuple state or an unhashable component, neither of
        which has a vector.
        """
        if type(state) is not tuple:
            raise CodecError(
                f"vectors cover tuple states, got {type(state).__name__}"
            )
        try:
            return tuple(map(self._ids.__getitem__, map(id, state)))
        except KeyError:
            pass
        ids = self._ids
        vector = []
        for component in state:
            cid = ids.get(id(component))
            if cid is None:
                cid = self._intern(component)
                if cid is None:
                    raise CodecError(
                        f"state component {component!r} is unhashable and "
                        "has no component id"
                    )
            vector.append(cid)
        return tuple(vector)

    def state_of(self, vector: tuple) -> tuple:
        """The state a component-id vector names, built from representatives."""
        return tuple(map(self._reps.__getitem__, vector))

    # -- the state index ----------------------------------------------------

    def lookup(self, state: tuple) -> tuple[tuple, bytes | None]:
        """``(vector, digest)`` of ``state``; ``digest`` is ``None`` when
        the index does not hold the vector."""
        vector = self.vector(state)
        return vector, self._vectors.get(vector)

    def remember(self, vector: tuple, digest: bytes, queued: bool) -> None:
        """Index ``vector`` as ``digest``; ``queued`` keeps it for :meth:`take`."""
        self._vectors[vector] = digest
        if queued:
            self._queued[digest] = vector

    def take(self, digest: bytes) -> tuple | None:
        """The queued state ``digest`` names, rebuilt from its vector.

        Removes it from the queued map; ``None`` if it is not there (a
        state a resume loaded, or one a trim dropped), and the caller
        decodes it instead.
        """
        vector = self._queued.pop(digest, None)
        return None if vector is None else self.state_of(vector)

    def resolved(self) -> dict[bytes, tuple]:
        """``digest -> state`` for every state the index holds."""
        state_of = self.state_of
        return {digest: state_of(vector) for vector, digest in self._vectors.items()}

    # -- encoding -----------------------------------------------------------

    def encode(self, state: Any) -> bytes:
        """The packed (canonical) bytes of ``state``, component-cached."""
        if type(state) is not tuple:
            return self.component_bytes(state)
        parts = [_TUPLE + len(state).to_bytes(4, "big")]
        for component in state:
            parts.append(self.component_bytes(component))
        return b"".join(parts)

    def encode_digest(self, state: Any) -> tuple[bytes, bytes]:
        """``(packed, digest)`` from a single encoding pass.

        ``digest == digest_of_packed(packed) == fingerprint(state)`` by
        construction — this method is what removed the engine's separate
        fingerprinting pass: the bytes being hashed are the bytes being
        shipped.
        """
        packed = self.encode(state)
        return packed, digest_of_packed(packed)

    def digest(self, state: Any) -> bytes:
        """The fingerprint of ``state`` through the component cache."""
        if type(state) is not tuple:
            return digest_of_packed(self.component_bytes(state))
        if blake2b is not None:
            hasher = blake2b(digest_size=DIGEST_SIZE)
        else:  # pragma: no cover - exotic builds only
            return digest_of_packed(self.encode(state))
        hasher.update(_TUPLE + len(state).to_bytes(4, "big"))
        for component in state:
            hasher.update(self.component_bytes(component))
        return hasher.digest()

    # -- decoding -----------------------------------------------------------

    def decode(self, packed: bytes) -> Any:
        """Decode packed bytes, interning components.

        Equal components decode to the *same* object — the
        representative the table holds for their bytes — across every
        encode and decode this codec performs, so a decoded state graph
        holds one object per distinct component value, matching the
        interning the sequential engine gets from its state-keyed
        visited set.
        """
        if not packed or packed[0] != _T_TUPLE:
            return decode_bytes(packed)
        count, offset = _read_length(packed, 1)
        ids = self._ids
        reps = self._reps
        components = []
        for _ in range(count):
            value, end = _decode(packed, offset)
            encoded = packed[offset:end]
            cid = ids.get(encoded)
            if cid is not None:
                value = reps[cid]
            else:
                try:
                    hash(value)
                except TypeError:
                    pass
                else:
                    self._adopt(value, encoded)
            components.append(value)
            offset = end
        if offset != len(packed):
            raise CodecError(
                f"trailing garbage after packed state ({len(packed) - offset} bytes)"
            )
        return tuple(components)

    # -- bounding -----------------------------------------------------------

    def trim(self, limit: int | None = None) -> int:
        """Clear what exceeds ``limit``; returns the entries freed.

        Without ``limit``, clears everything.  With it, the checks are
        O(1), so callers can cap the codec on a hot path:

        * once the table and the queued vectors together exceed
          ``limit``, clears the table with the whole index, because
          every vector names the table's ids;
        * otherwise, once the resolved vectors alone exceed ``limit``,
          clears only those: the table stays valid without them, and
          queued states still rebuild from their vectors.

        The table pins every distinct component object ever seen, which
        is the point for in-RAM runs — the live graph shares those
        objects — but is unbounded growth for disk-backed runs that
        stream millions of states through one codec.  Clearing never
        changes encodings or decodings, only hit rates and object
        sharing: a state whose vector is gone is encoded again when next
        met, and, if it was queued, decoded from the store when expanded.
        """
        table = len(self._ids) + len(self._queued)
        if limit is None or table > limit:
            freed = table + len(self._vectors)
            self._ids.clear()
            self._reps.clear()
            self._parts.clear()
            self._pins.clear()
            self._vectors.clear()
            self._queued.clear()
            return freed
        if len(self._vectors) > limit:
            freed = len(self._vectors)
            self._vectors.clear()
            return freed
        return 0

    # -- stats --------------------------------------------------------------

    def stats(self) -> tuple[int, int]:
        """``(hits, misses)`` of the intern table."""
        return self.hits, self.misses
