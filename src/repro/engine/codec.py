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
  transition changes one or two of them), so the codec caches component
  encodings on the way out (the encode of an unchanged component is a
  dict hit) and memoizes component objects on the way in (equal
  components decode to the *same* object, so a decoded graph holds one
  object per distinct component value).  The caches never change the
  bytes: interning is an encode/decode-time optimization, and the
  packed form stays flat and self-contained, byte-identical across
  processes and interpreter restarts.

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
# The component-encode cache
# ---------------------------------------------------------------------------
#
# The cache must NOT be keyed by plain equality: ``True == 1 == 1.0`` and
# ``(0,) == (False,)`` while their canonical encodings differ, so an
# ==-keyed dict would return whichever encoding was cached first and the
# "canonical, stable" digest guarantee would become encounter-order
# dependent.  Two tiers, both strict:
#
# * **identity** — keyed by ``id(component)`` with the component pinned
#   inside the entry (the pin keeps the id from being recycled).  Always
#   correct for any value, and the common case on the hot path:
#   successors share unchanged component *objects* with their parents.
# * **equality** — keyed by ``(type, value)``, restricted to the scalar
#   types where equality within the exact type implies encoding
#   equality: ``int``, ``str``, ``bytes``.  ``bool`` is excluded by the
#   exact-type check (and its singletons make the identity tier exact);
#   ``float`` is excluded because ``-0.0 == 0.0`` yet they encode with
#   different sign bits; containers and dataclasses are excluded because
#   their ``==`` ignores the bool/int distinction of nested members.
#
# Values that fit neither tier (unhashable components) encode uncached.

_EQ_CACHEABLE = (int, str, bytes)


def _cached_bytes(cache: dict, component: Any) -> tuple[bytes, bool]:
    """``(canonical_bytes(component), cache_hit)`` through ``cache``.

    ``cache`` holds both tiers: ``id(component) -> (component, bytes)``
    pins and ``(type, value) -> bytes`` scalar entries (the key spaces
    cannot collide — one is ``int``, the other ``tuple``).
    """
    entry = cache.get(id(component))
    if entry is not None and entry[0] is component:
        return entry[1], True
    kind = type(component)
    if kind in _EQ_CACHEABLE:
        key = (kind, component)
        encoded = cache.get(key)
        if encoded is not None:
            cache[id(component)] = (component, encoded)
            return encoded, True
        encoded = canonical_bytes(component)
        cache[key] = encoded
        cache[id(component)] = (component, encoded)
        return encoded, False
    encoded = canonical_bytes(component)
    try:
        hash(component)
    except TypeError:
        # Unhashable means mutable by convention: pinning it could serve
        # stale bytes after a mutation, so it re-encodes every time.
        return encoded, False
    cache[id(component)] = (component, encoded)
    return encoded, False


# ---------------------------------------------------------------------------
# The interning codec
# ---------------------------------------------------------------------------


class Codec:
    """A per-run packed-state encoder/decoder with component interning.

    One instance serves one exploration participant (the coordinator, or
    one worker process); the caches are plain dicts, not shared state.
    ``hits``/``misses`` count component-encode cache outcomes — the
    number the scaling benchmark asserts on, since a healthy hot path
    re-encodes almost nothing (expanding a transition changes one or two
    components of a composite state).
    """

    __slots__ = ("hits", "misses", "_encode_cache", "_decode_memo")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._encode_cache: dict[Any, bytes] = {}
        self._decode_memo: dict[bytes, Any] = {}

    # -- encoding -----------------------------------------------------------

    def component_bytes(self, component: Any) -> bytes:
        """Cached :func:`canonical_bytes` of one state component.

        The cache is strictly keyed (see :func:`_cached_bytes`): values
        that merely compare equal across types — ``True``/``1``/``1.0``,
        ``(0,)``/``(False,)`` — never share an entry, so the returned
        bytes are always the component's own canonical encoding.
        """
        encoded, hit = _cached_bytes(self._encode_cache, component)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return encoded

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

        Equal components decode to the *same* object across every decode
        this codec performs, so a decoded state graph holds one object
        per distinct component value — matching the interning the
        sequential engine gets from its state-keyed visited set.
        """
        if not packed or packed[0] != _T_TUPLE:
            return decode_bytes(packed)
        count, offset = _read_length(packed, 1)
        memo = self._decode_memo
        components = []
        for _ in range(count):
            value, end = _decode(packed, offset)
            key = packed[offset:end]
            canonical = memo.get(key)
            if canonical is None:
                memo[key] = value
            else:
                value = canonical
            components.append(value)
            offset = end
        if offset != len(packed):
            raise CodecError(
                f"trailing garbage after packed state ({len(packed) - offset} bytes)"
            )
        return tuple(components)

    # -- cache bounding -----------------------------------------------------

    def trim(self, limit: int | None = None) -> int:
        """Clear the interning caches; returns the entries freed.

        With ``limit``, clears only once the combined entry count
        exceeds it — an O(1) check, so callers can cap the codec on a
        hot path.  The caches pin every distinct component object (and
        its bytes) ever seen, which is the point for in-RAM runs — the
        live graph shares those objects — but is unbounded growth for
        disk-backed runs that stream millions of states through one
        codec.  Clearing never changes encodings or decodings, only
        cache hit rates and object sharing between decodes.
        """
        size = len(self._encode_cache) + len(self._decode_memo)
        if limit is not None and size <= limit:
            return 0
        self._encode_cache.clear()
        self._decode_memo.clear()
        return size

    # -- stats --------------------------------------------------------------

    def stats(self) -> tuple[int, int]:
        """``(hits, misses)`` of the component-encode cache."""
        return self.hits, self.misses
