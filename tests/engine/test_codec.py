"""Unit tests for the packed canonical state codec."""

import dataclasses
import enum

import pytest

from repro.engine import (
    Codec,
    CodecError,
    canonical_bytes,
    decode_bytes,
    digest_of_packed,
    fingerprint,
    register_codec_type,
    registered_codec_types,
)
from repro.engine.codec import _TYPE_REGISTRY


@dataclasses.dataclass(frozen=True)
class Point:
    x: int
    y: int


class Color(enum.Enum):
    RED = 1
    BLUE = 2


SAMPLES = [
    None,
    True,
    False,
    0,
    -1,
    2**70,
    3.25,
    -0.0,
    "",
    "hello",
    "unicode: héllo",
    b"",
    b"\x00\xff",
    (),
    (1, "two", (3.0, None)),
    frozenset(),
    # repr() of a mixed str/int set follows the per-process string hash
    # seed, so pin the id to keep the test name stable across runs.
    pytest.param(frozenset({1, "a", (2, 3)}), id="frozenset({'a', 1, (2, 3)})"),
    {},
    {"k": 1, 2: "v", (3,): frozenset({4})},
    Point(1, 2),
    Color.RED,
    (Point(0, 0), Color.BLUE, {"deep": (frozenset({Point(1, 1)}),)}),
]


class TestRoundTrip:
    @pytest.mark.parametrize("value", SAMPLES, ids=repr)
    def test_encode_decode_identity(self, value):
        assert decode_bytes(canonical_bytes(value)) == value

    def test_aliases_decode_to_canonical_forms(self):
        assert decode_bytes(canonical_bytes([1, 2])) == (1, 2)
        assert decode_bytes(canonical_bytes({1, 2})) == frozenset({1, 2})
        assert decode_bytes(canonical_bytes(bytearray(b"xy"))) == b"xy"

    def test_bool_int_distinct(self):
        assert decode_bytes(canonical_bytes(True)) is True
        assert decode_bytes(canonical_bytes(1)) == 1
        assert canonical_bytes(True) != canonical_bytes(1)


class TestDigestParity:
    @pytest.mark.parametrize("value", SAMPLES, ids=repr)
    def test_digest_of_packed_matches_fingerprint(self, value):
        assert digest_of_packed(canonical_bytes(value)) == fingerprint(value)

    def test_encode_digest_single_pass(self):
        codec = Codec()
        state = (Point(1, 2), "phase", frozenset({3}))
        packed, digest = codec.encode_digest(state)
        assert packed == canonical_bytes(state)
        assert digest == fingerprint(state)
        assert digest == digest_of_packed(packed)

    def test_cached_digest_matches_uncached(self):
        codec = Codec()
        state = (Point(1, 2), "phase", (1, 2, 3))
        first = codec.digest(state)  # populates the component cache
        assert codec.digest(state) == first == fingerprint(state)


class TestCodecCache:
    def test_component_cache_hits_by_identity(self):
        codec = Codec()
        point = Point(1, 2)
        codec.encode((point, "a"))
        codec.encode((point, "b"))  # same Point object is a hit now
        hits, misses = codec.stats()
        assert hits == 1
        assert misses == 3

    def test_equal_scalars_hit_across_objects(self):
        codec = Codec()
        codec.encode((int("1" * 30), "endpoint-0"))
        # Equal-but-distinct int/str objects land in the equality tier.
        codec.encode((int("1" * 30), "endpoint-" + "0"))
        hits, misses = codec.stats()
        assert hits == 2
        assert misses == 2

    def test_unhashable_component_encodes_uncached(self):
        codec = Codec()
        packed = codec.encode(([1, 2], "x"))
        assert packed == canonical_bytes(((1, 2), "x"))

    def test_bool_int_components_never_share_cache(self):
        """Regression: ==-keyed caching returned the first-cached encoding
        for every ``True``/``1``/``1.0``-style equal value, making digests
        encounter-order dependent (REVIEW: codec.py component_bytes)."""
        codec = Codec()
        packed_true, digest_true = codec.encode_digest((True, "x"))
        packed_one, digest_one = codec.encode_digest((1, "x"))
        packed_float, digest_float = codec.encode_digest((1.0, "x"))
        assert len({packed_true, packed_one, packed_float}) == 3
        assert len({digest_true, digest_one, digest_float}) == 3
        # The packed bytes decode to their own value, not the first-seen.
        assert codec.decode(packed_one)[0] is not True
        assert codec.decode(packed_one) == (1, "x")
        assert codec.decode(packed_true)[0] is True
        # Digest parity with the uncached path, in every encounter order.
        assert digest_one == fingerprint((1, "x"))
        assert digest_true == fingerprint((True, "x"))
        reordered = Codec()
        assert reordered.encode_digest((1, "x")) == (packed_one, digest_one)
        assert reordered.encode_digest((True, "x")) == (packed_true, digest_true)

    def test_equal_containers_with_distinct_encodings(self):
        codec = Codec()
        packed_false = codec.encode(((False,), "x"))
        packed_zero = codec.encode(((0,), "x"))  # (0,) == (False,)
        assert packed_false != packed_zero
        assert codec.decode(packed_zero)[0][0] is not False
        assert packed_zero == canonical_bytes(((0,), "x"))

    def test_negative_zero_float_not_conflated(self):
        codec = Codec()
        assert codec.encode((0.0, "x")) != codec.encode((-0.0, "x"))
        assert codec.encode((0.0, "x")) == canonical_bytes((0.0, "x"))


class TestInterning:
    def test_equal_components_share_objects(self):
        codec = Codec()
        first = codec.decode(canonical_bytes((Point(1, 2), "a")))
        second = codec.decode(canonical_bytes((Point(1, 2), "b")))
        assert first[0] is second[0]

    def test_strings_interned(self):
        one = decode_bytes(canonical_bytes("endpoint-0"))
        two = decode_bytes(canonical_bytes("endpoint-0"))
        assert one is two

    def test_interning_never_changes_bytes(self):
        codec = Codec()
        state = (Point(3, 4), Point(3, 4))
        assert codec.encode(state) == canonical_bytes(state)
        assert codec.encode(state) == canonical_bytes(state)  # warm cache


class TestRegistry:
    def test_encoding_registers_automatically(self):
        canonical_bytes(Point(9, 9))
        assert registered_codec_types()["Point"] is Point

    def test_register_rejects_plain_class(self):
        class Plain:
            pass

        with pytest.raises(CodecError):
            register_codec_type(Plain)

    def test_register_rejects_init_false_fields(self):
        @dataclasses.dataclass(frozen=True)
        class Sneaky:
            x: int
            y: int = dataclasses.field(default=0, init=False)

        with pytest.raises(CodecError, match="init=False"):
            register_codec_type(Sneaky)

    def test_register_rejects_qualname_conflict(self):
        @dataclasses.dataclass(frozen=True)
        class Clash:
            x: int

        first = Clash

        @dataclasses.dataclass(frozen=True)  # noqa: F811
        class Clash:  # noqa: F811
            x: int

        register_codec_type(first)
        try:
            with pytest.raises(CodecError, match="already registered"):
                register_codec_type(Clash)
        finally:
            _TYPE_REGISTRY.pop(first.__qualname__, None)

    def test_decode_unregistered_dataclass_raises(self):
        packed = canonical_bytes(Point(5, 6))
        saved = _TYPE_REGISTRY.pop("Point")
        try:
            with pytest.raises(CodecError, match="unregistered dataclass"):
                decode_bytes(packed)
        finally:
            _TYPE_REGISTRY["Point"] = saved

    def test_decode_field_count_mismatch_raises(self):
        packed = canonical_bytes(Point(5, 6))

        @dataclasses.dataclass(frozen=True)
        class Shrunk:
            x: int

        saved = _TYPE_REGISTRY["Point"]
        _TYPE_REGISTRY["Point"] = Shrunk
        try:
            with pytest.raises(CodecError, match="stale class version"):
                decode_bytes(packed)
        finally:
            _TYPE_REGISTRY["Point"] = saved


class TestDecodeErrors:
    def test_repr_fallback_is_hash_only(self):
        class Exotic:
            def __repr__(self):
                return "Exotic()"

        packed = canonical_bytes(Exotic())
        with pytest.raises(CodecError, match="repr-encoded"):
            decode_bytes(packed)

    def test_truncated(self):
        packed = canonical_bytes((1, 2, 3))
        with pytest.raises(CodecError):
            decode_bytes(packed[:-1])

    def test_trailing_garbage(self):
        with pytest.raises(CodecError, match="trailing garbage"):
            decode_bytes(canonical_bytes(1) + b"\x00")
        with pytest.raises(CodecError, match="trailing garbage"):
            Codec().decode(canonical_bytes((1,)) + b"\x00")

    def test_unknown_tag(self):
        with pytest.raises(CodecError, match="unknown tag"):
            decode_bytes(b"\x7f")

    def test_empty(self):
        with pytest.raises(CodecError):
            decode_bytes(b"")
