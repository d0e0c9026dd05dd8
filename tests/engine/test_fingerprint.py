"""Unit tests for canonical state fingerprinting."""

import enum
from dataclasses import dataclass

import pytest

from repro.engine import (
    DIGEST_SIZE,
    FingerprintCollision,
    Codec,
    FingerprintIndex,
    canonical_bytes,
    fingerprint,
    shard_of,
)
from repro.protocols import delegation_consensus_system


class Color(enum.Enum):
    RED = 1
    BLUE = 2


@dataclass(frozen=True)
class Point:
    x: int
    y: int


class TestCanonicalBytes:
    def test_scalars_distinct(self):
        values = [None, True, False, 0, 1, -1, 0.5, "a", "b", b"a", ()]
        encodings = [canonical_bytes(v) for v in values]
        assert len(set(encodings)) == len(values)

    def test_bool_not_int(self):
        # bool is an int subclass; the encoding must still tell them apart.
        assert canonical_bytes(True) != canonical_bytes(1)
        assert canonical_bytes(False) != canonical_bytes(0)

    def test_frozenset_order_independent(self):
        a = frozenset([("x", 1), ("y", 2), ("z", 3)])
        b = frozenset(reversed(sorted(a)))
        assert canonical_bytes(a) == canonical_bytes(b)

    def test_dict_order_independent(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})

    def test_tuple_order_matters(self):
        assert canonical_bytes((1, 2)) != canonical_bytes((2, 1))

    def test_nesting_is_unambiguous(self):
        assert canonical_bytes(((1,), 2)) != canonical_bytes((1, (2,)))

    def test_dataclass_and_enum(self):
        assert canonical_bytes(Point(1, 2)) == canonical_bytes(Point(1, 2))
        assert canonical_bytes(Point(1, 2)) != canonical_bytes(Point(2, 1))
        assert canonical_bytes(Color.RED) != canonical_bytes(Color.BLUE)


class TestFingerprint:
    def test_stable_across_calls(self):
        value = (frozenset([1, 2, 3]), {"k": (4, 5)})
        assert fingerprint(value) == fingerprint(value)

    def test_digest_size(self):
        assert len(fingerprint("x")) == DIGEST_SIZE

    def test_real_states_fingerprint_distinctly(self):
        system = delegation_consensus_system(2, resilience=0)
        a = system.initialization({0: 0, 1: 1}).final_state
        b = system.initialization({0: 1, 1: 0}).final_state
        assert fingerprint(a) != fingerprint(b)
        assert fingerprint(a) == fingerprint(a)

    def test_shard_of_covers_range(self):
        shards = {shard_of(fingerprint(i), 4) for i in range(256)}
        assert shards == {0, 1, 2, 3}


class _ConstantDigest(Codec):
    """A codec that forges one digest for every state."""

    def digest(self, state):
        return bytes(DIGEST_SIZE)


class TestIndexes:
    @pytest.mark.parametrize("index_cls", [FingerprintIndex, dict])
    def test_check_add_roundtrip(self, index_cls):
        # The engine's position index protocol: get -> position or None,
        # then index[state] = position.
        index = index_cls()
        assert index.get("alpha") is None
        index["alpha"] = 0
        assert len(index) == 1
        assert index.get("alpha") == 0

    def test_audit_mode_detects_collisions(self):
        index = FingerprintIndex(audit=True, codec=_ConstantDigest())
        index["a"] = 0
        with pytest.raises(FingerprintCollision):
            index.get("b")  # forged digest: same bytes, different state

    def test_audit_mode_accepts_equal_states(self):
        index = FingerprintIndex(audit=True, codec=_ConstantDigest())
        index["a"] = 0
        assert index.get("a") == 0

    def test_index_distinguishes_bool_int_states(self):
        """Regression: the codec's shared component cache conflated
        (True, ...) and (1, ...) into one digest whichever was checked
        first, which audit mode then surfaced as a FingerprintCollision
        (REVIEW: codec cache).  Both orders, one warm cache."""
        for states in [((True, "x"), (1, "x")), ((1, "x"), (True, "x"))]:
            index = FingerprintIndex(audit=True)
            for position, state in enumerate(states):
                assert index.get(state) is None
                index[state] = position
                assert fingerprint(state) in index
            for position, state in enumerate(states):
                assert index.get(state) == position
            assert len(index) == 2
