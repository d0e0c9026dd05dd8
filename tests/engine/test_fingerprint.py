"""Unit tests for the canonical state digest (:mod:`repro.engine.codec`)."""

import enum
from dataclasses import dataclass

import pytest

from repro.analysis import DeterministicSystemView, explore
from repro.engine import (
    DIGEST_SIZE,
    Budget,
    Codec,
    canonical_bytes,
    fingerprint,
)
from repro.protocols import (
    arbiter_consensus_system,
    delegation_consensus_system,
    tob_delegation_system,
)


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


class TestIndexes:
    def test_index_distinguishes_bool_int_states(self):
        """Regression: the codec's shared component cache conflated
        (True, ...) and (1, ...) into one digest whichever was encoded
        first, which merged the two states in a digest-keyed index.
        Both orders, one warm cache each."""
        for states in [((True, "x"), (1, "x")), ((1, "x"), (True, "x"))]:
            codec = Codec()
            index = {}
            for position, state in enumerate(states):
                assert index.setdefault(codec.digest(state), position) == position
            assert [index[fingerprint(state)] for state in states] == [0, 1]


INSTANCES = {
    "arbiter-4-1": lambda: arbiter_consensus_system(4, resilience=1),
    "delegation-5-1": lambda: delegation_consensus_system(5, resilience=1),
    "tob-3-1": lambda: tob_delegation_system(3, resilience=1),
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_digests_pairwise_distinct_on_classic_graph(name):
    """Digest dedup is sound on the paper's instances: the classic loop
    dedups by ``==``, and no two of its states share a digest, so a
    store-backed run, which dedups by digest, merges none of them."""
    system = INSTANCES[name]()
    proposals = {
        endpoint: index % 2 for index, endpoint in enumerate(system.process_ids)
    }
    root = system.initialization(proposals).final_state
    graph = explore(
        DeterministicSystemView(system), root, budget=Budget(max_states=500_000)
    )
    codec = Codec()
    assert len({codec.digest(state) for state in graph.order}) == len(graph.order)
