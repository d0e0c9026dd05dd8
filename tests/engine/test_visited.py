"""Unit tests for the shared-memory visited table."""

import multiprocessing
import os

import pytest

from repro.engine import (
    LocalVisitedFilter,
    SharedVisitedTable,
    shared_memory_available,
)
from repro.engine.visited import MAX_SLOTS, MIN_SLOTS, _slot_count

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="multiprocessing.shared_memory unavailable"
)


def _digest(seed: int, size: int = 16) -> bytes:
    return seed.to_bytes(8, "little") + os.urandom(size - 8)


class TestSlotCount:
    def test_clamps_to_minimum(self):
        assert _slot_count(None) == MIN_SLOTS
        assert _slot_count(10) == MIN_SLOTS

    def test_scales_with_expected_states(self):
        slots = _slot_count(100_000)
        assert slots >= 200_000
        assert slots & (slots - 1) == 0  # power of two

    def test_clamps_to_maximum(self):
        assert _slot_count(10**9) == MAX_SLOTS


class TestTestAndSet:
    def test_absent_then_present(self):
        table = SharedVisitedTable()
        try:
            digest = _digest(7)
            assert digest not in table
            assert table.test_and_set(digest) is False
            assert table.test_and_set(digest) is True
            assert digest in table
        finally:
            table.close(unlink=True)

    def test_colliding_digests_probe_past_each_other(self):
        table = SharedVisitedTable()
        try:
            # Same low-64-bits prefix -> same home slot; linear probing
            # must still distinguish them.
            first = (42).to_bytes(8, "little") + b"A" * 8
            second = (42).to_bytes(8, "little") + b"B" * 8
            assert table.test_and_set(first) is False
            assert table.test_and_set(second) is False
            assert table.test_and_set(first) is True
            assert table.test_and_set(second) is True
        finally:
            table.close(unlink=True)

    def test_all_zero_digest_always_absent(self):
        table = SharedVisitedTable()
        try:
            zero = b"\x00" * 16
            assert table.test_and_set(zero) is False
            assert table.test_and_set(zero) is False
            assert zero not in table
        finally:
            table.close(unlink=True)

    def test_overflow_reports_absent_and_counts(self, monkeypatch):
        monkeypatch.setattr("repro.engine.visited.PROBE_LIMIT", 4)
        table = SharedVisitedTable()
        try:
            # Five digests with the same home slot overflow a 4-probe
            # window; the fifth insert must degrade to "absent".
            digests = [
                (9).to_bytes(8, "little") + bytes([i]) * 8 for i in range(1, 6)
            ]
            for digest in digests[:4]:
                assert table.test_and_set(digest) is False
            assert table.test_and_set(digests[4]) is False
            assert table.overflows == 1
            assert table.test_and_set(digests[4]) is False  # still never inserted
        finally:
            table.close(unlink=True)


class TestCrossProcess:
    def test_forked_child_insert_visible_to_parent(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        context = multiprocessing.get_context("fork")
        table = SharedVisitedTable()
        digest = _digest(1234)

        def child(result):
            result.put(table.test_and_set(digest))

        try:
            queue = context.SimpleQueue()
            process = context.Process(target=child, args=(queue,))
            process.start()
            assert queue.get() is False  # child inserted it first
            process.join(timeout=30)
            assert process.exitcode == 0
            assert digest in table
            assert table.test_and_set(digest) is True
        finally:
            table.close(unlink=True)


class TestLocalVisitedFilter:
    def test_exact_semantics(self):
        table = LocalVisitedFilter()
        digest = _digest(5)
        assert table.test_and_set(digest) is False
        assert table.test_and_set(digest) is True
        assert digest in table
        table.add(_digest(6))
        assert table.overflows == 0
        assert table.slots == 0
        table.close()
