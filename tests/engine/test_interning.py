"""The codec's component intern table and the store loop built on it.

A store-backed sequential run resolves each successor by its
component-id vector, encodes and hashes a state once, when first seen,
and rebuilds a state it discovered from its vector instead of decoding
it.  These tests pin that down:

* unit: component ids are exact (assigned by canonical bytes, never by
  ``==``), vectors rebuild their states, and ``trim`` clears the table
  with the index that names its ids, or the resolved vectors alone;
* work counts: an uninterrupted scan encodes each state once and decodes
  nothing, a scan whose resolved vectors are trimmed still decodes
  nothing, and a resumed scan decodes at most the frontier it loaded —
  counted calls, so host speed cannot hide a regression;
* exactness under pressure: with the caches capped to a few entries, so
  equal components arrive as distinct objects and freed ``id()``s are
  reused, the store graph still equals the classic graph;
* on disk: a scan stopped and resumed at several points leaves sqlite
  ``states`` and ``edges`` rows byte-identical to an uninterrupted scan;
* hash seeds: component ids do not depend on ``PYTHONHASHSEED``.
"""

import dataclasses
import os
import random
import sqlite3
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.view import DeterministicSystemView
from repro.engine import (
    DIGEST_SIZE,
    Budget,
    BudgetExhausted,
    Codec,
    CodecError,
    ExplorationEngine,
    canonical_bytes,
    fingerprint,
)
from repro.engine import api
from repro.engine.checkpoint import load_segment
from repro.protocols import delegation_consensus_system

SRC = str(Path(__file__).resolve().parents[2] / "src")


@dataclasses.dataclass(frozen=True)
class InternCell:
    value: object


def delegation_5_1():
    system = delegation_consensus_system(5, 1)
    root = system.initialization({0: 0, 1: 1, 2: 0, 3: 1, 4: 0}).final_state
    return DeterministicSystemView(system), root


class TestComponentIds:
    def test_equal_components_share_an_id(self):
        codec = Codec()
        first = (InternCell((1, "a")), "phase-" + "0")
        second = (InternCell((1, "a")), "phase-" + "0")
        assert first[0] is not second[0]
        assert codec.vector(first) == codec.vector(second)

    def test_ids_follow_bytes_not_equality(self):
        codec = Codec()
        vectors = [codec.vector(state) for state in [(True,), (1,), (1.0,)]]
        assert len(set(vectors)) == 3
        nested = [codec.vector((InternCell(v),)) for v in [(0,), (False,)]]
        assert nested[0] != nested[1]
        assert codec.vector((-0.0,)) != codec.vector((0.0,))

    def test_state_of_rebuilds_the_state(self):
        codec = Codec()
        state = (InternCell(frozenset({1, 2})), "x", 7, InternCell(None))
        vector = codec.vector(state)
        rebuilt = codec.state_of(vector)
        assert rebuilt == state
        assert canonical_bytes(rebuilt) == canonical_bytes(state)
        # An equal state built from other objects rebuilds to the first
        # objects seen: the representatives.
        twin = (InternCell(frozenset({1, 2})), "x", 7, InternCell(None))
        assert codec.state_of(codec.vector(twin))[0] is state[0]

    def test_equal_vectors_mean_equal_packed_bytes(self):
        codec = Codec()
        states = [
            (InternCell(1), InternCell(2)),
            (InternCell(1), InternCell(3)),
            (InternCell(1), InternCell(2)),
            (InternCell(True), InternCell(2)),
        ]
        by_vector = {}
        for state in states:
            packed, digest = codec.encode_digest(state)
            assert digest == fingerprint(state)
            assert by_vector.setdefault(codec.vector(state), packed) == packed
        assert len(by_vector) == 3

    def test_decode_interns_to_the_representative(self):
        codec = Codec()
        state = (InternCell("a"), InternCell("b"))
        vector = codec.vector(state)
        decoded = codec.decode(canonical_bytes(state))
        assert decoded[0] is state[0] and decoded[1] is state[1]
        assert codec.vector(decoded) == vector

    def test_non_tuple_and_unhashable_states_have_no_vector(self):
        codec = Codec()
        with pytest.raises(CodecError, match="tuple states"):
            codec.vector(frozenset({1}))
        with pytest.raises(CodecError, match="unhashable"):
            codec.vector(([1, 2], "x"))

    def test_index_lookup_remember_take(self):
        codec = Codec()
        state = (InternCell(1), "x")
        vector, digest = codec.lookup(state)
        assert digest is None
        codec.remember(vector, fingerprint(state), queued=True)
        twin = (InternCell(1), "x")
        assert codec.lookup(twin) == (vector, fingerprint(state))
        assert codec.resolved() == {fingerprint(state): state}
        taken = codec.take(fingerprint(state))
        assert taken == state and taken[0] is state[0]
        assert codec.take(fingerprint(state)) is None
        other = (InternCell(2), "x")
        other_vector, _ = codec.lookup(other)
        codec.remember(other_vector, fingerprint(other), queued=False)
        assert codec.take(fingerprint(other)) is None

    def test_trim_clears_the_table_with_the_index(self):
        codec = Codec()
        state = (InternCell(1), "x")
        vector = codec.vector(state)
        codec.remember(vector, fingerprint(state), queued=True)
        assert codec.trim(limit=100) == 0
        assert codec.trim(limit=1) > 0
        assert codec.resolved() == {}
        assert codec.take(fingerprint(state)) is None
        # Ids restart, and still follow bytes.
        assert codec.vector((InternCell(2), "x")) == (0, 1)
        assert codec.vector((InternCell(1), "x")) == (2, 1)

    def test_trim_of_resolved_vectors_alone_keeps_the_table(self):
        codec = Codec()
        cells = [InternCell(n) for n in range(3)]
        states = [(a, b) for a in cells for b in cells]
        vectors = [codec.vector(state) for state in states]
        for state, vector in zip(states, vectors):
            codec.remember(vector, fingerprint(state), queued=state == states[-1])
        # Three components (an identity and a bytes key each) plus one
        # queued vector make 7 entries; the nine resolved vectors alone
        # exceed a limit of 7.
        assert codec.trim(limit=9) == 0
        assert codec.trim(limit=7) == 9
        assert codec.resolved() == {}
        assert codec.lookup(states[0]) == (vectors[0], None)
        assert codec.take(fingerprint(states[-1])) == states[-1]
        assert codec.vector((InternCell(9), cells[0])) == (3, 0)


class _Calls:
    """Counts ``Codec.encode_digest`` and ``Codec.decode`` calls."""

    def __init__(self, monkeypatch):
        self.encodes = 0
        self.decodes = 0
        encode_digest, decode = Codec.encode_digest, Codec.decode

        def counting_encode_digest(codec, state):
            self.encodes += 1
            return encode_digest(codec, state)

        def counting_decode(codec, packed):
            self.decodes += 1
            return decode(codec, packed)

        monkeypatch.setattr(Codec, "encode_digest", counting_encode_digest)
        monkeypatch.setattr(Codec, "decode", counting_decode)

    def reset(self):
        self.encodes = self.decodes = 0


class TestWorkCounts:
    def test_uninterrupted_scan_encodes_once_and_never_decodes(
        self, tmp_path, monkeypatch
    ):
        view, root = delegation_5_1()
        calls = _Calls(monkeypatch)
        report = ExplorationEngine(store=f"sqlite:{tmp_path / 'st'}").scan(view, root)
        assert report.states > 5000
        assert calls.encodes <= report.states + 1
        assert calls.decodes == 0

    def test_materialized_graph_rebuilds_without_decoding(
        self, tmp_path, monkeypatch
    ):
        view, root = delegation_5_1()
        calls = _Calls(monkeypatch)
        graph = ExplorationEngine(store=f"sqlite:{tmp_path / 'st'}").explore(
            view, root
        )
        assert calls.encodes <= len(graph.order) + 1
        assert calls.decodes == 0

    def test_resumed_scan_decodes_at_most_its_loaded_frontier(
        self, tmp_path, monkeypatch
    ):
        view, root = delegation_5_1()
        uri = f"sqlite:{tmp_path / 'st'}"
        checkpoints = tmp_path / "ck"
        calls = _Calls(monkeypatch)
        with pytest.raises(BudgetExhausted):
            ExplorationEngine(
                store=uri, checkpoint_dir=checkpoints, budget=Budget(max_states=2000)
            ).scan(view, root)
        assert calls.decodes == 0
        segment = load_segment(checkpoints, fingerprint(root))
        loaded = len(segment.frontier_blob) // DIGEST_SIZE
        assert loaded > 0
        calls.reset()
        report = ExplorationEngine(
            store=uri, checkpoint_dir=checkpoints, resume=True
        ).scan(view, root)
        assert report.states > 5000
        assert 0 < calls.decodes <= loaded

    def test_trimmed_resolved_vectors_cost_no_decode(self, tmp_path, monkeypatch):
        """A cap above the table plus the queued vectors (under 1,800
        entries on delegation(5,1)) but below the state count trims only
        the resolved vectors: the table and every queued vector survive,
        so no state is decoded."""
        monkeypatch.setattr(api, "CODEC_CACHE_LIMIT", 2000)
        view, root = delegation_5_1()
        calls = _Calls(monkeypatch)
        outcomes = []
        trim = Codec.trim

        def recording_trim(codec, limit=None):
            freed = trim(codec, limit)
            if freed:
                outcomes.append(len(codec._ids) > 0)
            return freed

        monkeypatch.setattr(Codec, "trim", recording_trim)
        report = ExplorationEngine(store=f"sqlite:{tmp_path / 'st'}").scan(view, root)
        reference_view, _ = delegation_5_1()
        reference = ExplorationEngine().explore(reference_view, root)
        assert (report.states, report.transitions) == (
            len(reference.order),
            sum(len(row) for row in reference.succ),
        )
        # Vectors-only trims happened, and the table was never cleared.
        assert len(outcomes) >= 2 and all(outcomes)
        assert calls.decodes == 0
        # A trimmed successor met again is encoded again.
        assert calls.encodes > report.states + 1


class TestCappedTables:
    def test_recycled_ids_keep_the_graph_exact(self, tmp_path, monkeypatch):
        """Tiny caps clear the composition memo and the codec on every
        expansion: equal components keep arriving as distinct objects,
        and ids freed by the clears are reused by later objects."""
        cap = 8
        monkeypatch.setattr(api, "ORBIT_CACHE_LIMIT", cap)
        monkeypatch.setattr(api, "CODEC_CACHE_LIMIT", cap)
        view, root = delegation_5_1()
        peaks = []
        clears = []
        trim = Codec.trim

        def recording_trim(codec, limit=None):
            peaks.append(len(codec._vectors))
            freed = trim(codec, limit)
            if freed:
                clears.append(freed)
            return freed

        monkeypatch.setattr(Codec, "trim", recording_trim)
        graph = ExplorationEngine(store=f"sqlite:{tmp_path / 'st'}").explore(
            view, root
        )
        reference_view, _ = delegation_5_1()
        reference = ExplorationEngine().explore(reference_view, root)
        assert list(graph.states) == list(reference.states)
        assert graph.edges == reference.edges
        # One expansion adds at most one vector per successor.
        branching = max(len(out) for out in reference.edges.values())
        assert max(peaks) <= cap + branching
        assert len(peaks) >= len(reference.states)
        # The cap was enforced throughout, not once.
        assert len(clears) > len(reference.states) // 2


def _rows(store_dir: Path, root) -> tuple[list, list]:
    database = store_dir / fingerprint(root).hex() / "store.db"
    with sqlite3.connect(database) as db:
        states = db.execute("SELECT seq, digest, packed FROM states ORDER BY seq")
        edges = db.execute("SELECT seq, task, action, succ FROM edges ORDER BY seq")
        return states.fetchall(), edges.fetchall()


class TestResumeSweep:
    def test_resumed_rows_match_an_uninterrupted_scan(self, tmp_path):
        view, root = delegation_5_1()
        ExplorationEngine(store=f"sqlite:{tmp_path / 'whole'}").scan(view, root)
        whole = _rows(tmp_path / "whole", root)
        assert len(whole[0]) > 5000
        stops = sorted(random.Random(32).sample(range(50, len(whole[0])), 3))
        for stop in stops:
            store_dir = tmp_path / f"stop-{stop}"
            checkpoints = tmp_path / f"ck-{stop}"
            with pytest.raises(BudgetExhausted):
                ExplorationEngine(
                    store=f"sqlite:{store_dir}",
                    checkpoint_dir=checkpoints,
                    budget=Budget(max_states=stop),
                    flush_interval=500,
                ).scan(view, root)
            ExplorationEngine(
                store=f"sqlite:{store_dir}", checkpoint_dir=checkpoints, resume=True
            ).scan(view, root)
            states, edges = _rows(store_dir, root)
            assert states == whole[0], f"stop {stop}: states rows differ"
            assert edges == whole[1], f"stop {stop}: edges rows differ"


SEED_CHILD = textwrap.dedent(
    """
    import hashlib
    from repro.analysis.view import DeterministicSystemView
    from repro.engine import Codec, ExplorationEngine
    from repro.protocols import delegation_consensus_system

    codecs = []
    init = Codec.__init__

    def recording_init(codec):
        init(codec)
        codecs.append(codec)

    Codec.__init__ = recording_init
    system = delegation_consensus_system(3, 1)
    root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
    ExplorationEngine(store="sqlite").scan(DeterministicSystemView(system), root)
    index = codecs[-1]._vectors
    print(len(index), hashlib.sha256(repr(list(index.items())).encode()).hexdigest())
    """
)


def test_component_ids_do_not_depend_on_the_hash_seed():
    outputs = []
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", SEED_CHILD],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        outputs.append(done.stdout)
    assert int(outputs[0].split()[0]) > 100
    assert len(set(outputs)) == 1, outputs
