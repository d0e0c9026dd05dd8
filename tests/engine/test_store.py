"""The pluggable StateStore backends and store-backed exploration.

Three layers of guarantees:

* unit: ``StoreConfig`` URI round-trips, the spillable frontier's FIFO
  invariant across its head/spill-file/tail windows, and the backend
  contract (add/get/contains, expansion log order, truncate-to-marks,
  clear, reopen) for the ``sqlite`` backend;
* equivalence: a store-backed exploration produces the *identical* graph (state order and edge dict) to the
  classic in-RAM engine, on tob(3,1) and delegation(5,1);
* durability: streaming delta segments let a SIGKILLed run resume to
  the identical graph, segment directories are first-class citizens of
  find/list/discard_checkpoint, and monolithic v1/v2 checkpoints seed a
  store-backed resume (cross-version).
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.analysis import refute_candidate
from repro.analysis.view import DeterministicSystemView
from repro.engine import (
    Budget,
    BudgetExhausted,
    CheckpointError,
    EngineError,
    ExplorationEngine,
    ReductionConfig,
    SQLiteStore,
    StoreConfig,
    discard_checkpoint,
    find_checkpoint,
    fingerprint,
    list_checkpoints,
    load_checkpoint,
    open_store,
    resolve_store,
    segment_dir,
)
from repro.engine import api
from repro.engine.reduction import build_reduced_view
from repro.engine.store import _SpillFrontier
from repro.protocols import delegation_consensus_system, tob_delegation_system

#: The one backend; kept as a parameter so the test ids name it.
BACKENDS = ("sqlite",)


def make_store(backend, tmp_path, **overrides):
    return open_store(StoreConfig(path=str(tmp_path / backend), **overrides))


def store_uri(backend, tmp_path, suffix=""):
    return f"{backend}:{tmp_path / (backend + suffix)}"


@pytest.fixture(scope="module")
def instances():
    """(name, view, root, classic graph) for the equivalence matrix."""
    rows = []
    for name, system, proposals in [
        (
            "tob(3,1)",
            tob_delegation_system(3, 1),
            {0: 0, 1: 1, 2: 0},
        ),
        (
            "delegation(5,1)",
            delegation_consensus_system(5, 1),
            {0: 0, 1: 1, 2: 0, 3: 1, 4: 0},
        ),
    ]:
        view = DeterministicSystemView(system)
        root = system.initialization(proposals).final_state
        graph = ExplorationEngine(
            workers=1, budget=Budget(max_states=2_000_000)
        ).explore(view, root)
        rows.append((name, view, root, graph))
    return rows


@pytest.fixture()
def small_instance():
    system = delegation_consensus_system(3, resilience=1)
    view = DeterministicSystemView(system)
    root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
    return view, root


class TestStoreConfig:
    def test_from_uri_memory(self):
        """The in-RAM memory backend is gone: its URI is an unknown
        backend, like any other, and the scheme-only URI is a scratch
        sqlite store."""
        with pytest.raises(ValueError, match="unknown store backend 'memory'"):
            StoreConfig.from_uri("memory")
        assert StoreConfig.from_uri("sqlite") == StoreConfig()
        assert StoreConfig().path is None

    def test_from_uri_with_path(self):
        config = StoreConfig.from_uri("sqlite:/var/run/store")
        assert config.path == "/var/run/store"

    def test_from_uri_query_overrides(self):
        config = StoreConfig.from_uri("sqlite:/d?flush=100&window=64")
        assert config.flush_interval == 100
        assert config.frontier_window == 64

    def test_to_uri_round_trips(self):
        for uri in ("sqlite", "sqlite:/p", "sqlite:/d?flush=100&window=64"):
            assert StoreConfig.from_uri(uri).to_uri() == uri

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown store backend"):
            StoreConfig.from_uri("redis:/nope")
        # One backend, so no backend field: naming one is a TypeError.
        with pytest.raises(TypeError):
            StoreConfig(backend="sqlite")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown store option"):
            StoreConfig.from_uri("sqlite:/p?turbo=1")

    def test_removed_backend_and_option_rejected(self):
        """The mmap backend and the shards= option are gone; both are
        the ordinary unknown-value errors, naming what is accepted."""
        with pytest.raises(ValueError, match="expected sqlite"):
            StoreConfig.from_uri("mmap:/x")
        with pytest.raises(ValueError, match="expected one of flush, window"):
            StoreConfig.from_uri("sqlite:/x?shards=4")
        with pytest.raises(TypeError):
            StoreConfig(shards=4)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="flush_interval"):
            StoreConfig(flush_interval=0)
        with pytest.raises(ValueError, match="must be an integer"):
            StoreConfig.from_uri("sqlite:/p?flush=soon")

    def test_resolve_store(self, tmp_path):
        assert resolve_store(None) is None
        config = StoreConfig()
        assert resolve_store(config) is config
        resolved = resolve_store("sqlite:/p")
        assert resolved == StoreConfig(path="/p")
        with make_store("sqlite", tmp_path) as store:
            assert resolve_store(store) is store
        with pytest.raises(TypeError):
            resolve_store(42)


class TestSpillFrontier:
    def digests(self, count):
        return [index.to_bytes(16, "little") for index in range(count)]

    def test_fifo_within_window(self, tmp_path):
        frontier = _SpillFrontier(tmp_path, window=64)
        digests = self.digests(10)
        for digest in digests:
            frontier.push(digest)
        assert [frontier.pop() for _ in digests] == digests
        assert frontier.pop() is None
        assert frontier.spilled == 0
        frontier.close()

    def test_fifo_across_spill(self, tmp_path):
        frontier = _SpillFrontier(tmp_path, window=8)
        digests = self.digests(100)
        for digest in digests:
            frontier.push(digest)
        assert frontier.spilled > 0
        assert len(frontier) == 100
        assert [frontier.pop() for _ in digests] == digests
        assert frontier.pop() is None
        frontier.close()

    def test_push_front(self, tmp_path):
        frontier = _SpillFrontier(tmp_path, window=4)
        digests = self.digests(20)
        for digest in digests:
            frontier.push(digest)
        head = frontier.pop()
        frontier.push_front(head)
        assert [frontier.pop() for _ in digests] == digests
        frontier.close()

    def test_interleaved_push_pop(self, tmp_path):
        frontier = _SpillFrontier(tmp_path, window=4)
        expected = []
        digests = iter(self.digests(60))
        got = []
        for _ in range(20):
            for _ in range(3):
                digest = next(digests)
                frontier.push(digest)
                expected.append(digest)
            got.append(frontier.pop())
        while len(frontier):
            got.append(frontier.pop())
        assert got == expected
        frontier.close()

    def test_snapshot_load_round_trip(self, tmp_path):
        frontier = _SpillFrontier(tmp_path, window=4)
        digests = self.digests(30)
        for digest in digests:
            frontier.push(digest)
        blob = frontier.snapshot()
        other = _SpillFrontier(tmp_path / "other", window=4)
        other.load(blob)
        assert [other.pop() for _ in digests] == digests
        frontier.close()
        other.close()


class TestBackendContract:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_add_get_contains(self, backend, tmp_path):
        with make_store(backend, tmp_path) as store:
            digest_a, digest_b = b"a" * 16, b"b" * 16
            assert store.add(digest_a, b"packed-a") == 0
            assert store.add(digest_b, b"packed-b") == 1
            # Re-adding is an idempotent no-op (returns -1, keeps the
            # first packed bytes).
            assert store.add(digest_a, b"other-bytes") == -1
            assert len(store) == 2
            assert digest_a in store and digest_b in store
            assert b"c" * 16 not in store
            assert store.get(digest_a) == b"packed-a"
            assert store.get(b"c" * 16) is None
            assert list(store.iter_packed()) == [b"packed-a", b"packed-b"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_expansion_log_order(self, backend, tmp_path):
        with make_store(backend, tmp_path) as store:
            parent, child = b"p" * 16, b"c" * 16
            store.add(parent, b"packed-p")
            slot = store.action_slot("act")
            assert store.action_slot("act") == slot
            store.append_expansion(parent, [(0, slot, child)])
            store.append_expansion(child, [])
            assert store.actions()[slot] == "act"
            assert list(store.iter_expansions()) == [
                (parent, [(0, slot, child)]),
                (child, []),
            ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_frontier(self, backend, tmp_path):
        with make_store(backend, tmp_path) as store:
            digests = [index.to_bytes(16, "little") for index in range(5)]
            for digest in digests:
                store.push(digest)
            assert store.frontier_len() == 5
            blob = store.frontier_snapshot()
            assert store.pop() == digests[0]
            store.push_front(digests[0])
            store.frontier_load(blob)
            assert [store.pop() for _ in digests] == digests

    @pytest.mark.parametrize("backend", ("sqlite",))
    def test_truncate_to_marks(self, backend, tmp_path):
        with make_store(backend, tmp_path) as store:
            digest_a, digest_b = b"a" * 16, b"b" * 16
            store.add(digest_a, b"packed-a")
            store.append_expansion(digest_a, [])
            store.flush()
            marks = store.marks()
            store.add(digest_b, b"packed-b")
            store.append_expansion(digest_b, [(0, 0, digest_a)])
            store.flush()
            store.truncate(marks)
            assert len(store) == 1
            assert digest_b not in store
            assert store.get(digest_b) is None
            assert list(store.iter_expansions()) == [(digest_a, [])]

    @pytest.mark.parametrize("backend", ("sqlite",))
    def test_reopen_preserves_everything(self, backend, tmp_path):
        config = StoreConfig(path=str(tmp_path / backend))
        with open_store(config) as store:
            digest = b"a" * 16
            store.add(digest, b"packed-a")
            slot = store.action_slot("act")
            store.append_expansion(digest, [(1, slot, digest)])
            store.flush()
        with open_store(config) as store:
            assert len(store) == 1
            assert store.get(digest) == b"packed-a"
            assert store.actions()[slot] == "act"
            assert list(store.iter_expansions()) == [(digest, [(1, slot, digest)])]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_clear(self, backend, tmp_path):
        with make_store(backend, tmp_path) as store:
            store.add(b"a" * 16, b"packed")
            store.append_expansion(b"a" * 16, [])
            store.push(b"a" * 16)
            store.clear()
            assert len(store) == 0
            assert store.frontier_len() == 0
            assert list(store.iter_expansions()) == []
            # Usable after clear.
            assert store.add(b"b" * 16, b"fresh") == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_stats_backend_label(self, backend, tmp_path):
        with make_store(backend, tmp_path) as store:
            assert store.stats().to_json()["backend"] == backend

    def test_scratch_directory_cleaned_up(self):
        store = open_store(StoreConfig(path=None))
        directory = store.directory
        assert directory.exists()
        store.close()
        assert not directory.exists()


class TestIdenticalGraph:
    """The headline guarantee: same graph as classic, byte for byte."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_store_graph_matches_classic(self, backend, instances, tmp_path):
        for name, view, root, classic in instances:
            engine = ExplorationEngine(
                budget=Budget(max_states=2_000_000),
                store=store_uri(backend, tmp_path, suffix=f"-{name}"),
            )
            graph = engine.explore(view, root)
            assert list(graph.states) == list(classic.states), (
                f"{backend} {name}: state order diverged"
            )
            assert graph.edges == classic.edges, (
                f"{backend} {name}: edges diverged"
            )
            report = engine.last_report
            assert report.store_backend == backend
            assert report.states == len(classic.states)

    def test_spill_window_still_identical(self, small_instance, tmp_path):
        view, root = small_instance
        classic = ExplorationEngine(workers=1).explore(view, root)
        graph = ExplorationEngine(
            workers=1,
            store=f"sqlite:{tmp_path / 's'}?window=8",
        ).explore(view, root)
        assert list(graph.states) == list(classic.states)
        assert graph.edges == classic.edges

    def test_scan_reports_without_materializing(self, small_instance, tmp_path):
        view, root = small_instance
        classic = ExplorationEngine(workers=1).explore(view, root)
        engine = ExplorationEngine(workers=1, store=store_uri("sqlite", tmp_path))
        report = engine.scan(view, root)
        assert report is engine.last_report
        assert report.states == len(classic.states)
        assert report.transitions == classic.edge_count()
        assert report.store_backend == "sqlite"
        assert report.peak_rss_kb > 0
        payload = report.to_json()
        assert payload["store_backend"] == "sqlite"
        assert payload["peak_rss_kb"] == report.peak_rss_kb


class TestCacheCeilings:
    """A store-backed run keeps no decoded state beyond its caps."""

    def test_scan_leaves_the_step_memo_empty(self, tmp_path):
        system = delegation_consensus_system(5, 1)
        view = DeterministicSystemView(system)
        root = system.initialization({0: 0, 1: 1, 2: 0, 3: 1, 4: 0}).final_state
        engine = ExplorationEngine(workers=1, store=store_uri("sqlite", tmp_path))
        assert engine.scan(view, root).states > 1000
        assert view._step_cache == {}

    def test_scan_transition_memo_stays_capped(self, tmp_path, monkeypatch):
        cap = 50
        monkeypatch.setattr(api, "ORBIT_CACHE_LIMIT", cap)
        system = delegation_consensus_system(5, 1)
        view = DeterministicSystemView(system)
        root = system.initialization({0: 0, 1: 1, 2: 0, 3: 1, 4: 0}).final_state
        peaks = []
        trim = view.trim_caches

        def recording_trim(limit):
            peaks.append(system.memo_entries())
            freed = trim(limit)
            assert system.memo_entries() <= cap
            return freed

        monkeypatch.setattr(view, "trim_caches", recording_trim)
        engine = ExplorationEngine(workers=1, store=store_uri("sqlite", tmp_path))
        graph = engine.explore(view, root)
        reference_system = delegation_consensus_system(5, 1)
        reference = ExplorationEngine(workers=1).explore(
            DeterministicSystemView(reference_system), root
        )
        assert list(graph.states) == list(reference.states)
        assert graph.edges == reference.edges
        # An expansion adds at most an owner entry, its by-value twin and
        # the interned key per component, plus an interned action and
        # post per transition and a receiver entry and post per input.
        branching = max(len(out) for out in reference.edges.values())
        one_expansion = 3 * len(root) + 4 * branching
        assert cap < max(peaks) <= cap + one_expansion
        assert len(peaks) == len(reference.states)

    def test_reduced_scan_orbit_cache_stays_capped(self, tmp_path, monkeypatch):
        cap = 64
        monkeypatch.setattr(api, "ORBIT_CACHE_LIMIT", cap)
        system = delegation_consensus_system(4, 1)
        view = DeterministicSystemView(system)
        root = system.initialization({0: 0, 1: 1, 2: 0, 3: 1}).final_state
        reduced = build_reduced_view(view, root, ReductionConfig.from_name("symmetry"))
        cache = reduced.canonicalizer._cache
        freed = []
        trim = reduced.trim_caches

        def recording_trim(limit):
            before = len(cache)
            result = trim(limit)
            if before > cap:
                freed.append(before)
            assert len(cache) <= cap
            return result

        monkeypatch.setattr(reduced, "trim_caches", recording_trim)
        engine = ExplorationEngine(workers=1, store=store_uri("sqlite", tmp_path))
        engine.scan(reduced, root)
        assert sum(freed) > cap  # the cap was reached and enforced
        assert len(cache) <= cap
        assert view._step_cache == {}


class TestComposability:
    def test_refute_candidate_accepts_store(self, tmp_path):
        system = delegation_consensus_system(3, resilience=1)
        verdict = refute_candidate(
            system,
            budget=Budget(max_states=100_000),
            store=f"sqlite:{tmp_path / 'store'}",
        )
        assert verdict.refuted

    def test_refute_candidate_store_and_engine_conflict(self, tmp_path):
        system = delegation_consensus_system(3, resilience=1)
        with pytest.raises(TypeError, match="not both"):
            refute_candidate(
                system,
                engine=ExplorationEngine(workers=1),
                store="sqlite",
            )

    def test_reduction_store_compose(self, tmp_path):
        """Reduction + disk store in one run."""
        system = delegation_consensus_system(3, resilience=1)
        verdict = refute_candidate(
            system,
            budget=Budget(max_states=100_000),
            engine=ExplorationEngine(
                budget=Budget(max_states=100_000),
                store=f"sqlite:{tmp_path / 'store'}",
            ),
            reduction=ReductionConfig.from_name("symmetry"),
        )
        assert verdict.refuted

    def test_store_instance_bound_to_one_root(self, small_instance, tmp_path):
        view, root = small_instance
        with open_store(StoreConfig(path=str(tmp_path / "s"))) as store:
            engine = ExplorationEngine(workers=1, store=store)
            engine.explore(view, root)
            with pytest.raises(EngineError, match="resume=True"):
                engine.explore(view, root)


class TestSegmentCheckpoints:
    def exhaust(self, view, root, tmp_path, backend="sqlite"):
        checkpoint_dir = tmp_path / "ck"
        uri = store_uri(backend, tmp_path)
        with pytest.raises(BudgetExhausted) as info:
            ExplorationEngine(
                budget=Budget(max_states=60),
                store=uri,
                checkpoint_dir=checkpoint_dir,
                flush_interval=25,
            ).explore(view, root)
        return checkpoint_dir, uri, info.value

    @pytest.mark.parametrize("backend", ("sqlite",))
    def test_exhaust_writes_segments_and_resume_completes(
        self, backend, small_instance, tmp_path
    ):
        view, root = small_instance
        classic = ExplorationEngine(workers=1).explore(view, root)
        checkpoint_dir, uri, error = self.exhaust(
            view, root, tmp_path, backend=backend
        )
        segments = segment_dir(checkpoint_dir, fingerprint(root))
        assert error.checkpoint == segments
        assert list(segments.glob("*.seg"))
        engine = ExplorationEngine(
            workers=1,
            budget=Budget(max_states=100_000),
            store=uri,
            checkpoint_dir=checkpoint_dir,
            resume=True,
        )
        graph = engine.explore(view, root)
        assert list(graph.states) == list(classic.states)
        assert graph.edges == classic.edges
        # Completed runs retire their segments like classic checkpoints.
        assert not list(segments.glob("*.seg"))

    def test_segments_pruned_during_run(self, small_instance, tmp_path):
        view, root = small_instance
        with pytest.raises(BudgetExhausted):
            ExplorationEngine(
                workers=1,
                budget=Budget(max_states=150),
                store=store_uri("sqlite", tmp_path),
                checkpoint_dir=tmp_path / "ck",
                flush_interval=10,
            ).explore(view, root)
        segments = segment_dir(tmp_path / "ck", fingerprint(root))
        assert 1 <= len(list(segments.glob("*.seg"))) <= 2

    def test_find_checkpoint_recognizes_segments(self, small_instance, tmp_path):
        view, root = small_instance
        checkpoint_dir, _, _ = self.exhaust(view, root, tmp_path)
        digest = fingerprint(root)
        found = find_checkpoint(checkpoint_dir, digest)
        assert found == segment_dir(checkpoint_dir, digest)
        assert found.is_dir()

    def test_list_checkpoints_includes_segments(self, small_instance, tmp_path):
        view, root = small_instance
        checkpoint_dir, _, _ = self.exhaust(view, root, tmp_path)
        listed = list_checkpoints(checkpoint_dir)
        assert segment_dir(checkpoint_dir, fingerprint(root)) in listed

    def test_load_checkpoint_on_segments_explains(
        self, small_instance, tmp_path
    ):
        view, root = small_instance
        checkpoint_dir, _, _ = self.exhaust(view, root, tmp_path)
        segments = segment_dir(checkpoint_dir, fingerprint(root))
        with pytest.raises(CheckpointError, match="store="):
            load_checkpoint(segments)

    def test_discard_checkpoint_removes_segments(
        self, small_instance, tmp_path
    ):
        view, root = small_instance
        checkpoint_dir, _, _ = self.exhaust(view, root, tmp_path)
        digest = fingerprint(root)
        discard_checkpoint(checkpoint_dir, digest)
        assert find_checkpoint(checkpoint_dir, digest) is None

    def test_classic_checkpoint_refuses_store_resume(
        self, small_instance, tmp_path
    ):
        """A monolithic file resumes only without a store: a store-backed
        resume raises with the fix, and the file still resumes in RAM."""
        view, root = small_instance
        classic = ExplorationEngine(workers=1).explore(view, root)
        checkpoint_dir = tmp_path / "ck"
        with pytest.raises(BudgetExhausted):
            ExplorationEngine(
                workers=1,
                budget=Budget(max_states=60),
                checkpoint_dir=checkpoint_dir,
                flush_interval=25,
            ).explore(view, root)
        with pytest.raises(CheckpointError, match="classic checkpoint") as info:
            ExplorationEngine(
                workers=1,
                budget=Budget(max_states=100_000),
                store=store_uri("sqlite", tmp_path),
                checkpoint_dir=checkpoint_dir,
                resume=True,
            ).explore(view, root)
        assert "without store=" in str(info.value)
        graph = ExplorationEngine(
            workers=1,
            budget=Budget(max_states=100_000),
            checkpoint_dir=checkpoint_dir,
            resume=True,
        ).explore(view, root)
        assert list(graph.states) == list(classic.states)
        assert graph.edges == classic.edges


KILL_CHILD = textwrap.dedent(
    """
    import os, signal, sys

    from repro.analysis.view import DeterministicSystemView
    from repro.engine import Budget, ExplorationEngine
    from repro.protocols import delegation_consensus_system

    store_uri, checkpoint_dir = sys.argv[1], sys.argv[2]
    system = delegation_consensus_system(5, resilience=1)
    view = DeterministicSystemView(system)
    root = system.initialization({0: 0, 1: 1, 2: 0, 3: 1, 4: 0}).final_state

    expanded = 0

    def prune(state):
        global expanded
        expanded += 1
        if expanded == 1200:  # well past several 100-state flushes
            os.kill(os.getpid(), signal.SIGKILL)
        return False

    ExplorationEngine(
        workers=1,
        budget=Budget(max_states=1_000_000),
        store=store_uri,
        checkpoint_dir=checkpoint_dir,
        flush_interval=100,
    ).explore(view, root, prune=prune)
    raise SystemExit("unreachable: the run should have been killed")
    """
)


class TestKillAndResume:
    @pytest.mark.parametrize("backend", ("sqlite",))
    def test_sigkill_mid_run_resumes_to_identical_graph(
        self, backend, instances, tmp_path
    ):
        _, view, root, classic = next(
            row for row in instances if row[0] == "delegation(5,1)"
        )
        uri = store_uri(backend, tmp_path)
        checkpoint_dir = tmp_path / "ck"
        script = tmp_path / "child.py"
        script.write_text(KILL_CHILD)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), *sys.path) if p
        )
        result = subprocess.run(
            [sys.executable, str(script), uri, str(checkpoint_dir)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == -signal.SIGKILL, result.stderr
        segments = segment_dir(checkpoint_dir, fingerprint(root))
        assert list(segments.glob("*.seg")), "no segment survived the kill"
        graph = ExplorationEngine(
            workers=1,
            budget=Budget(max_states=2_000_000),
            store=uri,
            checkpoint_dir=checkpoint_dir,
            resume=True,
        ).explore(view, root)
        assert list(graph.states) == list(classic.states)
        assert graph.edges == classic.edges
