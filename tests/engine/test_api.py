"""End-to-end tests of the ExplorationEngine facade.

The load-bearing guarantees under test:

* at any worker count (more than one runs on a sqlite store), a
  completed run produces a StateGraph identical to the sequential
  explorer's — same states *in the same discovery order*, same edges;
* budget exhaustion raises BudgetExhausted with the exact legacy
  semantics (`len(states) == max_states` at raise time) plus progress;
* an interrupted checkpointed run resumes to the same completed graph
  (state set and edges) and retires its checkpoint.
"""

import os
import warnings

import pytest

from repro.analysis import DeterministicSystemView, analyze_valence, explore
from repro.engine import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExhausted,
    CheckpointError,
    ExplorationEngine,
    StoreConfig,
    find_checkpoint,
    fingerprint,
    open_store,
)
from repro.engine.store import DEFAULT_FLUSH_INTERVAL
from repro.obs import MetricsRegistry, RingBufferSink, Tracer, assemble_spans
from repro.obs.export import prometheus_textfile
from repro.protocols import delegation_consensus_system, tob_delegation_system


@pytest.fixture(scope="module")
def instance():
    system = delegation_consensus_system(3, resilience=1)
    view = DeterministicSystemView(system)
    root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
    return view, root


@pytest.fixture(scope="module")
def sequential_graph(instance):
    view, root = instance
    return explore(view, root, budget=Budget(max_states=50_000))


def pool_store(tmp_path, workers):
    """The engine ``store=`` for ``workers``: the pool runs on sqlite."""
    return None if workers == 1 else f"sqlite:{tmp_path / 'store'}"


class TestSequentialEquivalence:
    def test_wrapper_and_engine_agree(self, instance, sequential_graph):
        view, root = instance
        graph = ExplorationEngine(workers=1, budget=Budget()).explore(view, root)
        assert list(graph.states) == list(sequential_graph.states)
        assert graph.edges == sequential_graph.edges


class TestParallelEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_identical_graph_including_order(
        self, instance, sequential_graph, workers, tmp_path
    ):
        view, root = instance
        graph = ExplorationEngine(
            workers=workers, budget=Budget(), store=pool_store(tmp_path, workers)
        ).explore(view, root)
        assert list(graph.states) == list(sequential_graph.states)
        assert graph.edges == sequential_graph.edges
        assert graph.edge_count() == sequential_graph.edge_count()

    def test_prune_respected_in_parallel(self, instance, tmp_path):
        view, root = instance

        def decided(state):
            return bool(view.decisions(state))

        sequential = explore(view, root, budget=Budget(max_states=50_000), prune=decided)
        parallel = ExplorationEngine(
            workers=2, budget=Budget(), store=pool_store(tmp_path, 2)
        ).explore(view, root, prune=decided)
        assert list(parallel.states) == list(sequential.states)
        assert parallel.edges == sequential.edges

    def test_worker_metrics_published(self, instance, tmp_path):
        view, root = instance
        metrics = MetricsRegistry()
        ExplorationEngine(
            workers=2, budget=Budget(), metrics=metrics, store=pool_store(tmp_path, 2)
        ).explore(view, root)
        counters = metrics.snapshot()["counters"]
        assert counters["engine.runs"] == 1
        assert counters["explore.states"] == counters["engine.expanded"]
        per_worker = [
            value
            for name, value in counters.items()
            if name.startswith("engine.worker") and name.endswith(".expanded")
        ]
        assert sum(per_worker) == counters["engine.expanded"]


class TestWorkersNeedAStore:
    def test_pool_without_store_is_refused(self):
        """The worker pool runs on a sqlite store; without one the
        engine refuses workers > 1 up front and names both ways out."""
        with pytest.raises(ValueError, match="workers=2 needs a store") as info:
            ExplorationEngine(workers=2, budget=Budget())
        assert "workers=1" in str(info.value)
        assert "sqlite:" in str(info.value)

    def test_one_worker_or_a_store_is_accepted(self, tmp_path):
        """One worker needs no store, and a pool with a sqlite store
        constructs without a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ExplorationEngine(workers=1)
            ExplorationEngine(workers=2, store=pool_store(tmp_path, 2))


class TestCheckpointNeedsADurableStore:
    @pytest.mark.parametrize("store", ["sqlite", StoreConfig(path=None)])
    def test_scratch_store_with_checkpoint_dir_is_refused(self, tmp_path, store):
        """A scratch store is deleted when its exploration ends, so its
        delta segments could never resume: refused at construction."""
        with pytest.raises(ValueError, match="scratch store") as info:
            ExplorationEngine(store=store, checkpoint_dir=tmp_path)
        assert "sqlite:/path" in str(info.value)
        ExplorationEngine(store=store)
        ExplorationEngine(store=f"sqlite:{tmp_path / 'st'}", checkpoint_dir=tmp_path)


class TestRunSpanStatus:
    def test_crashed_run_ends_its_span_with_error(self, instance):
        """Any exception out of the loop, not only budget exhaustion or a
        lost worker, ends ``engine.run`` with status ``error``."""
        view, root = instance

        def cancel():
            raise OSError("cancel hook failed")

        sink = RingBufferSink()
        engine = ExplorationEngine(
            workers=1, budget=Budget(), tracer=Tracer(sink), cancel=cancel
        )
        with pytest.raises(OSError, match="cancel hook failed"):
            engine.explore(view, root)
        records = assemble_spans(sink.events())
        assert [(record.name, record.status) for record in records] == [
            ("engine.run", "error")
        ]


class TestMemoStatistics:
    def test_report_metrics_and_prometheus_carry_the_memo_numbers(self):
        system = delegation_consensus_system(3, resilience=1)
        view = DeterministicSystemView(system)
        root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
        metrics = MetricsRegistry()
        engine = ExplorationEngine(workers=1, budget=Budget(), metrics=metrics)
        engine.explore(view, root)
        report = engine.last_report
        assert report.memo_misses == system.memo_misses > 0
        assert report.memo_entries == system.memo_entries() > 0
        assert report.to_json()["memo_misses"] == report.memo_misses
        assert report.to_json()["memo_entries"] == report.memo_entries
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["engine.memo.misses"] == report.memo_misses
        assert snapshot["gauges"]["engine.memo.entries"] == report.memo_entries
        text = prometheus_textfile(snapshot)
        assert f"repro_engine_memo_misses_total {report.memo_misses}" in text
        assert f"repro_engine_memo_entries {report.memo_entries}" in text
        # Every transition of a second run over the same states hits.
        engine.explore(view, root)
        assert engine.last_report.memo_misses == 0


class TestBudgets:
    def test_states_budget_matches_legacy_count(self, instance):
        view, root = instance
        with pytest.raises(BudgetExhausted) as info:
            ExplorationEngine(workers=1, budget=Budget(max_states=50)).explore(
                view, root
            )
        assert info.value.states == 50  # the CLI prints exactly this number

    def test_transitions_budget(self, instance):
        view, root = instance
        with pytest.raises(BudgetExhausted) as info:
            ExplorationEngine(
                workers=1, budget=Budget(max_transitions=100)
            ).explore(view, root)
        assert info.value.resource == "transitions"
        assert info.value.transitions <= 100

    def test_deadline_budget(self, instance):
        view, root = instance
        with pytest.raises(BudgetExhausted) as info:
            ExplorationEngine(
                workers=1, budget=Budget(deadline_seconds=1e-9)
            ).explore(view, root)
        assert info.value.resource == "deadline"

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            ExplorationEngine(workers=0)

    def test_budget_none_means_default_budget(self, instance, monkeypatch):
        """``budget=None`` is DEFAULT_BUDGET, on the engine and through
        the analysis entry points that build one."""
        assert ExplorationEngine(budget=None).budget is DEFAULT_BUDGET
        seen = []
        original = ExplorationEngine.explore

        def spy(self, *args, **kwargs):
            seen.append(self.budget)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ExplorationEngine, "explore", spy)
        view, root = instance
        explore(view, root, budget=None)
        analyze_valence(delegation_consensus_system(3, resilience=1), root)
        assert seen == [DEFAULT_BUDGET, DEFAULT_BUDGET]

    def test_removed_max_states_alias_rejected(self, instance):
        view, root = instance
        with pytest.raises(TypeError):
            explore(view, root, max_states=10)
        with pytest.raises(TypeError):
            explore(view, root, 10)  # prune= and later are keyword-only


class TestFlushInterval:
    """One rule: explicit value, else the store config's, else the default."""

    def test_default_without_store(self):
        assert ExplorationEngine().flush_interval == DEFAULT_FLUSH_INTERVAL

    def test_store_config_supplies_default(self, tmp_path):
        config = StoreConfig(path=str(tmp_path / "store"), flush_interval=77)
        assert ExplorationEngine(store=config).flush_interval == 77
        assert ExplorationEngine(store="sqlite:/x?flush=33").flush_interval == 33
        with open_store(config) as store:
            assert ExplorationEngine(store=store).flush_interval == 77

    def test_explicit_value_wins(self):
        config = StoreConfig(flush_interval=77)
        engine = ExplorationEngine(store=config, flush_interval=99)
        assert engine.flush_interval == 99

    def test_invalid_and_removed_spellings_rejected(self):
        with pytest.raises(ValueError, match="flush_interval"):
            ExplorationEngine(flush_interval=0)
        with pytest.raises(TypeError):
            ExplorationEngine(checkpoint_interval=42)


class TestCheckpointResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_interrupt_then_resume_reaches_full_graph(
        self, instance, sequential_graph, tmp_path, workers
    ):
        view, root = instance
        directory = tmp_path / f"ckpt-{workers}"
        store = pool_store(tmp_path, workers)
        with pytest.raises(BudgetExhausted) as info:
            ExplorationEngine(
                workers=workers,
                budget=Budget(max_states=60),
                store=store,
                checkpoint_dir=directory,
            ).explore(view, root)
        assert info.value.checkpoint is not None
        assert find_checkpoint(directory, fingerprint(root)) is not None
        resumed = ExplorationEngine(
            workers=workers,
            budget=Budget(),
            store=store,
            checkpoint_dir=directory,
            resume=True,
        ).explore(view, root)
        assert set(resumed.states) == set(sequential_graph.states)
        assert resumed.edges == sequential_graph.edges
        # The completed exploration retires its checkpoint.
        assert find_checkpoint(directory, fingerprint(root)) is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_across_format_bump(
        self, instance, sequential_graph, tmp_path, workers
    ):
        """A v1 (pre-packed) checkpoint file, a pickled Checkpoint object,
        is refused with the fix named at one worker; a store-backed run
        at two refuses it too, since a checkpoint resumes only under the
        configuration that wrote it."""
        import pickle

        from repro.engine.checkpoint import (
            CHECKPOINT_FORMAT,
            checkpoint_path,
            load_checkpoint,
        )

        view, root = instance
        with pytest.raises(BudgetExhausted):
            ExplorationEngine(
                workers=1,
                budget=Budget(max_states=60),
                checkpoint_dir=tmp_path,
            ).explore(view, root)
        # Rewrite the freshly written v2 file as a v1 payload (whole
        # Checkpoint object, version 1) — the format old engines wrote.
        path = checkpoint_path(tmp_path, fingerprint(root))
        checkpoint = load_checkpoint(path)
        path.write_bytes(
            pickle.dumps(
                {
                    "format": CHECKPOINT_FORMAT,
                    "version": 1,
                    "checkpoint": checkpoint,
                }
            )
        )
        engine = ExplorationEngine(
            workers=workers,
            budget=Budget(),
            store=pool_store(tmp_path, workers),
            checkpoint_dir=tmp_path,
            resume=True,
        )
        match = "without store=" if workers > 1 else "delete the file and rerun"
        with pytest.raises(CheckpointError, match=match):
            engine.explore(view, root)
        if workers == 1:
            # Deleting the file, as the error says, starts the run over.
            path.unlink()
            resumed = engine.explore(view, root)
            assert resumed.edges == sequential_graph.edges

    @pytest.mark.parametrize("layout", ["parent", "frontier-reordered"])
    def test_packed_payload_in_the_parent_layout(
        self, instance, sequential_graph, tmp_path, layout
    ):
        """A packed file as engines before the positional graph wrote it
        — edges re-encoded from a state-keyed dict, an explicit frontier
        list — resumes to the identical graph; one whose frontier is not
        the positions m..n-1 is refused."""
        import pickle

        from repro.engine import Codec
        from repro.engine.checkpoint import (
            CHECKPOINT_FORMAT,
            checkpoint_path,
            load_checkpoint,
        )
        from repro.engine.codec import registered_codec_types

        view, root = instance
        with pytest.raises(BudgetExhausted):
            ExplorationEngine(
                budget=Budget(max_states=60), checkpoint_dir=tmp_path
            ).explore(view, root)
        path = checkpoint_path(tmp_path, fingerprint(root))
        saved = load_checkpoint(path)
        # The parent writer: positions keyed by packed bytes, then every
        # edge and frontier state re-encoded to find its position.
        codec = Codec()
        packed_order = [codec.encode(state) for state in saved.order]
        index_of: dict = {}
        for position, packed in enumerate(packed_order):
            index_of.setdefault(packed, position)
        edges_by_state = {
            saved.order[position]: [
                (task, action, saved.order[target]) for task, action, target in rows
            ]
            for position, rows in enumerate(saved.succ)
        }
        frontier_states = saved.order[len(saved.succ) :]
        tasks: list = []
        actions: list = []

        def slot(table, item):
            if item not in table:
                table.append(item)
            return table.index(item)

        edges = [
            (
                index_of[codec.encode(state)],
                [
                    (
                        slot(tasks, task),
                        slot(actions, action),
                        index_of[codec.encode(successor)],
                    )
                    for task, action, successor in rows
                ],
            )
            for state, rows in edges_by_state.items()
        ]
        frontier = [index_of[codec.encode(state)] for state in frontier_states]
        assert len(frontier) > 1
        if layout == "frontier-reordered":
            frontier.reverse()
        path.write_bytes(
            pickle.dumps(
                {
                    "format": CHECKPOINT_FORMAT,
                    "version": 2,
                    "mode": "packed",
                    "packed_order": packed_order,
                    "edges": edges,
                    "frontier": frontier,
                    "tasks": tasks,
                    "actions": actions,
                    "codec_types": registered_codec_types(),
                    "root_digest": saved.root_digest,
                    "digest_size": 16,
                    "workers": 1,
                    "transitions": saved.transitions,
                    "elapsed_seconds": saved.elapsed_seconds,
                    "meta": {},
                }
            )
        )
        engine = ExplorationEngine(
            budget=Budget(), checkpoint_dir=tmp_path, resume=True
        )
        if layout == "frontier-reordered":
            with pytest.raises(CheckpointError, match="m..n-1"):
                engine.explore(view, root)
            return
        resumed = engine.explore(view, root)
        assert resumed.order == sequential_graph.order
        assert resumed.succ == sequential_graph.succ
        assert resumed.edges == sequential_graph.edges

    def test_resume_without_checkpoint_starts_fresh(
        self, instance, sequential_graph, tmp_path
    ):
        view, root = instance
        graph = ExplorationEngine(
            workers=1, budget=Budget(), checkpoint_dir=tmp_path, resume=True
        ).explore(view, root)
        assert list(graph.states) == list(sequential_graph.states)

    def test_periodic_checkpoints_written(self, instance, tmp_path):
        view, root = instance
        metrics = MetricsRegistry()
        ExplorationEngine(
            workers=1,
            budget=Budget(),
            checkpoint_dir=tmp_path,
            flush_interval=25,
            metrics=metrics,
        ).explore(view, root)
        counters = metrics.snapshot()["counters"]
        assert counters["engine.checkpoints_written"] >= 1
        # ... and still retired at the end.
        assert find_checkpoint(tmp_path, fingerprint(root)) is None

    def test_resume_metrics(self, instance, tmp_path):
        view, root = instance
        with pytest.raises(BudgetExhausted):
            ExplorationEngine(
                workers=1, budget=Budget(max_states=60), checkpoint_dir=tmp_path
            ).explore(view, root)
        metrics = MetricsRegistry()
        ExplorationEngine(
            workers=1,
            budget=Budget(),
            checkpoint_dir=tmp_path,
            resume=True,
            metrics=metrics,
        ).explore(view, root)
        assert metrics.snapshot()["counters"]["engine.resumes"] == 1


class TestMultiRootCheckpointDirectory:
    def test_only_the_interrupted_root_resumes(self, tmp_path):
        system = tob_delegation_system(2, resilience=0)
        view = DeterministicSystemView(system)
        root_a = system.initialization({0: 0, 1: 1}).final_state
        root_b = system.initialization({0: 1, 1: 0}).final_state
        with pytest.raises(BudgetExhausted):
            ExplorationEngine(
                workers=1, budget=Budget(max_states=40), checkpoint_dir=tmp_path
            ).explore(view, root_a)
        assert find_checkpoint(tmp_path, fingerprint(root_a)) is not None
        assert find_checkpoint(tmp_path, fingerprint(root_b)) is None
        # Exploring the other root in the same directory starts fresh and
        # does not disturb root_a's snapshot.
        ExplorationEngine(
            workers=1, budget=Budget(), checkpoint_dir=tmp_path, resume=True
        ).explore(view, root_b)
        assert find_checkpoint(tmp_path, fingerprint(root_a)) is not None
