"""API surface stability: every exported name exists and is importable.

Guards the public API: each subpackage's ``__all__`` must resolve, the
``repro.core`` alias must mirror ``repro.analysis``, and the headline
entry points must keep their signatures.
"""

import inspect

import pytest

import repro
import repro.analysis
import repro.core
import repro.engine
import repro.ioa
import repro.protocols
import repro.services
import repro.sim
import repro.system
import repro.types

SUBPACKAGES = [
    repro.ioa,
    repro.types,
    repro.services,
    repro.system,
    repro.analysis,
    repro.engine,
    repro.protocols,
    repro.sim,
]


class TestExports:
    @pytest.mark.parametrize(
        "module", SUBPACKAGES, ids=lambda m: m.__name__
    )
    def test_all_names_resolve(self, module):
        assert hasattr(module, "__all__") and module.__all__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name} missing"

    @pytest.mark.parametrize(
        "module", SUBPACKAGES, ids=lambda m: m.__name__
    )
    def test_all_is_sorted_and_unique(self, module):
        names = list(module.__all__)
        assert len(names) == len(set(names)), f"duplicates in {module.__name__}"

    def test_top_level_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name)
        assert repro.__version__

    def test_core_mirrors_analysis(self):
        for name in repro.analysis.__all__:
            assert getattr(repro.core, name) is getattr(repro.analysis, name)

    def test_top_level_surface_snapshot(self):
        """The stable top-level surface, snapshotted.

        Extending this list is an API addition (update the snapshot and
        docs/api.md together); removing or renaming a name is a breaking
        change.
        """
        assert sorted(repro.__all__) == [
            "Budget",
            "ExplorationEngine",
            "ReductionConfig",
            "RunLedger",
            "RunRecord",
            "StateStore",
            "StoreConfig",
            "__version__",
            "analysis",
            "analyze_valence",
            "core",
            "engine",
            "explore",
            "find_hook",
            "ioa",
            "obs",
            "protocols",
            "refute_candidate",
            "services",
            "sim",
            "system",
            "types",
        ]
        assert repro.explore is repro.analysis.explore
        assert repro.analyze_valence is repro.analysis.analyze_valence
        assert repro.refute_candidate is repro.analysis.refute_candidate
        assert repro.find_hook is repro.analysis.find_hook
        assert repro.Budget is repro.engine.Budget
        assert repro.ReductionConfig is repro.engine.ReductionConfig
        assert repro.ExplorationEngine is repro.engine.ExplorationEngine
        assert repro.StateStore is repro.engine.StateStore
        assert repro.StoreConfig is repro.engine.StoreConfig
        assert repro.RunLedger is repro.obs.RunLedger
        assert repro.RunRecord is repro.obs.RunRecord


class TestHeadlineSignatures:
    def test_refute_candidate_signature(self):
        parameters = inspect.signature(
            repro.analysis.refute_candidate
        ).parameters
        assert list(parameters) == [
            "system",
            "resilience",
            "horizon",
            "failure_aware_services",
            "tracer",
            "metrics",
            "engine",
            "reduction",
            "budget",
            "store",
        ]
        # Everything after ``resilience`` is keyword-only, so a stale
        # positional call from the max_states= era fails loudly.
        for name in list(parameters)[2:]:
            assert parameters[name].kind is inspect.Parameter.KEYWORD_ONLY

    @pytest.mark.parametrize(
        "entry_point",
        [
            "explore",
            "analyze_valence",
            "lemma4_bivalent_initialization",
            "find_hook",
            "refute_candidate",
            "liveness_attack",
            "bounded_undecided_run",
        ],
    )
    def test_budget_first_entry_points(self, entry_point):
        """Every analysis entry point takes keyword-only ``budget=``."""
        parameters = inspect.signature(
            getattr(repro.analysis, entry_point)
        ).parameters
        assert "budget" in parameters
        assert parameters["budget"].kind is inspect.Parameter.KEYWORD_ONLY
        assert parameters["budget"].default is None
        assert "max_states" not in parameters

    def test_exploration_engine_signature(self):
        """The complete engine option list, snapshotted.

        Adding an option is an API addition (update the snapshot and
        docs/api.md together); removing one is a breaking change.
        """
        parameters = inspect.signature(
            repro.engine.ExplorationEngine.__init__
        ).parameters
        assert list(parameters) == [
            "self",
            "workers",
            "budget",
            "store",
            "checkpoint_dir",
            "flush_interval",
            "resume",
            "rss_limit_mb",
            "tracer",
            "metrics",
            "progress",
            "cancel",
            "run",
        ]

    def test_worker_loss_surface(self):
        """A lost worker raises WorkerLost; no recovery knobs remain."""
        assert "WorkerLost" in repro.engine.__all__
        for removed in ("FaultPlan", "PartitionRetryExhausted", "StateQuarantined"):
            assert removed not in repro.engine.__all__
        parameters = inspect.signature(repro.engine.WorkerLost).parameters
        assert list(parameters) == [
            "worker",
            "round_index",
            "checkpoint",
            "resume_command",
        ]

    def test_store_config_fields(self):
        """The complete ``StoreConfig`` field list, snapshotted."""
        import dataclasses

        assert [
            field.name for field in dataclasses.fields(repro.engine.StoreConfig)
        ] == ["path", "flush_interval", "frontier_window"]
        assert not hasattr(repro.engine.store, "BACKENDS")
        assert "MemoryStore" not in repro.engine.__all__

    def test_run_consensus_round_signature(self):
        parameters = inspect.signature(
            repro.analysis.run_consensus_round
        ).parameters
        assert "proposals" in parameters
        assert "failure_schedule" in parameters
        assert "k" in parameters

    def test_liveness_attack_signature(self):
        parameters = inspect.signature(repro.analysis.liveness_attack).parameters
        assert "victims" in parameters
        assert "failure_aware_services" in parameters

    def test_canonical_service_constructors(self):
        for cls in (
            repro.services.CanonicalAtomicObject,
            repro.services.CanonicalFailureObliviousService,
            repro.services.CanonicalGeneralService,
        ):
            parameters = inspect.signature(cls.__init__).parameters
            assert "endpoints" in parameters
            assert "resilience" in parameters
            assert "service_id" in parameters


class TestDocstrings:
    @pytest.mark.parametrize(
        "module", SUBPACKAGES + [repro], ids=lambda m: m.__name__
    )
    def test_subpackages_documented(self, module):
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    def test_public_callables_documented(self):
        undocumented = []
        for module in SUBPACKAGES:
            for name in module.__all__:
                obj = getattr(module, name)
                if getattr(obj, "__module__", "") == "typing":
                    continue  # typing aliases (e.g. ResponseMap) carry no docstring
                if callable(obj) and not isinstance(obj, type):
                    if not (obj.__doc__ and obj.__doc__.strip()):
                        undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, undocumented

    def test_public_classes_documented(self):
        undocumented = []
        for module in SUBPACKAGES:
            for name in module.__all__:
                obj = getattr(module, name)
                if isinstance(obj, type):
                    if not (obj.__doc__ and obj.__doc__.strip()):
                        undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, undocumented
