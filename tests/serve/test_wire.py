"""Wire-schema tests: JobSpec validation and the error envelope."""

import pytest

from repro.engine import Budget
from repro.serve import CANDIDATES, JobSpec, WireError, error_document, package_version
from repro.serve.wire import DEFAULT_TENANT


class TestJobSpecFromJson:
    def test_minimal_document_gets_defaults(self):
        spec = JobSpec.from_json({"candidate": "last-writer"})
        assert spec.n == 3
        assert spec.resilience == 1
        assert spec.workers == 1
        assert spec.reduction == "none"
        assert spec.store is None
        assert spec.rss_limit_mb is None
        assert spec.proposals == ()
        assert spec.tenant == DEFAULT_TENANT

    def test_round_trip(self):
        spec = JobSpec.from_json(
            {
                "candidate": "tob",
                "n": 3,
                "f": 1,
                "budget": {"max_states": 10_000, "deadline_seconds": 2.5},
                "workers": 2,
                "reduction": "symmetry",
                "store": "sqlite",
                "rss_limit_mb": 512,
                "proposals": {"0": 1, "1": 0, "2": 0},
                "tenant": "alice",
            }
        )
        assert spec.store == "sqlite"
        assert spec.rss_limit_mb == 512
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_resilience_alias(self):
        assert JobSpec.from_json({"candidate": "tob", "resilience": 2}).resilience == 2

    def test_f_and_resilience_together_rejected(self):
        with pytest.raises(WireError, match="not both"):
            JobSpec.from_json({"candidate": "tob", "f": 1, "resilience": 1})

    def test_non_object_rejected(self):
        with pytest.raises(WireError, match="JSON object"):
            JobSpec.from_json([1, 2, 3])

    def test_unknown_field_rejected(self):
        with pytest.raises(WireError, match="unknown field"):
            JobSpec.from_json({"candidate": "tob", "bananas": 1})

    def test_unknown_candidate_rejected(self):
        with pytest.raises(WireError, match="candidate"):
            JobSpec.from_json({"candidate": "nonsense"})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(WireError, match="n must be an integer"):
            JobSpec.from_json({"candidate": "tob", "n": True})

    def test_bad_budget_wrapped(self):
        with pytest.raises(WireError, match="bad budget"):
            JobSpec.from_json({"candidate": "tob", "budget": {"max_states": "lots"}})

    def test_store_accepts_backend_names_only(self):
        spec = JobSpec.from_json({"candidate": "tob", "store": "sqlite"})
        assert spec.store == "sqlite"

    def test_store_rejects_removed_mmap_backend(self):
        with pytest.raises(WireError, match="one of sqlite"):
            JobSpec.from_json({"candidate": "tob", "store": "mmap"})

    def test_store_rejects_removed_memory_backend(self):
        with pytest.raises(WireError, match="one of sqlite"):
            JobSpec.from_json({"candidate": "tob", "store": "memory"})

    def test_engine_workers_clamp(self):
        """``workers`` is clamped to the server's cap, and to 1 without a
        store: the worker pool runs on a store."""
        spec = JobSpec.from_json({"candidate": "tob", "workers": 4})
        assert spec.engine_workers(2) == 1
        spec = JobSpec.from_json({"candidate": "tob", "workers": 4, "store": "sqlite"})
        assert spec.engine_workers(2) == 2
        assert spec.engine_workers(8) == 4

    def test_store_rejects_paths(self):
        # A path-carrying URI would let a client choose server filesystem
        # locations; only bare backend names cross the wire.
        for bad in ("sqlite:/etc/passwd", "sqlite:/tmp/x", "redis", "", 7):
            with pytest.raises(WireError, match="store must be one of"):
                JobSpec.from_json({"candidate": "tob", "store": bad})

    def test_rss_limit_must_be_a_positive_integer(self):
        assert (
            JobSpec.from_json(
                {"candidate": "tob", "rss_limit_mb": 256}
            ).rss_limit_mb
            == 256
        )
        for bad in (0, -5, True, "big"):
            with pytest.raises(WireError, match="rss_limit_mb"):
                JobSpec.from_json({"candidate": "tob", "rss_limit_mb": bad})

    def test_bad_reduction_rejected(self):
        with pytest.raises(WireError, match="reduction"):
            JobSpec.from_json({"candidate": "tob", "reduction": "telepathy"})

    def test_proposals_keys_coerced_to_int(self):
        spec = JobSpec.from_json(
            {"candidate": "tob", "proposals": {"1": 0, "0": 1}}
        )
        assert spec.proposals == ((0, 1), (1, 0))

    def test_non_integer_proposal_endpoint_rejected(self):
        with pytest.raises(WireError, match="integers"):
            JobSpec.from_json({"candidate": "tob", "proposals": {"p0": 1}})

    def test_tenant_header_default(self):
        spec = JobSpec.from_json({"candidate": "tob"}, default_tenant="carol")
        assert spec.tenant == "carol"
        explicit = JobSpec.from_json(
            {"candidate": "tob", "tenant": "dave"}, default_tenant="carol"
        )
        assert explicit.tenant == "dave"

    def test_overlong_tenant_rejected(self):
        with pytest.raises(WireError, match="tenant"):
            JobSpec.from_json({"candidate": "tob", "tenant": "x" * 129})


class TestCost:
    def test_cost_is_kilostates(self):
        spec = JobSpec.from_json(
            {"candidate": "tob", "budget": {"max_states": 5_500}}
        )
        assert spec.cost == 6

    def test_unlimited_budget_costs_a_lot(self):
        spec = JobSpec.from_json({"candidate": "tob", "budget": {}})
        assert spec.cost == 1_000

    def test_tiny_budget_costs_at_least_one(self):
        spec = JobSpec.from_json({"candidate": "tob", "budget": {"max_states": 1}})
        assert spec.cost == 1


class TestErrorDocument:
    def test_carries_version_and_status(self):
        document = error_document(429, "overloaded", "queue full", retry_after=3.0)
        assert document["status"] == 429
        assert document["error"] == "overloaded"
        assert document["retry_after"] == 3.0
        assert document["version"] == package_version()

    def test_package_version_is_a_version_string(self):
        version = package_version()
        assert version and version[0].isdigit()


class TestRegistry:
    def test_candidates_cover_the_paper(self):
        assert set(CANDIDATES) == {
            "delegation",
            "tob",
            "last-writer",
            "arbiter",
            "exchange",
            "arbiter-lossy",
            "exchange-lossy",
        }

    def test_every_candidate_builds_and_round_trips(self):
        """Registry entries build; JobSpec round-trips through JSON."""
        from repro.serve import build_system

        for name in CANDIDATES:
            system = build_system(name, 3, 0)
            assert system.process_ids
            spec = JobSpec.from_json({"candidate": name, "n": 3, "f": 0})
            back = JobSpec.from_json(spec.to_json())
            assert back.candidate == name
            assert back == spec

    def test_lossy_candidates_carry_fault_tasks(self):
        from repro.serve import build_system

        benign = build_system("exchange", 2, 0)
        lossy = build_system("exchange-lossy", 2, 0)
        benign_tasks = {task for a in benign.components for task in a.tasks()}
        lossy_tasks = {task for a in lossy.components for task in a.tasks()}
        extra = lossy_tasks - benign_tasks
        assert extra and all(task.name[0] == "fault" for task in extra)

    def test_register_candidate_rejects_bad_names(self):
        from repro.serve import register_candidate

        with pytest.raises(WireError):
            register_candidate("", "blurb", lambda n, f: None)

    def test_registered_candidate_is_buildable_and_replaceable(self):
        from repro.serve import build_system, register_candidate
        from repro.serve.wire import _BUILDERS

        sentinel = object()
        original_blurb = dict(CANDIDATES)
        original_builders = dict(_BUILDERS)
        try:
            register_candidate("zzz-test", "a test entry", lambda n, f: sentinel)
            assert build_system("zzz-test", 1, 0) is sentinel
            assert "zzz-test" in CANDIDATES
            replacement = object()
            register_candidate("zzz-test", "shadowed", lambda n, f: replacement)
            assert build_system("zzz-test", 1, 0) is replacement
            assert CANDIDATES["zzz-test"] == "shadowed"
        finally:
            CANDIDATES.clear()
            CANDIDATES.update(original_blurb)
            _BUILDERS.clear()
            _BUILDERS.update(original_builders)
