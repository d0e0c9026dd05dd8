"""End-to-end HTTP tests against a real server on an ephemeral port.

The issue's acceptance criteria live here: the HTTP verdict matches the
CLI's ``--json`` verdict byte for byte, an identical resubmission is
served from cache (observable via ``serve.cache.hits`` and the absence
of new ``engine.run`` spans), and over-admission yields 429 with
``Retry-After``.
"""

import json

from repro.__main__ import main
from repro.obs import MetricsRegistry, RingBufferSink, Tracer
from repro.serve import package_version

from .conftest import FAST_SPEC


def engine_run_spans(sink):
    return [
        event
        for event in sink.events()
        if event.kind == "span_start" and event.data.get("name") == "engine.run"
    ]


class TestHealthz:
    def test_reports_version_and_shape(self, serve_factory):
        _, client = serve_factory(fleet=0)
        status, _, document = client.get("/healthz")
        assert status == 200
        assert document["status"] == "ok"
        assert document["version"] == package_version()
        assert document["fleet"] == 0
        assert "cache" in document and "watermarks" in document


class TestVerdicts:
    def test_http_verdict_matches_the_cli(self, serve_factory, capsys):
        assert main(
            ["refute", "delegation", "-n", "2", "-f", "0", "--json"]
        ) == 0
        cli_verdict = json.loads(capsys.readouterr().out)["verdict"]

        _, client = serve_factory(fleet=1)
        status, headers, submitted = client.submit(FAST_SPEC)
        assert status == 202
        assert headers["Location"] == f"/jobs/{submitted['id']}"
        document = client.poll(submitted["id"])
        assert document["state"] == "completed"
        assert document["verdict"] == cli_verdict
        assert document["engine"] is not None
        assert document["wall_seconds"] > 0

    def test_exhausted_budget_surfaces_as_a_state(self, serve_factory):
        _, client = serve_factory(fleet=1)
        starved = {**FAST_SPEC, "budget": {"max_states": 20}}
        _, _, submitted = client.submit(starved)
        document = client.poll(submitted["id"])
        assert document["state"] == "exhausted"
        assert document["error"]["error"] == "budget_exhausted"
        assert document["verdict"] is None


class TestCaching:
    def test_identical_resubmission_is_served_from_cache(self, serve_factory):
        sink = RingBufferSink()
        metrics = MetricsRegistry()
        handle, client = serve_factory(
            fleet=1, tracer=Tracer(sink), metrics=metrics
        )
        _, _, submitted = client.submit(FAST_SPEC, tenant="alice")
        client.poll(submitted["id"])
        runs_before = len(engine_run_spans(sink))
        assert runs_before > 0

        status, headers, document = client.submit(FAST_SPEC, tenant="bob")
        assert status == 200
        assert document["cached"] is True
        assert document["verdict"]["refuted"] is True
        assert headers["X-Repro-Cache"] == "hit"
        # Serving from cache ran no exploration at all.
        assert len(engine_run_spans(sink)) == runs_before
        assert metrics.snapshot()["counters"]["serve.cache.hits"] == 1

    def test_symmetry_equivalent_submission_hits_the_same_entry(
        self, serve_factory
    ):
        _, client = serve_factory(fleet=1)
        _, _, submitted = client.submit(
            {**FAST_SPEC, "proposals": {"0": 0, "1": 1}}
        )
        client.poll(submitted["id"])
        # The mirror-image proposal assignment is the same question.
        status, _, document = client.submit(
            {**FAST_SPEC, "proposals": {"0": 1, "1": 0}}
        )
        assert status == 200
        assert document["cached"] is True

    def test_larger_budget_request_misses_a_smaller_budget_entry(
        self, serve_factory
    ):
        _, client = serve_factory(fleet=1)
        _, _, submitted = client.submit(FAST_SPEC)
        client.poll(submitted["id"])
        status, _, document = client.submit(
            {**FAST_SPEC, "budget": {"max_states": 2_000_000}}
        )
        assert status == 202  # a fresh job, not a cache answer
        assert "cached" not in document or document["cached"] is False


class TestCoalescing:
    def test_identical_inflight_submission_coalesces(self, serve_factory):
        _, client = serve_factory(fleet=0)  # accept-only: job stays queued
        _, _, first = client.submit(FAST_SPEC)
        status, headers, second = client.submit(FAST_SPEC)
        assert status == 202
        assert second["coalesced"] is True
        assert second["id"] == first["id"]
        assert headers["Location"] == f"/jobs/{first['id']}"


class TestAdmission:
    def test_queue_watermark_sheds_with_retry_after(self, serve_factory):
        _, client = serve_factory(fleet=0, max_queue_depth=2)
        for n in (2, 3):  # distinct keys so nothing coalesces
            status, _, _ = client.submit({"candidate": "delegation", "n": n})
            assert status == 202
        status, headers, document = client.submit(
            {"candidate": "delegation", "n": 4}
        )
        assert status == 429
        assert document["error"] == "overloaded"
        assert document["detail"] == "queue_full"
        assert float(headers["Retry-After"]) >= 1.0
        assert document["version"] == package_version()

    def test_tenant_token_bucket_limits_submission_rate(self, serve_factory):
        _, client = serve_factory(
            fleet=0,
            max_queue_depth=100,
            max_tenant_depth=100,
            tenant_rate=0.001,
            tenant_burst=2,
        )
        for n in (2, 3):
            status, _, _ = client.submit(
                {"candidate": "delegation", "n": n}, tenant="greedy"
            )
            assert status == 202
        status, headers, document = client.submit(
            {"candidate": "delegation", "n": 4}, tenant="greedy"
        )
        assert status == 429
        assert document["error"] == "rate_limited"
        assert "Retry-After" in headers
        # A different tenant is unaffected.
        status, _, _ = client.submit(
            {"candidate": "delegation", "n": 4}, tenant="patient"
        )
        assert status == 202


class TestCancellation:
    def test_cancel_while_queued(self, serve_factory):
        _, client = serve_factory(fleet=0)
        _, _, submitted = client.submit(FAST_SPEC)
        status, _, document = client.request("DELETE", f"/jobs/{submitted['id']}")
        assert status == 202
        assert document["state"] == "cancelled"
        assert document["error"]["error"] == "cancelled"
        # Cancelling again is idempotent.
        status, _, document = client.request("DELETE", f"/jobs/{submitted['id']}")
        assert status == 200
        assert document["state"] == "cancelled"


class TestEvents:
    def test_stream_ends_with_the_terminal_state(self, serve_factory):
        _, client = serve_factory(fleet=1)
        _, _, submitted = client.submit(FAST_SPEC)
        client.poll(submitted["id"])
        status, _, body = client.get(f"/jobs/{submitted['id']}/events")
        assert status == 200
        frames = [
            json.loads(line[len("data: "):])
            for line in body.splitlines()
            if line.startswith("data: ")
        ]
        assert frames[0] == {
            "kind": "state",
            "state": "queued",
            "t": frames[0]["t"],
            "job": submitted["id"],
        }
        assert frames[-1]["state"] == "completed"
        assert all(frame["job"] == submitted["id"] for frame in frames)


class TestErrors:
    def test_malformed_json_is_a_400_with_version(self, serve_factory):
        _, client = serve_factory(fleet=0)
        status, _, document = client.request(
            "POST", "/jobs", body="not json"
        )
        assert status == 400
        assert document["error"] == "bad_request"
        assert document["version"] == package_version()

    def test_unknown_candidate_is_a_400(self, serve_factory):
        _, client = serve_factory(fleet=0)
        status, _, document = client.submit({"candidate": "nonsense"})
        assert status == 400
        assert "candidate" in document["detail"]

    def test_removed_memory_store_is_a_400(self, serve_factory):
        _, client = serve_factory(fleet=0)
        status, _, document = client.submit({**FAST_SPEC, "store": "memory"})
        assert status == 400
        assert "store must be one of sqlite" in document["detail"]

    def test_unknown_job_is_a_404(self, serve_factory):
        _, client = serve_factory(fleet=0)
        status, _, document = client.get("/jobs/job-999999-ffffff")
        assert status == 404
        assert document["error"] == "unknown_job"
        assert document["version"] == package_version()

    def test_unknown_route_is_a_404(self, serve_factory):
        _, client = serve_factory(fleet=0)
        status, _, document = client.get("/nope")
        assert status == 404

    def test_wrong_method_is_a_405(self, serve_factory):
        _, client = serve_factory(fleet=0)
        status, _, document = client.request("DELETE", "/jobs")
        assert status == 405


class TestMetricsEndpoint:
    def test_prometheus_text_with_tenant_labels(self, serve_factory):
        _, client = serve_factory(fleet=0)
        client.submit(FAST_SPEC, tenant="alice")
        status, headers, text = client.get("/metrics")
        assert status == 200
        assert "text/plain" in headers["Content-Type"]
        assert 'repro_serve_admitted_total{tenant="alice"} 1' in text
        assert "repro_serve_queue_depth 1" in text
        assert "# TYPE repro_serve_jobs_submitted_total counter" in text


class TestJobListing:
    def test_lists_submitted_jobs(self, serve_factory):
        _, client = serve_factory(fleet=0)
        _, _, submitted = client.submit(FAST_SPEC, tenant="alice")
        status, _, document = client.get("/jobs")
        assert status == 200
        assert document["jobs"] == [
            {
                "id": submitted["id"],
                "state": "queued",
                "tenant": "alice",
                "candidate": "delegation",
            }
        ]


class TestRunLedger:
    def test_job_registers_a_linked_run(self, serve_factory, tmp_path):
        from repro.obs import RunLedger

        runs_dir = tmp_path / "runs"
        _, client = serve_factory(fleet=1, runs_dir=str(runs_dir))
        _, _, submitted = client.submit(FAST_SPEC, tenant="alice")
        document = client.poll(submitted["id"])
        assert document["state"] == "completed"
        assert document["run_id"].startswith("serve-")

        ledger = RunLedger(runs_dir)
        record = ledger.find(document["run_id"])
        assert record.kind == "serve"
        assert record.status == "completed"
        assert record.links["job_id"] == submitted["id"]
        assert record.links["tenant"] == "alice"
        assert record.verdict is not None

    def test_checkpoint_artifact_names_the_store_mode_directory(
        self, serve_factory, tmp_path
    ):
        from repro.obs import RunLedger
        from repro.serve import job_checkpoint_dir

        data_dir = tmp_path / "data"
        _, client = serve_factory(fleet=1, data_dir=str(data_dir))
        _, _, submitted = client.submit({**FAST_SPEC, "store": "sqlite"})
        document = client.poll(submitted["id"])
        assert document["state"] == "completed"
        record = RunLedger(data_dir / "runs").find(document["run_id"])
        key = bytes.fromhex(record.links["key"])
        assert record.artifacts["checkpoint_dir"] == str(
            job_checkpoint_dir(data_dir, key, "sqlite")
        )

    def test_no_data_dir_and_no_runs_dir_disables_the_ledger(
        self, serve_factory
    ):
        _, client = serve_factory(fleet=1)
        _, _, submitted = client.submit(FAST_SPEC)
        document = client.poll(submitted["id"])
        assert document["state"] == "completed"
        assert document["run_id"] is None

    def test_runs_dir_off_spelling_disables_even_with_data_dir(
        self, serve_factory, tmp_path
    ):
        _, client = serve_factory(
            fleet=1, data_dir=str(tmp_path / "data"), runs_dir="off"
        )
        _, _, submitted = client.submit(FAST_SPEC)
        document = client.poll(submitted["id"])
        assert document["run_id"] is None
        assert not (tmp_path / "data" / "runs").exists()
