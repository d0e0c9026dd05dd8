"""Restart tests: journal recovery, checkpoint resume, cache persistence.

The flow mirrors the issue's acceptance criterion without kill-timing
flakiness: a ``fleet=0`` server accepts (and journals) a job it can
never run, stops, and a second server on the same data dir must pick
the job up — same id — and complete it.  A third server then answers
the identical resubmission from the persisted verdict cache.
"""

import json

from .conftest import FAST_SPEC


class TestRestartRecovery:
    def test_inflight_job_survives_restart_and_cache_persists(
        self, serve_factory, tmp_path
    ):
        # Server 1 accepts the job but has no fleet: the job is journaled
        # as submitted and still queued when the server goes down.
        handle1, client1 = serve_factory(fleet=0, data_dir=tmp_path)
        _, _, submitted = client1.submit(FAST_SPEC, tenant="alice")
        job_id = submitted["id"]
        handle1.stop()
        assert (tmp_path / "jobs.jsonl").exists()

        # Server 2 on the same data dir recovers the job under its
        # original id and runs it to completion.
        handle2, client2 = serve_factory(fleet=1, data_dir=tmp_path)
        status, _, recovered = client2.get(f"/jobs/{job_id}")
        assert status == 200, recovered
        assert recovered["resumed"] is True
        document = client2.poll(job_id)
        assert document["state"] == "completed"
        assert document["verdict"]["refuted"] is True
        assert handle2.server.metrics.snapshot()["counters"][
            "serve.jobs.recovered"
        ] == 1
        handle2.stop()

        # Server 3 has never run anything, yet answers the identical
        # submission from the persisted cache.
        handle3, client3 = serve_factory(fleet=0, data_dir=tmp_path)
        status, headers, answer = client3.submit(FAST_SPEC, tenant="bob")
        assert status == 200
        assert answer["cached"] is True
        assert answer["verdict"] == document["verdict"]
        assert headers["X-Repro-Cache"] == "hit"

    def test_journaled_memory_store_job_is_dropped(self, serve_factory, tmp_path):
        """A job journaled with the removed ``memory`` store no longer
        validates, so a restarted server drops it instead of running it;
        a valid job journaled beside it still recovers."""
        handle1, client1 = serve_factory(fleet=0, data_dir=tmp_path)
        _, _, submitted = client1.submit(FAST_SPEC)
        handle1.stop()
        journal = tmp_path / "jobs.jsonl"
        (kept,) = [json.loads(line) for line in journal.read_text().splitlines()]
        stale = {
            **kept,
            "id": "job-000099-abcdef",
            "spec": {**kept["spec"], "store": "memory"},
        }
        with open(journal, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(stale, sort_keys=True) + "\n")

        handle2, client2 = serve_factory(fleet=0, data_dir=tmp_path)
        status, _, _ = client2.get(f"/jobs/{stale['id']}")
        assert status == 404
        status, _, recovered = client2.get(f"/jobs/{submitted['id']}")
        assert status == 200 and recovered["resumed"] is True
        assert handle2.server.metrics.snapshot()["counters"][
            "serve.jobs.recovered"
        ] == 1

    def test_done_jobs_are_not_recovered(self, serve_factory, tmp_path):
        handle1, client1 = serve_factory(fleet=1, data_dir=tmp_path)
        _, _, submitted = client1.submit(FAST_SPEC)
        client1.poll(submitted["id"])
        handle1.stop()

        handle2, client2 = serve_factory(fleet=0, data_dir=tmp_path)
        status, _, _ = client2.get(f"/jobs/{submitted['id']}")
        assert status == 404  # finished: journaled done, not recreated
        _, _, health = client2.get("/healthz")
        assert health["jobs"] == {}
