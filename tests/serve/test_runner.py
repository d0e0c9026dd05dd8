"""Runner tests: outcomes, cancellation, and checkpoint resume.

These drive :func:`repro.serve.runner.execute_job` directly (no HTTP, no
event loop) — the fleet calls it exactly this way from a worker thread.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.obs.ledger import RunLedger
from repro.serve import (
    CANCELLED,
    COMPLETED,
    EXHAUSTED,
    FAILED,
    Job,
    JobSpec,
    execute_job,
    job_checkpoint_dir,
    job_key,
    job_store_dir,
)


def make_job(document, job_id="job-test", resume=False):
    spec = JobSpec.from_json(document)
    return Job(job_id, spec, job_key(spec), resume=resume)


def run(job, data_dir=None, metrics=None, **options):
    events = []
    return (
        execute_job(
            job,
            data_dir=data_dir,
            publish=events.append,
            metrics=metrics if metrics is not None else MetricsRegistry(),
            **options,
        ),
        events,
    )


class TestOutcomes:
    def test_fast_candidate_completes_with_a_refutation(self):
        job = make_job({"candidate": "delegation", "n": 2, "f": 0})
        outcome, _ = run(job)
        assert outcome.state == COMPLETED
        assert outcome.verdict["refuted"] is True
        assert outcome.engine_report is not None

    def test_progress_events_flow_through(self, tmp_path):
        job = make_job({"candidate": "delegation", "n": 2, "f": 0})
        ledger = RunLedger(tmp_path)
        handle = ledger.open("serve", "delegation(n=2,f=0)")
        _, events = run(job, run=handle)
        # The reporter throttles, so a short run may publish few events,
        # but every published one carries the heartbeat's live fields.
        heartbeat = ledger.read_heartbeat(handle.run_id)
        live = set(heartbeat) - {"run", "t", "pid", "interval", "states_per_sec"}
        assert live >= {"states", "frontier", "workers", "elapsed", "transitions"}
        assert live >= {"rounds", "phases"}
        assert events
        for event in events:
            assert event["kind"] == "progress"
            assert set(event) - {"kind"} == live

    def test_exhausted_budget_is_a_state_not_an_exception(self):
        job = make_job(
            {"candidate": "delegation", "budget": {"max_states": 50}}
        )
        outcome, _ = run(job)
        assert outcome.state == EXHAUSTED
        assert outcome.verdict is None
        assert outcome.error["error"] == "budget_exhausted"
        assert "version" in outcome.error

    def test_preset_cancel_event_yields_cancelled(self):
        job = make_job({"candidate": "delegation", "n": 3, "f": 1})
        job.cancel_event.set()
        outcome, _ = run(job)
        assert outcome.state == CANCELLED
        assert outcome.error["error"] == "cancelled"
        assert outcome.error["status"] == 499

    def test_pipeline_exception_yields_failed(self, monkeypatch):
        import repro.analysis

        def boom(*args, **kwargs):
            raise RuntimeError("the pipeline broke")

        monkeypatch.setattr(repro.analysis, "refute_candidate", boom)
        job = make_job({"candidate": "last-writer"})
        outcome, _ = run(job)
        assert outcome.state == FAILED
        assert "the pipeline broke" in outcome.error["detail"]
        assert "traceback" in outcome.error


class TestCheckpointResume:
    def test_exhausted_run_resumes_and_completes(self, tmp_path):
        document = {"candidate": "delegation", "n": 2, "f": 0}
        starved = make_job({**document, "budget": {"max_states": 20}})
        outcome, _ = run(starved, data_dir=tmp_path)
        assert outcome.state == EXHAUSTED
        checkpoints = job_checkpoint_dir(tmp_path, starved.key)
        assert checkpoints.is_dir() and any(checkpoints.iterdir())

        metrics = MetricsRegistry()
        retry = make_job(document, job_id="job-retry", resume=True)
        assert retry.key == starved.key  # budget is not part of the key
        outcome, _ = run(retry, data_dir=tmp_path, metrics=metrics)
        assert outcome.state == COMPLETED
        assert outcome.verdict["refuted"] is True
        assert metrics.snapshot()["counters"].get("engine.resumes", 0) >= 1
        # Terminal success cleans the checkpoint directory up.
        assert not checkpoints.exists()

    def test_no_data_dir_means_no_checkpoints(self, tmp_path):
        job = make_job({"candidate": "delegation", "n": 2, "f": 0})
        outcome, _ = run(job, data_dir=None)
        assert outcome.state == COMPLETED
        assert not any(tmp_path.iterdir())


class TestWorkerLoss:
    def test_lost_worker_fails_the_job_and_resubmitting_resumes(
        self, tmp_path, poison
    ):
        """The engine is fail-stop: a lost worker ends the job FAILED,
        its checkpoint stays, and running the job again resumes it."""
        from repro.analysis import DeterministicSystemView
        from repro.engine import fork_available

        if not fork_available():
            pytest.skip("killing a worker needs forked workers")
        document = {
            "candidate": "delegation",
            "n": 3,
            "f": 1,
            "workers": 2,
            "store": "sqlite",
        }
        clean, _ = run(make_job(document), max_engine_workers=2)
        assert clean.state == COMPLETED

        job = make_job(document)
        system = job.spec.build()
        # The Lemma 4 chain explores the all-zero initialization first.
        root = system.initialization({0: 0, 1: 0, 2: 0}).final_state
        poison.round_two(DeterministicSystemView(system), root)
        outcome, _ = run(job, data_dir=tmp_path, max_engine_workers=2)
        assert outcome.state == FAILED
        assert outcome.error["error"] == "job_failed"
        assert "WorkerLost: worker 0 lost in round 2" in outcome.error["detail"]
        checkpoints = job_checkpoint_dir(tmp_path, job.key, "sqlite")
        assert checkpoints.is_dir() and any(checkpoints.iterdir())

        poison.digests.clear()
        metrics = MetricsRegistry()
        retry = make_job(document, job_id="job-retry", resume=True)
        outcome, _ = run(
            retry, data_dir=tmp_path, metrics=metrics, max_engine_workers=2
        )
        assert outcome.state == COMPLETED
        assert outcome.verdict == clean.verdict
        assert metrics.snapshot()["counters"].get("engine.resumes", 0) >= 1
        assert not checkpoints.exists()


class TestWorkersClamp:
    def test_pool_only_with_a_store(self):
        """With a cap of 2, a ``workers: 2`` job runs at one worker
        without a store and at two with one; the verdict is the same."""
        document = {"candidate": "delegation", "n": 3, "f": 1, "workers": 2}
        plain, _ = run(make_job(document), max_engine_workers=2)
        stored, _ = run(
            make_job({**document, "store": "sqlite"}), max_engine_workers=2
        )
        assert plain.state == stored.state == COMPLETED
        assert plain.engine_report["workers"] == 1
        assert plain.engine_report["store_backend"] == "memory"
        assert stored.engine_report["workers"] == 2
        assert stored.engine_report["store_backend"] == "sqlite"
        assert plain.verdict == stored.verdict


class TestStoreJobs:
    def test_store_backed_job_completes(self, tmp_path):
        job = make_job({"candidate": "delegation", "n": 3, "f": 1, "store": "sqlite"})
        outcome, _ = run(job, data_dir=tmp_path)
        assert outcome.state == COMPLETED
        assert outcome.verdict["refuted"] is True
        assert outcome.engine_report["store_backend"] == "sqlite"
        # Terminal success cleans the per-key store directory up.
        assert not job_store_dir(tmp_path, job.key).exists()

    def test_store_backed_job_without_data_dir_uses_scratch(self, tmp_path):
        job = make_job({"candidate": "delegation", "n": 3, "f": 1, "store": "sqlite"})
        outcome, _ = run(job, data_dir=None)
        assert outcome.state == COMPLETED
        assert outcome.engine_report["store_backend"] == "sqlite"
        assert not any(tmp_path.iterdir())

    def test_exhausted_store_job_resumes_from_segments(self, tmp_path):
        document = {"candidate": "delegation", "n": 3, "f": 1, "store": "sqlite"}
        starved = make_job({**document, "budget": {"max_states": 60}})
        outcome, _ = run(starved, data_dir=tmp_path)
        assert outcome.state == EXHAUSTED
        # The store directory survives a non-terminal outcome for resume.
        store_dir = job_store_dir(tmp_path, starved.key)
        assert store_dir.is_dir() and any(store_dir.iterdir())

        retry = make_job(document, job_id="job-retry", resume=True)
        outcome, _ = run(retry, data_dir=tmp_path)
        assert outcome.state == COMPLETED
        assert outcome.verdict["refuted"] is True
        assert not store_dir.exists()

    @pytest.mark.parametrize("starved_store", ["sqlite", None])
    def test_resubmission_under_the_other_store_mode_starts_fresh(
        self, tmp_path, starved_store
    ):
        """The cache key ignores ``store``, so an exhausted job can come
        back under the other mode; it finds no checkpoint of its own
        and completes with the uninterrupted verdict."""
        document = {"candidate": "delegation", "n": 3, "f": 1}
        clean, _ = run(make_job(document))
        starved_document = {**document, "budget": {"max_states": 60}}
        retry_document = dict(document)
        if starved_store is None:
            retry_document["store"] = "sqlite"
        else:
            starved_document["store"] = starved_store
        starved = make_job(starved_document)
        outcome, _ = run(starved, data_dir=tmp_path)
        assert outcome.state == EXHAUSTED
        starved_checkpoints = job_checkpoint_dir(tmp_path, starved.key, starved_store)
        assert any(starved_checkpoints.iterdir())

        retry = make_job(retry_document, job_id="job-retry", resume=True)
        assert retry.key == starved.key
        metrics = MetricsRegistry()
        outcome, _ = run(retry, data_dir=tmp_path, metrics=metrics)
        assert outcome.state == COMPLETED
        assert outcome.verdict == clean.verdict
        assert metrics.snapshot()["counters"].get("engine.resumes", 0) == 0
        # The terminal verdict retires both modes' checkpoints and the store.
        assert not job_checkpoint_dir(tmp_path, retry.key, retry.spec.store).exists()
        assert not starved_checkpoints.exists()
        assert not job_store_dir(tmp_path, retry.key).exists()

    def test_rss_limit_is_clamped_and_reported(self, tmp_path):
        job = make_job(
            {"candidate": "delegation", "n": 3, "f": 1, "rss_limit_mb": 4096}
        )
        events = []
        outcome = execute_job(
            job,
            data_dir=None,
            publish=events.append,
            metrics=MetricsRegistry(),
            max_rss_limit_mb=1024,
        )
        assert outcome.state == COMPLETED
        assert outcome.engine_report["rss_limit_mb"] == 1024
        assert outcome.engine_report["peak_rss_kb"] > 0
