"""Job execution: the bridge from a queued job to the analysis pipeline.

:func:`execute_job` runs synchronously inside a fleet worker thread and
reuses the repo's machinery end to end rather than duplicating any of
it: the candidate is built from the registry, the exploration runs
through :class:`~repro.engine.ExplorationEngine` (worker pool and
checkpoint/resume included), progress flows through the
:class:`~repro.obs.progress.ProgressReporter` plumbing via
:class:`JobProgressReporter`, and the verdict comes from
:func:`repro.analysis.refute_candidate` — byte-for-byte the JSON the
CLI's ``refute --json`` path emits.

Checkpoints land in a per-cache-key directory under the server's data
dir.  The engine names checkpoint files by each exploration's root
digest, so re-running the job with ``resume=True`` (a restarted server,
or a resubmission) continues the interrupted stage instead of starting
over; the directory is removed once the job reaches a terminal verdict.
A job whose engine loses a pool worker ends ``failed`` (the engine is
fail-stop and raises :class:`~repro.engine.WorkerLost`), and keeps its
checkpoint, so resubmitting it resumes where the loss stopped it.

Jobs requesting a disk-backed state store (``"store": "sqlite"`` in
the spec — a backend name only, never a client path) get a
per-cache-key store directory next to the checkpoints; it is likewise
removed at a terminal verdict, and a restarted server resumes from the
store's delta segments.  Only such a job runs the worker pool: without
a store a job runs the in-RAM loop at one worker, whatever its
``workers``.  A spec's ``rss_limit_mb`` is clamped to the
server's ``max_rss_limit_mb`` and recorded in the engine report — the
server does *not* setrlimit (jobs share the server process); enforcement
is the operator's, via ``repro refute --rss-limit-mb`` or the service
manager.
"""

from __future__ import annotations

import shutil
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..analysis.explorer import ExplorationBudget
from ..engine import ExplorationEngine, ReductionConfig, StoreConfig
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from ..obs.progress import ProgressReporter
from ..obs.sinks import NULL_TRACER, Tracer
from .jobs import CANCELLED, COMPLETED, EXHAUSTED, FAILED, Job
from .wire import error_document


class JobProgressReporter(ProgressReporter):
    """Progress reporting into a job's event stream instead of stderr.

    The engine drives this exactly like the TTY reporter, with the same
    throttle; instead of rendering a line it publishes the engine's live
    snapshot (:meth:`~repro.engine.EngineReport.live`: the heartbeat's
    fields) as a ``"progress"`` event through the supplied callback,
    which the fleet routes onto the job's event buffer for
    ``GET /jobs/{id}/events`` streaming.
    """

    def __init__(self, publish: Callable[[dict], None], interval_seconds: float = 0.2) -> None:
        super().__init__(interval_seconds=interval_seconds)
        self._publish = publish

    def render(self, snapshot: dict, budget=None) -> None:
        self._publish({"kind": "progress", **snapshot})


@dataclass
class JobOutcome:
    """What a worker thread hands back to the fleet."""

    state: str
    verdict: dict | None = None
    error: dict | None = None
    engine_report: dict | None = None


def job_checkpoint_dir(data_dir: str | Path, key: bytes) -> Path:
    """Where a job's engine checkpoints live (per cache key)."""
    return Path(data_dir) / "checkpoints" / key.hex()


def job_store_dir(data_dir: str | Path, key: bytes) -> Path:
    """Where a job's disk-backed state store lives (per cache key)."""
    return Path(data_dir) / "stores" / key.hex()


def _job_store(spec, data_dir, key: bytes, flush_interval: int):
    """The engine ``store=`` argument for a job, or ``None``.

    The spec only names the backend (:data:`~.wire.STORES` members); the
    path is always server-chosen.  Without a data dir the store gets
    ``path=None`` — a scratch directory the store deletes on close — so
    disk-bounded RSS still works, just without resume.
    """
    if spec.store is None:
        return None
    return StoreConfig(
        path=None if data_dir is None else job_store_dir(data_dir, key),
        flush_interval=flush_interval,
    )


def execute_job(
    job: Job,
    *,
    data_dir: str | Path | None,
    publish: Callable[[dict], None],
    metrics: MetricsRegistry = NULL_METRICS,
    tracer: Tracer = NULL_TRACER,
    max_engine_workers: int = 1,
    checkpoint_interval: int = 50_000,
    max_rss_limit_mb: int | None = None,
    run=None,
) -> JobOutcome:
    """Run one job to a terminal outcome (worker-thread entry point).

    Every exception is folded into the outcome: the fleet must never die
    because a candidate was malformed or a budget ran out.  Budget
    exhaustion and cancellation surface as their own states with the
    standard error document (checkpoint path and resume command
    included), so a client can grow the budget and resubmit — the rerun
    resumes from the checkpoint.

    ``run`` is the job's :class:`~repro.obs.ledger.RunHandle` (or run-id
    string) when the server keeps a run ledger; the engine heartbeats it
    from this worker thread (heartbeats are plain throttled file writes,
    safe off the event loop) and stamps the id into checkpoint metadata.
    """
    spec = job.spec
    checkpoint_dir = (
        None if data_dir is None else job_checkpoint_dir(data_dir, job.key)
    )
    try:
        from ..analysis import refute_candidate

        system = spec.build()
        reduction = ReductionConfig.from_name(spec.reduction)
        rss_limit_mb = spec.rss_limit_mb
        if rss_limit_mb is not None and max_rss_limit_mb is not None:
            rss_limit_mb = min(rss_limit_mb, max_rss_limit_mb)
        engine = ExplorationEngine(
            workers=spec.engine_workers(max_engine_workers),
            budget=spec.budget,
            store=_job_store(spec, data_dir, job.key, checkpoint_interval),
            checkpoint_dir=checkpoint_dir,
            flush_interval=checkpoint_interval,
            resume=checkpoint_dir is not None,
            rss_limit_mb=rss_limit_mb,
            progress=JobProgressReporter(publish),
            cancel=job.cancel_event,
            tracer=tracer,
            metrics=metrics,
            run=run,
        )
        verdict = refute_candidate(
            system,
            tracer=tracer,
            metrics=metrics,
            engine=engine,
            reduction=reduction if reduction.enabled else None,
        )
    except ExplorationBudget as budget:
        report = _last_report(locals())
        payload = budget.to_json() if hasattr(budget, "to_json") else {}
        extra = {
            name: value
            for name, value in payload.items()
            if name not in ("error", "detail", "status", "version")
        }
        if getattr(budget, "resource", None) == "cancelled" or job.cancel_event.is_set():
            return JobOutcome(
                state=CANCELLED,
                error=error_document(499, "cancelled", str(budget), **extra),
                engine_report=report,
            )
        return JobOutcome(
            state=EXHAUSTED,
            error=error_document(200, "budget_exhausted", str(budget), **extra),
            engine_report=report,
        )
    except Exception as error:  # noqa: BLE001 - the fleet must survive anything
        return JobOutcome(
            state=FAILED,
            error=error_document(
                500,
                "job_failed",
                f"{type(error).__name__}: {error}",
                traceback=traceback.format_exc(limit=8),
            ),
        )
    if checkpoint_dir is not None:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    if data_dir is not None and spec.store is not None:
        shutil.rmtree(job_store_dir(data_dir, job.key), ignore_errors=True)
    return JobOutcome(
        state=COMPLETED,
        verdict=verdict.to_json(),
        engine_report=(
            None if engine.last_report is None else engine.last_report.to_json()
        ),
    )


def _last_report(frame_locals: dict) -> dict | None:
    engine = frame_locals.get("engine")
    if engine is None or engine.last_report is None:
        return None
    return engine.last_report.to_json()
