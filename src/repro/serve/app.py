"""The asyncio verdict server: HTTP surface, worker fleet, lifecycle.

``repro serve`` stands up a long-running process answering candidate
analysis queries over HTTP/JSON — stdlib only, one event loop, a
bounded thread fleet running the engine:

==========================  =================================================
``POST /jobs``              submit a job (spec in the body); answers from the
                            verdict cache when a dominating entry exists,
                            coalesces onto an identical in-flight job, sheds
                            with 429 + ``Retry-After`` past the watermarks
``GET /jobs``               id/state/tenant summary of every known job
``GET /jobs/{id}``          full job document (verdict when terminal)
``GET /jobs/{id}/events``   server-sent event stream: state transitions and
                            engine progress snapshots, closed on completion
``DELETE /jobs/{id}``       cancel (queued jobs dequeue; running jobs stop
                            cooperatively through the engine's cancel hook,
                            leaving a resumable checkpoint)
``GET /metrics``            Prometheus text exposition of the live registry
``GET /healthz``            liveness + version + queue/cache/fleet summary
==========================  =================================================

Connections are one-shot (``Connection: close``): every client we care
about — the example script, the CI smoke, curl — issues short
independent requests, and closing per request keeps the server free of
keep-alive state machines.  The event stream writes SSE frames until
the job reaches a terminal state.

Fault tolerance composes with the layers below: a worker-pool crash
inside a job fails that job and leaves its checkpoint, so running the
job again resumes it; a fleet thread can never die of a job exception
(:func:`~repro.serve.runner.execute_job` folds everything into the
outcome), and a killed *server* resumes in-flight jobs on restart from
the journal plus the engine's root-digest checkpoints.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from ..obs.ledger import RunLedger, resolve_runs_dir
from ..obs.metrics import MetricsRegistry
from ..obs.sinks import NULL_TRACER, Tracer
from .cache import VerdictCache, budget_dominates, job_key
from .jobs import CANCELLED, COMPLETED, QUEUED, RUNNING, TERMINAL, Job, JobStore
from .runner import execute_job, job_checkpoint_dir, job_store_dir
from .scheduler import FairScheduler, LoadShedder, TokenBucket
from .wire import (
    MAX_BODY_BYTES,
    JobSpec,
    WireError,
    error_document,
    package_version,
)

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


@dataclass
class ServeConfig:
    """Everything tunable about one server instance.

    ``fleet=0`` is a valid accept-only mode (jobs queue but never run)
    used by tests and drain scenarios.  ``data_dir=None`` disables all
    persistence: no journal, no cache file, no checkpoints — jobs run
    memory-only and a restart forgets everything.

    ``runs_dir`` names the run-ledger directory (see
    :mod:`repro.obs.ledger`); ``None`` defaults to ``<data_dir>/runs``
    when a data dir is set and disables the ledger otherwise, so an
    ephemeral server stays write-free.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    fleet: int = 2
    max_engine_workers: int = 2
    data_dir: str | Path | None = None
    cache_capacity: int = 1024
    max_queue_depth: int = 64
    max_tenant_depth: int = 16
    quantum: int = 64
    tenant_rate: float = 5.0
    tenant_burst: float = 10.0
    checkpoint_interval: int = 20_000
    max_rss_limit_mb: int | None = None
    progress_interval_seconds: float = 0.2
    runs_dir: str | Path | None = None
    tracer: Tracer = NULL_TRACER
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)


class VerdictServer:
    """One serving instance: scheduler + cache + fleet behind HTTP."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.metrics = config.metrics
        self.tracer = config.tracer
        data_dir = None if config.data_dir is None else Path(config.data_dir)
        self.data_dir = data_dir
        self.cache = VerdictCache(
            config.cache_capacity,
            path=None if data_dir is None else data_dir / "cache.jsonl",
            metrics=self.metrics,
        )
        self.store = JobStore(
            None if data_dir is None else data_dir / "jobs.jsonl"
        )
        runs_dir = config.runs_dir
        if runs_dir is None:
            runs_dir = None if data_dir is None else data_dir / "runs"
        else:
            # An explicit value may also be a disabled spelling ("none",
            # "off") to run ledger-less even with a data dir.
            runs_dir = resolve_runs_dir(runs_dir)
        #: The run ledger every dispatched job registers in (None for
        #: fully ephemeral servers: no data dir, no explicit runs dir).
        self.ledger = None if runs_dir is None else RunLedger(runs_dir)
        self.scheduler = FairScheduler(config.quantum, metrics=self.metrics)
        self.shedder = LoadShedder(config.max_queue_depth, config.max_tenant_depth)
        self._buckets: dict[str, TokenBucket] = {}
        self._executor: ThreadPoolExecutor | None = None
        self._fleet_tasks: list[asyncio.Task] = []
        self._server: asyncio.AbstractServer | None = None
        self._running: set[Job] = set()
        self._stopping = False
        self._started_at = time.time()
        self.port: int | None = None

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Recover the journal, bind the socket, launch the fleet."""
        recovered = self.store.recover()
        for job in recovered:
            self.scheduler.enqueue(job)
            self.metrics.counter("serve.jobs.recovered").inc()
        if self.config.fleet:
            self._executor = ThreadPoolExecutor(
                max_workers=self.config.fleet,
                thread_name_prefix="repro-serve",
            )
            self._fleet_tasks = [
                asyncio.create_task(self._fleet_worker(), name=f"fleet-{slot}")
                for slot in range(self.config.fleet)
            ]
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Drain gracefully: stop accepting, cancel in-flight work.

        Running jobs are stopped through the engine's cooperative cancel
        hook, which writes checkpoints on the way out; their terminal
        records are *not* journaled, so a subsequent server on the same
        data dir re-enqueues and resumes them — shutdown is
        indistinguishable from a crash as far as the resume guarantee
        is concerned.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for job in list(self._running):
            job.cancel_event.set()
        for task in self._fleet_tasks:
            task.cancel()
        if self._fleet_tasks:
            await asyncio.gather(*self._fleet_tasks, return_exceptions=True)
        if self._executor is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, partial(self._executor.shutdown, wait=True)
            )

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    # -- the fleet ------------------------------------------------------------

    async def _fleet_worker(self) -> None:
        while True:
            job = await self.scheduler.next_job()
            if job.state != QUEUED:  # cancelled while queued
                continue
            await self._run_job(job)

    def _open_run(self, job: Job):
        """Mint the job's run-ledger record (``job_id <-> run_id`` link)."""
        if self.ledger is None:
            return None
        spec = job.spec
        artifacts = {}
        if self.data_dir is not None:
            artifacts["checkpoint_dir"] = str(
                job_checkpoint_dir(self.data_dir, job.key, spec.store)
            )
            if spec.store is not None:
                artifacts["store_dir"] = str(job_store_dir(self.data_dir, job.key))
        try:
            run = self.ledger.open(
                "serve",
                f"{spec.candidate}(n={spec.n},f={spec.resilience})",
                budget=spec.budget.to_json(),
                store=spec.store,
                workers=spec.engine_workers(self.config.max_engine_workers),
                artifacts=artifacts,
                links={"job_id": job.id, "tenant": spec.tenant, "key": job.key.hex()},
                heartbeat_interval=self.config.progress_interval_seconds,
            )
        except OSError:  # pragma: no cover - ledger dir unwritable
            return None
        job.run_id = run.run_id
        job.publish({"kind": "run", "run_id": run.run_id})
        return run

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        job.mark_running()
        self._running.add(job)
        self.metrics.gauge("serve.inflight").set(len(self._running))
        publish = lambda event: loop.call_soon_threadsafe(job.publish, event)
        run = self._open_run(job)
        try:
            outcome = await loop.run_in_executor(
                self._executor,
                partial(
                    execute_job,
                    job,
                    data_dir=self.data_dir,
                    publish=publish,
                    metrics=self.metrics,
                    tracer=self.tracer,
                    max_engine_workers=self.config.max_engine_workers,
                    checkpoint_interval=self.config.checkpoint_interval,
                    max_rss_limit_mb=self.config.max_rss_limit_mb,
                    run=run,
                ),
            )
        finally:
            self._running.discard(job)
            self.metrics.gauge("serve.inflight").set(len(self._running))
        if self._stopping and outcome.state == CANCELLED:
            # Shutdown drain: leave the journal open for resume.  The
            # run record also stays non-terminal — once this process
            # exits, readers derive status=interrupted, which is what a
            # to-be-resumed run is.
            return
        job.finish(
            outcome.state,
            verdict=outcome.verdict,
            error=outcome.error,
            engine_report=outcome.engine_report,
        )
        if run is not None:
            report = outcome.engine_report or {}
            run.finish(
                outcome.state,
                verdict=outcome.verdict,
                phases=report.get("phase_seconds") or {},
                counters={
                    name: value
                    for name, value in report.items()
                    if isinstance(value, (int, float)) and not isinstance(value, bool)
                },
                peak_rss_kb=report.get("peak_rss_kb", 0) or 0,
                error=(
                    None
                    if outcome.error is None
                    else str(outcome.error.get("detail") or outcome.error.get("error"))
                ),
            )
        self.store.record_done(job)
        self.metrics.counter(f"serve.jobs.{outcome.state}").inc()
        wall = job.wall_seconds
        if wall is not None:
            self.shedder.observe_job_seconds(wall)
            self.metrics.histogram("serve.job_seconds").observe(wall)
        if outcome.state == COMPLETED and outcome.verdict is not None:
            self.cache.put(job.key, job.spec.budget, outcome.verdict, job.id)

    # -- HTTP plumbing --------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            try:
                method, path, headers, body = await _read_request(reader)
            except _HttpError as error:
                await _send_json(
                    writer,
                    error.status,
                    error_document(error.status, error.error, error.detail),
                )
                return
            except (asyncio.IncompleteReadError, ConnectionError, ValueError):
                return
            try:
                await self._route(method, path, headers, body, writer)
            except (ConnectionError, asyncio.IncompleteReadError):
                pass  # client went away mid-response
            except Exception as error:  # noqa: BLE001 - must answer something
                await _send_json(
                    writer,
                    500,
                    error_document(
                        500, "internal", f"{type(error).__name__}: {error}"
                    ),
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, method, path, headers, body, writer) -> None:
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            await _send_json(writer, 200, self.health_document())
            return
        if path == "/metrics" and method == "GET":
            await _send_text(writer, 200, self.metrics_text(), "text/plain; version=0.0.4")
            return
        if path == "/jobs":
            if method == "POST":
                await self._submit(headers, body, writer)
                return
            if method == "GET":
                await _send_json(
                    writer,
                    200,
                    {
                        "jobs": [
                            {
                                "id": job.id,
                                "state": job.state,
                                "tenant": job.spec.tenant,
                                "candidate": job.spec.candidate,
                            }
                            for job in self.store.jobs()
                        ]
                    },
                )
                return
            await _send_json(
                writer, 405, error_document(405, "method_not_allowed", method)
            )
            return
        if path.startswith("/jobs/"):
            parts = path[len("/jobs/") :].split("/")
            job = self.store.get(parts[0])
            if job is None:
                await _send_json(
                    writer,
                    404,
                    error_document(404, "unknown_job", f"no job {parts[0]!r}"),
                )
                return
            if len(parts) == 1:
                if method == "GET":
                    await _send_json(writer, 200, job.to_json())
                    return
                if method == "DELETE":
                    await self._cancel(job, writer)
                    return
            elif len(parts) == 2 and parts[1] == "events" and method == "GET":
                await self._stream_events(job, writer)
                return
            await _send_json(
                writer, 405, error_document(405, "method_not_allowed", method)
            )
            return
        await _send_json(
            writer, 404, error_document(404, "not_found", f"no route {path!r}")
        )

    # -- handlers -------------------------------------------------------------

    async def _submit(self, headers, body, writer) -> None:
        try:
            document = json.loads(body.decode("utf-8")) if body else None
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            await _send_json(
                writer, 400, error_document(400, "bad_json", str(error))
            )
            return
        try:
            spec = JobSpec.from_json(
                document, default_tenant=headers.get("x-repro-tenant")
            )
            system = spec.build()
        except WireError as error:
            await _send_json(
                writer,
                error.status,
                error_document(error.status, "bad_request", error.detail),
            )
            return
        key = job_key(spec, system)
        tenant = spec.tenant
        entry = self.cache.get(key, spec.budget)
        if entry is not None:
            await _send_json(
                writer,
                200,
                {
                    "id": entry.job_id,
                    "state": "completed",
                    "cached": True,
                    "key": key.hex(),
                    "stored_at": entry.stored_at,
                    "cache_budget": entry.budget.to_json(),
                    "verdict": entry.verdict,
                },
                extra_headers={"X-Repro-Cache": "hit"},
            )
            return
        for existing in self.store.jobs():
            if (
                existing.key == key
                and existing.state in (QUEUED, RUNNING)
                and budget_dominates(existing.spec.budget, spec.budget)
            ):
                self.metrics.counter("serve.jobs.coalesced").inc()
                await _send_json(
                    writer,
                    202,
                    {**existing.to_json(), "coalesced": True},
                    extra_headers={"Location": f"/jobs/{existing.id}"},
                )
                return
        shed = self.shedder.check(
            self.scheduler.depth,
            self.scheduler.tenant_depth(tenant),
            max(self.config.fleet, 1),
        )
        if shed is not None:
            self.metrics.counter("serve.shed").inc()
            self.metrics.counter(_tenant_metric("serve.rejected", tenant)).inc()
            await _send_json(
                writer,
                429,
                error_document(
                    429, "overloaded", shed.reason, retry_after=shed.retry_after
                ),
                extra_headers={"Retry-After": str(shed.retry_after)},
            )
            return
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                self.config.tenant_rate, self.config.tenant_burst
            )
        if not bucket.try_take():
            retry = round(bucket.retry_after(), 2)
            self.metrics.counter(_tenant_metric("serve.rejected", tenant)).inc()
            await _send_json(
                writer,
                429,
                error_document(
                    429, "rate_limited", f"tenant {tenant!r} over budget",
                    retry_after=retry,
                ),
                extra_headers={"Retry-After": str(retry)},
            )
            return
        job = self.store.create(spec, key)
        self.scheduler.enqueue(job)
        self.metrics.counter("serve.jobs.submitted").inc()
        self.metrics.counter(_tenant_metric("serve.admitted", tenant)).inc()
        await _send_json(
            writer,
            202,
            job.to_json(),
            extra_headers={"Location": f"/jobs/{job.id}"},
        )

    async def _cancel(self, job: Job, writer) -> None:
        if job.state in TERMINAL:
            await _send_json(writer, 200, job.to_json())
            return
        if job.state == QUEUED and self.scheduler.remove(job):
            job.finish(
                CANCELLED,
                error=error_document(499, "cancelled", "cancelled while queued"),
            )
            self.store.record_done(job)
            self.metrics.counter("serve.jobs.cancelled").inc()
        else:
            job.cancel_event.set()  # the engine exits at its next poll
        await _send_json(writer, 202, job.to_json())

    async def _stream_events(self, job: Job, writer) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        index = 0
        while True:
            events, done = await job.wait_events(index)
            for event in events:
                frame = f"data: {json.dumps(event, sort_keys=True)}\n\n"
                writer.write(frame.encode("utf-8"))
            await writer.drain()
            index += len(events)
            if done and index >= len(job.events):
                return

    # -- documents ------------------------------------------------------------

    def health_document(self) -> dict:
        states: dict[str, int] = {}
        for job in self.store.jobs():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "status": "ok",
            "version": package_version(),
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "fleet": self.config.fleet,
            "inflight": len(self._running),
            "queue_depth": self.scheduler.depth,
            "watermarks": {
                "max_queue_depth": self.config.max_queue_depth,
                "max_tenant_depth": self.config.max_tenant_depth,
            },
            "cache": self.cache.stats(),
            "jobs": states,
        }

    def metrics_text(self) -> str:
        from ..obs.export import prometheus_textfile

        self.metrics.gauge("serve.queue_depth").set(self.scheduler.depth)
        self.metrics.gauge("serve.inflight").set(len(self._running))
        self.metrics.gauge("serve.uptime_seconds").set(
            round(time.time() - self._started_at, 3)
        )
        return prometheus_textfile(self.metrics.snapshot())


def _tenant_metric(base: str, tenant: str) -> str:
    safe = tenant.replace("\\", "\\\\").replace('"', '\\"')
    return f'{base}{{tenant="{safe}"}}'


# -- HTTP primitives ----------------------------------------------------------


class _HttpError(Exception):
    def __init__(self, status: int, error: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.error = error
        self.detail = detail


async def _read_request(reader) -> tuple[str, str, dict, bytes]:
    request_line = await asyncio.wait_for(reader.readline(), timeout=30)
    if not request_line:
        raise ConnectionError("empty request")
    try:
        method, target, _version = request_line.decode("latin-1").split()
    except ValueError:
        raise _HttpError(400, "bad_request_line", request_line.decode("latin-1", "replace").strip()) from None
    headers: dict[str, str] = {}
    while True:
        line = await asyncio.wait_for(reader.readline(), timeout=30)
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _HttpError(400, "bad_content_length", headers.get("content-length", "")) from None
    if length > MAX_BODY_BYTES:
        raise _HttpError(413, "payload_too_large", f"body of {length} bytes")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


async def _send_json(writer, status: int, document: dict, *, extra_headers=None) -> None:
    body = json.dumps(document, sort_keys=True).encode("utf-8")
    await _send_raw(writer, status, body, "application/json", extra_headers)


async def _send_text(writer, status: int, text: str, content_type: str) -> None:
    await _send_raw(writer, status, text.encode("utf-8"), content_type, None)


async def _send_raw(writer, status, body: bytes, content_type, extra_headers) -> None:
    reason = _REASONS.get(status, "Unknown")
    head = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


# -- entry points --------------------------------------------------------------


async def _serve_async(config: ServeConfig, *, ready=None, banner=True) -> None:
    server = VerdictServer(config)
    await server.start()
    if ready is not None:
        ready(server)
    if banner:
        print(
            f"repro serve {package_version()} listening on {server.url} "
            f"(fleet={config.fleet}, data_dir={config.data_dir})",
            flush=True,
        )
    try:
        await asyncio.Event().wait()  # run until cancelled
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()


def serve_forever(config: ServeConfig) -> int:
    """Run the server until interrupted (the ``repro serve`` CLI body)."""
    try:
        asyncio.run(_serve_async(config))
    except KeyboardInterrupt:
        print("repro serve: shutting down", flush=True)
    return 0


class ServerHandle:
    """A server running on a background thread (tests, benchmarks).

    ``stop()`` drains it through :meth:`VerdictServer.stop` — in-flight
    jobs are cancelled-with-checkpoint and left un-journaled, exactly
    like a crash, which is what the restart tests rely on.
    """

    def __init__(self, config: ServeConfig) -> None:
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self.server: VerdictServer | None = None
        self._thread = threading.Thread(target=self._main, args=(config,), daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server failed to start within 30s")
        if self._failure is not None:
            raise RuntimeError("server failed to start") from self._failure

    def _main(self, config: ServeConfig) -> None:
        asyncio.set_event_loop(self._loop)
        server = VerdictServer(config)
        try:
            self._loop.run_until_complete(server.start())
        except BaseException as error:  # noqa: BLE001 - surfaced to starter
            self._failure = error
            self._ready.set()
            return
        self.server = server
        self._ready.set()
        self._loop.run_forever()
        self._loop.run_until_complete(self._loop.shutdown_asyncgens())
        self._loop.close()

    @property
    def url(self) -> str:
        assert self.server is not None
        return self.server.url

    @property
    def port(self) -> int:
        assert self.server is not None
        assert self.server.port is not None
        return self.server.port

    def stop(self) -> None:
        if self.server is not None and self._loop.is_running():
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop
            ).result(timeout=60)
        if self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)


def run_in_thread(config: ServeConfig) -> ServerHandle:
    """Start a :class:`VerdictServer` on a daemon thread; returns its handle."""
    return ServerHandle(config)
