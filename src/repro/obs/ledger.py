"""The run ledger: durable run identity and live run introspection.

Every engine run — a CLI ``refute``/``trace``/``stats`` pipeline, a
serve job, a ``repro sim`` run, a fuzz campaign, a benchmark row — mints
a **run id** at start and appends :class:`RunRecord` lines to a JSONL
ledger (``<dir>/ledger.jsonl``): one ``status="running"`` record when
the run opens, one terminal record when it finishes.  The latest record
per run id wins, so the ledger is append-only and crash-safe — a run
that dies mid-flight simply never writes its terminal record, and the
reader derives ``status="interrupted"`` from the stale heartbeat.

The **heartbeat** is a small JSON file
(``<dir>/heartbeats/<run_id>.json``) rewritten atomically on the
engine's flush/progress cadence with the live counters an external
process needs to watch a run: states, states/sec, frontier size, phase
breakdown, last store-flush latency, spilled digests.  ``repro runs
tail`` follows it from another process; ``repro runs show`` reads it to
decide whether a "running" record is live, interrupted, or hung.

Run ids thread end-to-end from here: the CLI installs them on the
:class:`~repro.obs.sinks.Tracer` (every :class:`~repro.obs.events
.TraceEvent` carries ``run``), the engine writes them into checkpoint
and segment metadata, the serve layer links ``job_id <-> run_id``, and
the Prometheus exporter renders them as a ``run`` label.

Nothing here ever sits on a hot loop: records are two writes per run,
and :meth:`RunHandle.heartbeat` self-throttles to its interval, so the
cost of a heartbeat call site is one monotonic-clock comparison.
"""

from __future__ import annotations

import json
import os
import secrets
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Environment variable naming the default ledger directory.
REPRO_RUNS_DIR = "REPRO_RUNS_DIR"

#: Ledger directory used when neither a flag nor the environment names one.
DEFAULT_RUNS_DIR = ".repro/runs"

#: Values that disable the ledger when given as a directory.
_DISABLED = frozenset({"", "0", "none", "off"})

#: The one non-terminal recorded status.
RUNNING = "running"

#: Derived (never recorded) status of a run whose process died mid-flight.
INTERRUPTED = "interrupted"

#: Seconds between heartbeat rewrites unless the opener chooses otherwise.
DEFAULT_HEARTBEAT_INTERVAL = 1.0


def new_run_id(kind: str) -> str:
    """A sortable, filesystem-safe run id: ``<kind>-<utc stamp>-<token>``."""
    stamp = time.strftime("%Y%m%d%H%M%S", time.gmtime())
    safe_kind = "".join(ch if ch.isalnum() else "-" for ch in kind) or "run"
    return f"{safe_kind}-{stamp}-{secrets.token_hex(3)}"


def resolve_runs_dir(value=None, environ=None) -> Path | None:
    """The ledger directory from a flag value or the environment.

    Precedence: explicit ``value`` (a CLI flag), then ``$REPRO_RUNS_DIR``,
    then :data:`DEFAULT_RUNS_DIR`.  Any of the :data:`_DISABLED` spellings
    (``none``, ``off``, ``0``, empty) at either level disables the ledger
    and returns ``None``.
    """
    if value is None:
        value = (environ if environ is not None else os.environ).get(
            REPRO_RUNS_DIR, DEFAULT_RUNS_DIR
        )
    if str(value).strip().lower() in _DISABLED:
        return None
    return Path(value)


def _pid_alive(pid) -> bool:
    if not pid:
        return False
    try:
        os.kill(int(pid), 0)
    except (ProcessLookupError, ValueError, TypeError):
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another user
        return True
    return True


@dataclass
class RunRecord:
    """One ledger line: the durable identity and outcome of a run.

    ``status`` is whatever the writer recorded — :data:`RUNNING` at open,
    a terminal word (``completed``, ``exhausted``, ``failed``,
    ``violation``, ...) at finish.  Readers derive the effective status
    (including :data:`INTERRUPTED`) via :meth:`RunLedger.status_of`.
    ``artifacts`` holds paths (trace file, checkpoint dir, store URI,
    resume command); ``links`` holds cross-system identity (``job_id``,
    campaign descriptions); ``counters``/``phases`` are the final metric
    counters and phase-seconds breakdown a terminal record carries.
    :meth:`from_json` ignores keys it does not know, such as the
    ``workers`` count that records written before the worker pool was
    removed still carry.
    """

    run_id: str
    kind: str
    instance: str = ""
    status: str = RUNNING
    started_at: float = 0.0
    finished_at: float | None = None
    pid: int = 0
    budget: dict | None = None
    store: str | None = None
    verdict: dict | None = None
    phases: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    peak_rss_kb: int = 0
    artifacts: dict = field(default_factory=dict)
    links: dict = field(default_factory=dict)
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL
    error: str | None = None

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "instance": self.instance,
            "status": self.status,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "pid": self.pid,
            "budget": self.budget,
            "store": self.store,
            "verdict": self.verdict,
            "phases": self.phases,
            "counters": self.counters,
            "peak_rss_kb": self.peak_rss_kb,
            "artifacts": self.artifacts,
            "links": self.links,
            "heartbeat_interval": self.heartbeat_interval,
            "error": self.error,
        }

    @staticmethod
    def from_json(document: dict) -> "RunRecord":
        return RunRecord(
            run_id=document["run_id"],
            kind=document.get("kind", "run"),
            instance=document.get("instance", ""),
            status=document.get("status", RUNNING),
            started_at=document.get("started_at", 0.0),
            finished_at=document.get("finished_at"),
            pid=document.get("pid", 0),
            budget=document.get("budget"),
            store=document.get("store"),
            verdict=document.get("verdict"),
            phases=document.get("phases") or {},
            counters=document.get("counters") or {},
            peak_rss_kb=document.get("peak_rss_kb", 0),
            artifacts=document.get("artifacts") or {},
            links=document.get("links") or {},
            heartbeat_interval=document.get(
                "heartbeat_interval", DEFAULT_HEARTBEAT_INTERVAL
            ),
            error=document.get("error"),
        )


class RunLedger:
    """One ledger directory: the JSONL record stream plus heartbeats."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.path = self.directory / "ledger.jsonl"
        self.heartbeat_dir = self.directory / "heartbeats"

    # -- writing ---------------------------------------------------------------

    def append(self, record: RunRecord) -> None:
        """Append one record line (atomic at the line level: one write)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(record.to_json(), sort_keys=True) + "\n")

    def open(
        self,
        kind: str,
        instance: str = "",
        *,
        budget: dict | None = None,
        store: str | None = None,
        artifacts: dict | None = None,
        links: dict | None = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        run_id: str | None = None,
    ) -> "RunHandle":
        """Mint a run id, append its ``running`` record, return the handle."""
        record = RunRecord(
            run_id=new_run_id(kind) if run_id is None else run_id,
            kind=kind,
            instance=instance,
            status=RUNNING,
            started_at=time.time(),
            pid=os.getpid(),
            budget=budget,
            store=store,
            artifacts=dict(artifacts or {}),
            links=dict(links or {}),
            heartbeat_interval=heartbeat_interval,
        )
        self.append(record)
        return RunHandle(self, record)

    def record(
        self,
        kind: str,
        instance: str = "",
        *,
        status: str = "completed",
        counters: dict | None = None,
        phases: dict | None = None,
        verdict: dict | None = None,
        artifacts: dict | None = None,
        links: dict | None = None,
    ) -> RunRecord:
        """Append one already-finished run (benchmark rows, one-shot runs)."""
        now = time.time()
        record = RunRecord(
            run_id=new_run_id(kind),
            kind=kind,
            instance=instance,
            status=status,
            started_at=now,
            finished_at=now,
            pid=os.getpid(),
            counters=dict(counters or {}),
            phases=dict(phases or {}),
            verdict=verdict,
            artifacts=dict(artifacts or {}),
            links=dict(links or {}),
        )
        self.append(record)
        return record

    # -- heartbeats ------------------------------------------------------------

    def heartbeat_path(self, run_id: str) -> Path:
        return self.heartbeat_dir / f"{run_id}.json"

    def write_heartbeat(self, run_id: str, document: dict) -> None:
        """Atomic rewrite (temp + ``os.replace``): readers never see a torn file."""
        self.heartbeat_dir.mkdir(parents=True, exist_ok=True)
        path = self.heartbeat_path(run_id)
        temporary = path.with_suffix(f".tmp{os.getpid()}")
        with open(temporary, "w", encoding="utf-8") as stream:
            stream.write(json.dumps(document, sort_keys=True))
        os.replace(temporary, path)

    def read_heartbeat(self, run_id: str) -> dict | None:
        try:
            text = self.heartbeat_path(run_id).read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return None
        try:
            document = json.loads(text)
        except json.JSONDecodeError:  # pragma: no cover - torn pre-rename read
            return None
        return document if isinstance(document, dict) else None

    # -- reading ---------------------------------------------------------------

    def records(self) -> list[RunRecord]:
        """Every readable ledger line, in append order (torn tails skipped)."""
        try:
            stream = open(self.path, "r", encoding="utf-8")
        except (FileNotFoundError, OSError):
            return []
        out = []
        with stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(RunRecord.from_json(json.loads(line)))
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue  # a torn tail from a crash is expected
        return out

    def latest(self) -> dict[str, RunRecord]:
        """Latest record per run id, in first-seen order."""
        table: dict[str, RunRecord] = {}
        for record in self.records():
            table[record.run_id] = record
        return table

    def find(self, run_id: str) -> RunRecord:
        """The latest record matching ``run_id`` exactly or by unique prefix."""
        table = self.latest()
        record = table.get(run_id)
        if record is not None:
            return record
        matches = [r for rid, r in table.items() if rid.startswith(run_id)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise KeyError(f"no run {run_id!r} in {self.path}")
        raise KeyError(
            f"run id prefix {run_id!r} is ambiguous: "
            + ", ".join(sorted(r.run_id for r in matches))
        )

    def heartbeat_stale(
        self, record: RunRecord, heartbeat: dict | None, now: float | None = None
    ) -> bool:
        """Whether the run's heartbeat has missed its refresh window."""
        now = time.time() if now is None else now
        interval = (heartbeat or {}).get("interval", record.heartbeat_interval)
        last = (heartbeat or {}).get("t", record.started_at)
        return (now - last) > max(3.0 * float(interval or 1.0), 5.0)

    def status_of(
        self,
        record: RunRecord,
        heartbeat: dict | None = None,
        *,
        now: float | None = None,
    ) -> str:
        """The effective status: recorded when terminal, else derived.

        A ``running`` record stays ``running`` only while its process is
        alive *and* its heartbeat (when one exists) is fresh; a dead pid
        or a stale heartbeat derives :data:`INTERRUPTED`.  The pid check
        makes a SIGKILLed run show as interrupted immediately, without
        waiting out the staleness window.
        """
        if record.status != RUNNING:
            return record.status
        if heartbeat is None:
            heartbeat = self.read_heartbeat(record.run_id)
        pid = (heartbeat or {}).get("pid", record.pid)
        if not _pid_alive(pid):
            return INTERRUPTED
        if heartbeat is not None and self.heartbeat_stale(record, heartbeat, now):
            return INTERRUPTED
        return RUNNING

    # -- maintenance -----------------------------------------------------------

    def gc(self, keep: int | None = None) -> dict:
        """Compact the ledger: latest record per run, newest ``keep`` runs.

        Derived-interrupted runs are finalized (their kept record gets
        ``status="interrupted"`` written down), terminal runs lose their
        heartbeat files, and older-than-``keep`` terminal runs drop out of
        the ledger entirely.  Returns a summary dict.
        """
        table = self.latest()
        finalized = 0
        for record in table.values():
            if record.status == RUNNING:
                status = self.status_of(record)
                if status == INTERRUPTED:
                    record.status = INTERRUPTED
                    record.error = "process died without a terminal record"
                    finalized += 1
        ordered = sorted(table.values(), key=lambda r: r.started_at)
        dropped = 0
        if keep is not None and keep >= 0:
            terminal = [r for r in ordered if r.status != RUNNING]
            victims = {r.run_id for r in terminal[: max(0, len(terminal) - keep)]}
            dropped = len(victims)
            ordered = [r for r in ordered if r.run_id not in victims]
        if self.path.exists() or ordered:
            self.directory.mkdir(parents=True, exist_ok=True)
            temporary = self.path.with_suffix(f".tmp{os.getpid()}")
            with open(temporary, "w", encoding="utf-8") as stream:
                for record in ordered:
                    stream.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
            os.replace(temporary, self.path)
        pruned_heartbeats = 0
        kept_ids = {r.run_id for r in ordered if r.status == RUNNING}
        if self.heartbeat_dir.is_dir():
            for path in self.heartbeat_dir.glob("*.json"):
                if path.stem not in kept_ids:
                    try:
                        path.unlink()
                        pruned_heartbeats += 1
                    except OSError:  # pragma: no cover - concurrent unlink
                        pass
        return {
            "runs": len(ordered),
            "dropped": dropped,
            "finalized_interrupted": finalized,
            "pruned_heartbeats": pruned_heartbeats,
        }


class RunHandle:
    """The writer side of one live run: throttled heartbeats + the finish.

    Thread-confined to whichever thread drives the run (the serve fleet
    hands one handle to one worker thread); the heartbeat throttle means
    call sites can fire it on every progress tick for the cost of one
    monotonic comparison.
    """

    __slots__ = ("ledger", "record", "run_id", "_last_beat", "_interval")

    def __init__(self, ledger: RunLedger, record: RunRecord) -> None:
        self.ledger = ledger
        self.record = record
        self.run_id = record.run_id
        self._interval = record.heartbeat_interval
        self._last_beat = -1e12  # first heartbeat always writes

    def add_artifact(self, name: str, value) -> None:
        self.record.artifacts[name] = str(value)

    def link(self, name: str, value) -> None:
        self.record.links[name] = value

    def heartbeat(self, *, force: bool = False, **fields) -> bool:
        """Rewrite the heartbeat file if the interval has passed.

        ``fields`` are whatever live counters the driver has (``states``,
        ``transitions``, ``frontier``, ``elapsed``, ``flush_ms``,
        ``spilled``, ``phases``, ...); ``states_per_sec`` is derived when
        ``states`` and ``elapsed`` are both present.  Returns True when a
        file was actually written.
        """
        now = time.monotonic()
        if not force and now - self._last_beat < self._interval:
            return False
        self._last_beat = now
        document = {
            "run": self.run_id,
            "t": time.time(),
            "pid": os.getpid(),
            "interval": self._interval,
        }
        for name, value in fields.items():
            if value is not None:
                document[name] = value
        states = document.get("states")
        elapsed = document.get("elapsed")
        if states is not None and elapsed:
            document["states_per_sec"] = round(states / elapsed, 1)
        try:
            self.ledger.write_heartbeat(self.run_id, document)
        except OSError:  # pragma: no cover - ledger dir vanished mid-run
            return False
        return True

    def finish(
        self,
        status: str,
        *,
        verdict: dict | None = None,
        phases: dict | None = None,
        counters: dict | None = None,
        peak_rss_kb: int = 0,
        error: str | None = None,
    ) -> RunRecord:
        """Append the terminal record (idempotent fields, one line)."""
        record = self.record
        record.status = status
        record.finished_at = time.time()
        if verdict is not None:
            record.verdict = verdict
        if phases:
            record.phases = dict(phases)
        if counters:
            record.counters = dict(counters)
        if peak_rss_kb:
            record.peak_rss_kb = peak_rss_kb
        if error is not None:
            record.error = error
        self.ledger.append(record)
        return record


def diff_runs(before: RunRecord, after: RunRecord) -> list[dict]:
    """Compare two terminal records' counters and phase breakdowns.

    One row per metric name present in either run: ``{"metric", "before",
    "after", "delta", "ratio"}``, counters first, then phases (prefixed
    ``phase.``), sorted by name within each group.  This is what ``repro
    runs diff`` renders for regression triage across the perf trajectory.
    """
    rows: list[dict] = []
    for prefix, table_a, table_b in (
        ("", before.counters, after.counters),
        ("phase.", before.phases, after.phases),
    ):
        for name in sorted(set(table_a) | set(table_b)):
            a = table_a.get(name)
            b = table_b.get(name)
            numeric = isinstance(a, (int, float)) and isinstance(b, (int, float))
            rows.append(
                {
                    "metric": prefix + str(name),
                    "before": a,
                    "after": b,
                    "delta": (b - a) if numeric else None,
                    "ratio": (b / a) if numeric and a else None,
                }
            )
    return rows
