"""repro.obs — tracing, metrics, and profiling for the runtime layers.

The observability subsystem reifies what the schedulers, the explorer,
and the adversary pipeline *do* as inspectable data:

* :mod:`repro.obs.events`  — typed, append-only :class:`TraceEvent`
  stream with monotonic sequence numbers and per-process Lamport tags;
* :mod:`repro.obs.sinks`   — pluggable sinks (ring buffer, JSONL file,
  null) behind a :class:`Tracer`, near-zero overhead when disabled;
* :mod:`repro.obs.metrics` — counters/gauges/histograms registry with a
  ``snapshot()`` dict export;
* :mod:`repro.obs.profile` — context-manager timers feeding a
  registry;
* :mod:`repro.obs.spans`   — hierarchical spans (wall + CPU time,
  parent links, attributes) layered on the event stream as
  ``span_start``/``span_end`` pairs, plus :class:`WorkerTelemetry`
  (worker-side buffering) and :func:`merge_worker_events` (ordered
  merge into the coordinator's trace), and offline tooling: assembly,
  latency profiles, folded flamegraph stacks, trace diffing;
* :mod:`repro.obs.progress` — throttled, TTY-aware live progress lines
  on stderr (``REPRO_PROGRESS=1`` or ``ExplorationEngine(progress=…)``);
* :mod:`repro.obs.ledger` — the run ledger: every run mints a
  ``run_id``, appends durable :class:`RunRecord` lines to a JSONL
  ledger, and refreshes an atomic heartbeat file so ``repro runs
  list/show/tail/diff/gc`` can inspect live, finished, and killed runs
  from another process;
* :mod:`repro.obs.export`  — Prometheus textfile and Chrome
  ``trace_event`` exporters for metrics snapshots and span traces;
* :mod:`repro.obs.replay`  — reconstruct the task sequence of a JSONL
  trace as a :class:`~repro.ioa.scheduler.ScriptedScheduler` and replay
  any observed run bit-for-bit.

Instrumented call sites take ``tracer=`` / ``metrics=`` parameters
defaulting to the disabled singletons :data:`NULL_TRACER` /
:data:`NULL_METRICS`, so the subsystem costs nothing unless switched on.

``repro.obs.replay`` is re-exported lazily: it imports the scheduler
module, which itself imports this package — eager re-export would make
that a cycle.
"""

from .events import (
    ACTION_FIRED,
    CHECKPOINT_SAVED,
    FAILURE_INJECTED,
    FAULT_FIRED,
    FUZZ_CANDIDATE,
    HOOK_VERDICT,
    KINDS,
    PHASE,
    RUN_END,
    RUN_START,
    SERVICE_INVOCATION,
    SERVICE_RESPONSE,
    SHRINK_STEP,
    SIM_RUN,
    SPAN_END,
    SPAN_START,
    STATE_EXPLORED,
    TASK_CHOSEN,
    VALENCE_VERDICT,
    WORKER_ROUND,
    TraceEvent,
    decode_value,
    encode_value,
)
from .export import (
    chrome_trace,
    prometheus_textfile,
    snapshot_from_trace,
    write_chrome_trace,
)
from .ledger import (
    RunHandle,
    RunLedger,
    RunRecord,
    diff_runs,
    new_run_id,
    resolve_runs_dir,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
    percentile,
    render_metrics_table,
)
from .profile import Timer, timed
from .progress import ProgressReporter, progress_from_env
from .spans import (
    Span,
    SpanRecord,
    WorkerTelemetry,
    assemble_spans,
    current_span_id,
    diff_span_profiles,
    end_span,
    folded_stacks,
    merge_worker_events,
    record_span,
    render_folded_stacks,
    render_span_diff,
    render_span_table,
    span,
    start_span,
    summarize_spans,
)
from .sinks import (
    JsonlSink,
    NULL_TRACER,
    NullSink,
    RingBufferSink,
    Sink,
    Tracer,
    current_tracer,
    set_current_tracer,
    use_tracer,
)

_REPLAY_EXPORTS = frozenset(
    {
        "load_events",
        "split_runs",
        "task_sequence",
        "action_sequence",
        "input_schedule",
        "scheduler_from_events",
        "scheduler_from_trace",
        "replay_execution",
        "replay_trace",
    }
)


def __getattr__(name: str):
    if name == "replay" or name in _REPLAY_EXPORTS:
        import importlib

        replay_module = importlib.import_module(".replay", __name__)
        if name == "replay":
            return replay_module
        return getattr(replay_module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ACTION_FIRED",
    "CHECKPOINT_SAVED",
    "Counter",
    "FAILURE_INJECTED",
    "FAULT_FIRED",
    "FUZZ_CANDIDATE",
    "Gauge",
    "HOOK_VERDICT",
    "Histogram",
    "JsonlSink",
    "KINDS",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullSink",
    "PHASE",
    "ProgressReporter",
    "RUN_END",
    "RUN_START",
    "RingBufferSink",
    "RunHandle",
    "RunLedger",
    "RunRecord",
    "SERVICE_INVOCATION",
    "SERVICE_RESPONSE",
    "SHRINK_STEP",
    "SIM_RUN",
    "SPAN_END",
    "SPAN_START",
    "STATE_EXPLORED",
    "Sink",
    "Span",
    "SpanRecord",
    "TASK_CHOSEN",
    "Timer",
    "TraceEvent",
    "Tracer",
    "VALENCE_VERDICT",
    "WORKER_ROUND",
    "WorkerTelemetry",
    "assemble_spans",
    "chrome_trace",
    "current_span_id",
    "current_tracer",
    "decode_value",
    "diff_runs",
    "diff_span_profiles",
    "encode_value",
    "end_span",
    "folded_stacks",
    "merge_worker_events",
    "new_run_id",
    "percentile",
    "progress_from_env",
    "prometheus_textfile",
    "record_span",
    "render_folded_stacks",
    "render_metrics_table",
    "render_span_diff",
    "render_span_table",
    "replay",
    "resolve_runs_dir",
    "set_current_tracer",
    "snapshot_from_trace",
    "span",
    "start_span",
    "summarize_spans",
    "timed",
    "use_tracer",
    "write_chrome_trace",
    # lazy re-exports from repro.obs.replay
    "load_events",
    "split_runs",
    "task_sequence",
    "action_sequence",
    "input_schedule",
    "scheduler_from_events",
    "scheduler_from_trace",
    "replay_execution",
    "replay_trace",
]
