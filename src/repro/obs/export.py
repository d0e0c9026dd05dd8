"""Exporters: Prometheus textfiles and Chrome ``trace_event`` JSON.

Two one-way bridges out of the observability subsystem:

* :func:`prometheus_textfile` renders a
  :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dict in the
  Prometheus text exposition format (node_exporter's textfile collector
  consumes it as-is): counters become ``repro_<name>_total``, gauges
  ``repro_<name>``, histograms a ``_count``/``_sum`` pair plus
  p50/p95/p99 quantile gauges.  Dots and other non-metric characters in
  instrument names become underscores.

* :func:`chrome_trace` converts the span events of any trace (see
  :mod:`repro.obs.spans`) into the Chrome ``trace_event`` JSON object
  format, loadable in ``chrome://tracing`` and Perfetto.  Each emitting
  process becomes a track (one for a run today; traces recorded with
  the removed worker pool also hold one per worker);
  timestamps are each track's own ``perf_counter`` values, normalized so
  the earliest span in the trace sits at zero.  Cross-track alignment is
  therefore approximate (different processes, different clock origins), which
  is fine for the intended use: seeing where the time went, per track.

* :func:`snapshot_from_trace` builds a metrics-style snapshot from a raw
  trace — event counts per kind, span-latency histogram summaries per
  span name — so ``obs prom`` can serve either input kind.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Mapping

from .events import TraceEvent
from .metrics import percentile
from .spans import SpanRecord, assemble_spans


def _metric_name(name: str) -> str:
    """A Prometheus-legal metric name from a dotted instrument name."""
    cleaned = [
        ch if ch.isalnum() or ch in ("_", ":") else "_" for ch in name
    ]
    if cleaned and cleaned[0].isdigit():
        cleaned.insert(0, "_")
    return "".join(cleaned)


_LABELLED = re.compile(r"^(?P<base>[^{}]+)\{(?P<labels>[^{}]*)\}$")


def _split_labels(name: str) -> tuple[str, str]:
    """Split an instrument name into ``(base, label-clause)``.

    Instrument names may embed Prometheus labels directly —
    ``serve.admitted{tenant="alice"}`` — which keeps the
    :class:`~repro.obs.metrics.MetricsRegistry` label-free (each
    labelled series is simply its own instrument) while letting the
    exporter render proper labelled series instead of mangling the
    braces into underscores.  Names without a well-formed label clause
    come back with an empty clause.
    """
    match = _LABELLED.match(name)
    if match is None:
        return name, ""
    return match.group("base"), "{" + match.group("labels") + "}"


def _merge_labels(clause: str, extra: str) -> str:
    """Merge an extra ``key="value"`` pair into a label clause."""
    if not clause:
        return "{" + extra + "}"
    return clause[:-1] + "," + extra + "}"


def _format_value(value) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(float(value)) if isinstance(value, float) else str(value)
    return "NaN"


def prometheus_textfile(
    snapshot: Mapping, prefix: str = "repro", labels: Mapping | None = None
) -> str:
    """Render a metrics snapshot in the Prometheus text format.

    Instrument names carrying an embedded label clause (see
    :func:`_split_labels`) render as labelled series; the ``# TYPE``
    header is emitted once per base metric, so per-tenant counters like
    ``serve.admitted{tenant="a"}`` / ``serve.admitted{tenant="b"}``
    form one metric family.  ``labels`` adds constant labels — run
    identity, most importantly: ``labels={"run": run_id}`` — to every
    series, merged after any embedded clause.
    """
    lines: list[str] = []
    typed: set[str] = set()
    constant = ",".join(
        f'{key}="{value}"' for key, value in (labels or {}).items()
    )

    def with_constant(clause: str) -> str:
        if not constant:
            return clause
        return _merge_labels(clause, constant)

    def declare(metric: str, kind: str) -> None:
        if metric not in typed:
            typed.add(metric)
            lines.append(f"# TYPE {metric} {kind}")

    for name, value in snapshot.get("counters", {}).items():
        base, clause = _split_labels(name)
        metric = f"{prefix}_{_metric_name(base)}_total"
        declare(metric, "counter")
        lines.append(f"{metric}{with_constant(clause)} {_format_value(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        base, clause = _split_labels(name)
        metric = f"{prefix}_{_metric_name(base)}"
        declare(metric, "gauge")
        lines.append(f"{metric}{with_constant(clause)} {_format_value(value)}")
    for name, summary in snapshot.get("histograms", {}).items():
        base, clause = _split_labels(name)
        metric = f"{prefix}_{_metric_name(base)}"
        declare(metric, "summary")
        for quantile_key, q in (("p50", "0.5"), ("p95", "0.95"), ("p99", "0.99")):
            value = summary.get(quantile_key)
            if value is not None:
                quantile = 'quantile="%s"' % q
                lines.append(
                    f"{metric}{_merge_labels(with_constant(clause), quantile)} "
                    f"{_format_value(value)}"
                )
        lines.append(
            f"{metric}_sum{with_constant(clause)} "
            f"{_format_value(summary.get('total', 0.0))}"
        )
        lines.append(f"{metric}_count{with_constant(clause)} {summary.get('count', 0)}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_from_trace(events: Iterable[TraceEvent]) -> dict:
    """A metrics-style snapshot derived from a raw event trace.

    Counters: ``trace.events.<kind>`` per event kind.  Histograms:
    ``span.<name>`` wall-time summaries per span name (same keys as
    :meth:`~repro.obs.metrics.Histogram.summary`).

    Fuzz traces (any trace carrying a ``fuzz_candidate`` event)
    additionally derive the campaign counters the live registry records
    — ``sim.fuzz.schedules`` (one per simulated schedule),
    ``sim.fuzz.violations``, ``sim.fuzz.shrink_steps`` — so ``repro obs
    summarize``/``prom`` report the same numbers from a trace file as
    from a live run.
    """
    events = list(events)
    counters: dict[str, int] = {}
    for event in events:
        key = f"trace.events.{event.kind}"
        counters[key] = counters.get(key, 0) + 1
    if counters.get("trace.events.fuzz_candidate"):
        for event in events:
            if event.kind == "sim_run":
                counters["sim.fuzz.schedules"] = (
                    counters.get("sim.fuzz.schedules", 0) + 1
                )
                if event.data.get("violations"):
                    counters["sim.fuzz.violations"] = (
                        counters.get("sim.fuzz.violations", 0) + 1
                    )
            elif event.kind == "shrink_step":
                counters["sim.fuzz.shrink_steps"] = (
                    counters.get("sim.fuzz.shrink_steps", 0) + 1
                )
    histograms: dict[str, dict] = {}
    samples: dict[str, list[float]] = {}
    for record in assemble_spans(events):
        samples.setdefault(f"span.{record.name}", []).append(record.wall_seconds)
    for name, walls in samples.items():
        walls.sort()
        histograms[name] = {
            "count": len(walls),
            "total": sum(walls),
            "mean": sum(walls) / len(walls),
            "min": walls[0],
            "max": walls[-1],
            "p50": percentile(walls, 0.50),
            "p95": percentile(walls, 0.95),
            "p99": percentile(walls, 0.99),
        }
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": {},
        "histograms": dict(sorted(histograms.items())),
    }


def _track_name(record: SpanRecord) -> str:
    process = record.process
    return "coordinator" if process is None else str(process)


def chrome_trace(events: Iterable[TraceEvent]) -> dict:
    """The trace's spans as a Chrome ``trace_event`` JSON object.

    Every span becomes one complete (``ph="X"``) event; open spans
    (never closed — should not exist in a well-formed merged trace) are
    skipped.  ``args`` carries the span's attributes plus its id/parent
    so Perfetto's query panel can reconstruct the hierarchy.
    """
    records = assemble_spans(events)
    tracks: dict[str, int] = {}
    origin: dict[str, float] = {}
    for record in records:
        track = _track_name(record)
        if track not in tracks:
            tracks[track] = len(tracks) + 1
        origin[track] = min(origin.get(track, record.start_t), record.start_t)
    trace_events: list[dict] = []
    for track, tid in tracks.items():
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": track},
            }
        )
    for record in records:
        if record.status == "open":
            continue
        track = _track_name(record)
        trace_events.append(
            {
                "name": record.name,
                "cat": "span",
                "ph": "X",
                "pid": 1,
                "tid": tracks[track],
                "ts": round((record.start_t - origin[track]) * 1e6, 3),
                "dur": round(record.wall_seconds * 1e6, 3),
                "args": {
                    "span": record.span_id,
                    "parent": record.parent_id,
                    "status": record.status,
                    **{
                        key: value
                        for key, value in record.attrs.items()
                        if isinstance(value, (str, int, float, bool, type(None)))
                    },
                },
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Iterable[TraceEvent], path) -> int:
    """Write :func:`chrome_trace` output to ``path``; returns event count."""
    document = chrome_trace(events)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(document, stream, separators=(",", ":"))
        stream.write("\n")
    return len(document["traceEvents"])
