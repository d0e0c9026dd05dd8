"""Hierarchical spans layered on the :class:`TraceEvent` stream.

A *span* is a named interval of work with a parent link, wall and CPU
time, and arbitrary attributes — the unit the ``obs`` CLI, the Chrome
``trace_event`` exporter, and the flamegraph output all consume.  Spans
are not a new wire format: each span is exactly two ordinary trace
events,

* ``span_start`` — ``{"span": id, "parent": id|None, "name": ..., "t":
  perf_counter, **attrs}``, and
* ``span_end``   — ``{"span": id, "name": ..., "status": ...,
  "wall_seconds": ..., "cpu_seconds": ..., "t": ..., **attrs}``,

so existing sinks, replay segmentation, and the JSONL codec all apply
unchanged.  Parent links come from a per-tracer stack
(:attr:`~repro.obs.sinks.Tracer.span_stack`): every layer that shares a
tracer shares one hierarchy, which is how the engine pipeline composes
``pipeline > lemma4 > engine.run > checkpoint`` across modules without
threading span objects through call signatures.

Assembly
--------

:func:`assemble_spans` folds any event iterable back into
:class:`SpanRecord` values (a started-but-never-ended span becomes
``status="open"`` — the trace completeness tests assert a finished
trace contains none).  On top of records
sit :func:`summarize_spans` (per-name latency profile with
p50/p95/p99), :func:`folded_stacks` (flamegraph.pl input, self-time
weighted), and :func:`diff_span_profiles` (A/B comparison).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping

from .events import SPAN_END, SPAN_START, TraceEvent
from .metrics import percentile
from .sinks import Tracer


class Span:
    """One open span: identity, parent link, and start timestamps."""

    __slots__ = ("span_id", "name", "parent_id", "process", "_wall0", "_cpu0")

    def __init__(
        self,
        span_id: str,
        name: str,
        parent_id: str | None,
        process: Hashable = None,
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.parent_id = parent_id
        self.process = process
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()


def current_span_id(tracer: Tracer) -> str | None:
    """The id of the innermost open span of ``tracer``, or ``None``."""
    stack = tracer.span_stack
    return stack[-1] if stack else None


def start_span(
    tracer: Tracer, name: str, process: Hashable = None, **attrs
) -> Span | None:
    """Open a span under the tracer's current innermost span.

    Returns ``None`` (and emits nothing) when the tracer is disabled —
    :func:`end_span` accepts that ``None`` back, so call sites need no
    enabled-guard of their own beyond the usual hoisted check.
    """
    if not tracer.enabled:
        return None
    span = Span(tracer.next_span_id(), name, current_span_id(tracer), process)
    tracer.span_stack.append(span.span_id)
    tracer.emit(
        SPAN_START,
        process=process,
        span=span.span_id,
        parent=span.parent_id,
        name=name,
        t=span._wall0,
        **attrs,
    )
    return span


def end_span(tracer: Tracer, span: Span | None, status: str = "ok", **attrs) -> None:
    """Close ``span``, emitting wall/CPU time and ``status``."""
    if span is None or not tracer.enabled:
        return
    now = time.perf_counter()
    if tracer.span_stack and tracer.span_stack[-1] == span.span_id:
        tracer.span_stack.pop()
    elif span.span_id in tracer.span_stack:  # out-of-order close: still unwind
        tracer.span_stack.remove(span.span_id)
    tracer.emit(
        SPAN_END,
        process=span.process,
        span=span.span_id,
        name=span.name,
        status=status,
        wall_seconds=now - span._wall0,
        cpu_seconds=time.process_time() - span._cpu0,
        t=now,
        **attrs,
    )


@contextlib.contextmanager
def span(tracer: Tracer, name: str, process: Hashable = None, **attrs):
    """Context manager: a span around the block, ``status="error"`` on raise."""
    opened = start_span(tracer, name, process=process, **attrs)
    try:
        yield opened
    except BaseException:
        end_span(tracer, opened, status="error")
        raise
    else:
        end_span(tracer, opened)


def record_span(
    tracer: Tracer,
    name: str,
    wall_seconds: float,
    cpu_seconds: float = 0.0,
    *,
    parent_id: str | None = None,
    status: str = "ok",
    process: Hashable = None,
    **attrs,
) -> None:
    """Emit an already-measured span as a matched start/end pair.

    For work whose duration was accumulated elsewhere (a phase timed
    by hand): the start ``t`` is
    back-computed as ``now - wall_seconds`` so exporters still get a
    plausible interval.  The span never joins the open stack.
    """
    if not tracer.enabled:
        return
    span_id = tracer.next_span_id()
    now = time.perf_counter()
    parent = parent_id if parent_id is not None else current_span_id(tracer)
    tracer.emit(
        SPAN_START,
        process=process,
        span=span_id,
        parent=parent,
        name=name,
        t=now - wall_seconds,
        **attrs,
    )
    tracer.emit(
        SPAN_END,
        process=process,
        span=span_id,
        name=name,
        status=status,
        wall_seconds=wall_seconds,
        cpu_seconds=cpu_seconds,
        t=now,
        **attrs,
    )


# ---------------------------------------------------------------------------
# Assembly: events -> SpanRecords -> profiles
# ---------------------------------------------------------------------------


@dataclass
class SpanRecord:
    """One assembled span (``status="open"`` when the end never arrived)."""

    span_id: str
    name: str
    parent_id: str | None
    process: Hashable
    start_seq: int
    start_t: float
    attrs: dict = field(default_factory=dict)
    end_seq: int | None = None
    end_t: float | None = None
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    status: str = "open"


_SPAN_META = frozenset(
    {"span", "parent", "name", "t", "status", "wall_seconds", "cpu_seconds"}
)


def assemble_spans(events: Iterable[TraceEvent]) -> list[SpanRecord]:
    """Fold a trace's span events into records, in start order.

    Tolerates end-without-start (dropped prefix of a rotated trace):
    such ends are ignored.  Duplicate ids keep the first start.
    """
    records: dict[str, SpanRecord] = {}
    order: list[SpanRecord] = []
    for event in events:
        if event.kind == SPAN_START:
            data = event.data
            span_id = data["span"]
            if span_id in records:
                continue
            record = SpanRecord(
                span_id=span_id,
                name=data.get("name", "?"),
                parent_id=data.get("parent"),
                process=event.process,
                start_seq=event.seq,
                start_t=data.get("t", 0.0),
                attrs={k: v for k, v in data.items() if k not in _SPAN_META},
            )
            records[span_id] = record
            order.append(record)
        elif event.kind == SPAN_END:
            data = event.data
            record = records.get(data["span"])
            if record is None or record.status != "open":
                continue
            record.end_seq = event.seq
            record.end_t = data.get("t")
            record.wall_seconds = data.get("wall_seconds", 0.0)
            record.cpu_seconds = data.get("cpu_seconds", 0.0)
            record.status = data.get("status", "ok")
            for key, value in data.items():
                if key not in _SPAN_META:
                    record.attrs.setdefault(key, value)
    return order


def summarize_spans(records: Iterable[SpanRecord]) -> dict[str, dict]:
    """Per-span-name latency profile: count, wall/cpu totals, quantiles."""
    samples: dict[str, list[float]] = {}
    cpu: dict[str, float] = {}
    statuses: dict[str, dict[str, int]] = {}
    for record in records:
        samples.setdefault(record.name, []).append(record.wall_seconds)
        cpu[record.name] = cpu.get(record.name, 0.0) + record.cpu_seconds
        by_status = statuses.setdefault(record.name, {})
        by_status[record.status] = by_status.get(record.status, 0) + 1
    profile: dict[str, dict] = {}
    for name in sorted(samples, key=lambda n: -sum(samples[n])):
        walls = sorted(samples[name])
        total = sum(walls)
        profile[name] = {
            "count": len(walls),
            "wall_seconds": total,
            "cpu_seconds": cpu[name],
            "mean": total / len(walls),
            "p50": percentile(walls, 0.50),
            "p95": percentile(walls, 0.95),
            "p99": percentile(walls, 0.99),
            "max": walls[-1],
            "statuses": statuses[name],
        }
    return profile


def render_span_table(profile: Mapping[str, dict]) -> str:
    """The ``obs summarize`` table: one aligned row per span name."""
    if not profile:
        return "(no spans in trace)"
    header = (
        f"{'span':<24} {'count':>7} {'wall_s':>10} {'cpu_s':>10} "
        f"{'mean_ms':>9} {'p50_ms':>9} {'p95_ms':>9} {'p99_ms':>9}  status"
    )
    lines = [header, "-" * len(header)]
    for name, row in profile.items():
        status = ",".join(
            f"{key}={count}"
            for key, count in sorted(row["statuses"].items())
            if key != "ok"
        ) or "ok"
        lines.append(
            f"{name:<24} {row['count']:>7} {row['wall_seconds']:>10.4f} "
            f"{row['cpu_seconds']:>10.4f} {row['mean'] * 1e3:>9.3f} "
            f"{row['p50'] * 1e3:>9.3f} {row['p95'] * 1e3:>9.3f} "
            f"{row['p99'] * 1e3:>9.3f}  {status}"
        )
    return "\n".join(lines)


def folded_stacks(records: Iterable[SpanRecord]) -> dict[str, int]:
    """Semicolon-folded stacks weighted by self-time in microseconds.

    The format flamegraph.pl (and speedscope) consume: one
    ``root;child;leaf <count>`` line per distinct stack.  Self time is a
    span's wall time minus its children's, floored at zero (children
    overlapping their parent — recorded spans, or worker spans in a
    trace from the removed worker pool — cannot push a parent
    negative).
    """
    records = list(records)
    by_id = {record.span_id: record for record in records}
    child_wall: dict[str, float] = {}
    for record in records:
        if record.parent_id is not None and record.parent_id in by_id:
            child_wall[record.parent_id] = (
                child_wall.get(record.parent_id, 0.0) + record.wall_seconds
            )
    folded: dict[str, int] = {}
    for record in records:
        path: list[str] = []
        cursor: SpanRecord | None = record
        hops = 0
        while cursor is not None and hops < 64:  # cycle guard
            path.append(cursor.name)
            cursor = by_id.get(cursor.parent_id) if cursor.parent_id else None
            hops += 1
        stack = ";".join(reversed(path))
        self_us = int(
            max(0.0, record.wall_seconds - child_wall.get(record.span_id, 0.0)) * 1e6
        )
        if self_us:
            folded[stack] = folded.get(stack, 0) + self_us
    return folded


def render_folded_stacks(folded: Mapping[str, int]) -> str:
    """Folded stacks as flamegraph.pl input lines."""
    return "\n".join(f"{stack} {weight}" for stack, weight in sorted(folded.items()))


def diff_span_profiles(
    before: Mapping[str, dict], after: Mapping[str, dict]
) -> list[dict]:
    """Per-name comparison rows of two :func:`summarize_spans` profiles."""
    rows = []
    for name in sorted(set(before) | set(after)):
        a = before.get(name)
        b = after.get(name)
        wall_a = a["wall_seconds"] if a else 0.0
        wall_b = b["wall_seconds"] if b else 0.0
        rows.append(
            {
                "name": name,
                "count_a": a["count"] if a else 0,
                "count_b": b["count"] if b else 0,
                "wall_a": wall_a,
                "wall_b": wall_b,
                "delta_seconds": wall_b - wall_a,
                "ratio": (wall_b / wall_a) if wall_a else None,
            }
        )
    rows.sort(key=lambda row: -abs(row["delta_seconds"]))
    return rows


def render_span_diff(rows: list[dict]) -> str:
    """The ``obs diff`` table."""
    if not rows:
        return "(no spans in either trace)"
    header = (
        f"{'span':<24} {'count A':>8} {'count B':>8} {'wall A s':>10} "
        f"{'wall B s':>10} {'delta s':>10} {'ratio':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.2f}x"
        lines.append(
            f"{row['name']:<24} {row['count_a']:>8} {row['count_b']:>8} "
            f"{row['wall_a']:>10.4f} {row['wall_b']:>10.4f} "
            f"{row['delta_seconds']:>+10.4f} {ratio:>7}"
        )
    return "\n".join(lines)
