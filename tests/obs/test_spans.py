"""Unit tests for hierarchical spans and span tooling."""

import pytest

from repro.obs import (
    NULL_TRACER,
    RingBufferSink,
    SPAN_END,
    SPAN_START,
    Tracer,
    assemble_spans,
    current_span_id,
    diff_span_profiles,
    end_span,
    folded_stacks,
    render_folded_stacks,
    render_span_diff,
    render_span_table,
    record_span,
    span,
    start_span,
    summarize_spans,
)


def tracer_pair():
    sink = RingBufferSink()
    return Tracer(sink), sink


class TestSpanEvents:
    def test_span_emits_start_and_end_pair(self):
        tracer, sink = tracer_pair()
        opened = start_span(tracer, "work", items=3)
        end_span(tracer, opened, status="ok", done=True)
        kinds = [event.kind for event in sink.events()]
        assert kinds == [SPAN_START, SPAN_END]
        start, end = sink.events()
        assert start.data["span"] == end.data["span"]
        assert start.data["name"] == "work"
        assert start.data["parent"] is None
        assert start.data["items"] == 3
        assert end.data["status"] == "ok"
        assert end.data["wall_seconds"] >= 0.0
        assert end.data["cpu_seconds"] >= 0.0

    def test_nested_spans_link_parents_via_tracer_stack(self):
        tracer, sink = tracer_pair()
        outer = start_span(tracer, "outer")
        assert current_span_id(tracer) == outer.span_id
        inner = start_span(tracer, "inner")
        assert inner.parent_id == outer.span_id
        end_span(tracer, inner)
        assert current_span_id(tracer) == outer.span_id
        end_span(tracer, outer)
        assert current_span_id(tracer) is None

    def test_disabled_tracer_emits_nothing_and_returns_none(self):
        assert start_span(NULL_TRACER, "work") is None
        end_span(NULL_TRACER, None)  # must not raise
        record_span(NULL_TRACER, "work", 1.0)

    def test_context_manager_sets_error_status_on_raise(self):
        tracer, sink = tracer_pair()
        with pytest.raises(ValueError):
            with span(tracer, "work"):
                raise ValueError("boom")
        (record,) = assemble_spans(sink.events())
        assert record.status == "error"
        assert current_span_id(tracer) is None

    def test_record_span_never_joins_stack(self):
        tracer, sink = tracer_pair()
        outer = start_span(tracer, "outer")
        record_span(tracer, "phase", 0.25, cpu_seconds=0.1)
        assert current_span_id(tracer) == outer.span_id
        end_span(tracer, outer)
        records = {r.name: r for r in assemble_spans(sink.events())}
        assert records["phase"].parent_id == outer.span_id
        assert records["phase"].wall_seconds == pytest.approx(0.25)
        assert records["phase"].cpu_seconds == pytest.approx(0.1)


class TestAssembly:
    def test_unclosed_span_is_open(self):
        tracer, sink = tracer_pair()
        start_span(tracer, "lonely")
        (record,) = assemble_spans(sink.events())
        assert record.status == "open"
        assert record.wall_seconds == 0.0

    def test_end_without_start_is_ignored(self):
        tracer, sink = tracer_pair()
        tracer.emit(SPAN_END, span="ghost", name="ghost", status="ok")
        assert assemble_spans(sink.events()) == []

    def test_summarize_and_render(self):
        tracer, sink = tracer_pair()
        for _ in range(3):
            with span(tracer, "step"):
                pass
        profile = summarize_spans(assemble_spans(sink.events()))
        assert profile["step"]["count"] == 3
        assert profile["step"]["p50"] <= profile["step"]["p99"]
        assert profile["step"]["statuses"] == {"ok": 3}
        table = render_span_table(profile)
        assert "step" in table and "p95_ms" in table

    def test_folded_stacks_self_time(self):
        tracer, sink = tracer_pair()
        record_span(tracer, "root", 1.0)
        records = assemble_spans(sink.events())
        # Hand-build a child under the root.
        record_span(tracer, "leaf", 0.25, parent_id=records[0].span_id)
        folded = folded_stacks(assemble_spans(sink.events()))
        assert folded["root"] == 750_000  # self time: 1.0s - 0.25s child
        assert folded["root;leaf"] == 250_000
        text = render_folded_stacks(folded)
        assert "root;leaf 250000" in text

    def test_diff_profiles(self):
        tracer_a, sink_a = tracer_pair()
        record_span(tracer_a, "work", 1.0)
        tracer_b, sink_b = tracer_pair()
        record_span(tracer_b, "work", 2.0)
        record_span(tracer_b, "extra", 0.5)
        rows = diff_span_profiles(
            summarize_spans(assemble_spans(sink_a.events())),
            summarize_spans(assemble_spans(sink_b.events())),
        )
        by_name = {row["name"]: row for row in rows}
        assert by_name["work"]["ratio"] == pytest.approx(2.0)
        assert by_name["extra"]["count_a"] == 0
        assert "extra" in render_span_diff(rows)
