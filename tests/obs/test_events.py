"""Unit tests for trace events, the tagged codec, and tracer stamping."""

import json

import pytest

from repro.ioa import Action, Task
from repro.obs import (
    KINDS,
    RUN_START,
    STATE_EXPLORED,
    TASK_CHOSEN,
    RingBufferSink,
    TraceEvent,
    Tracer,
    decode_value,
    encode_value,
)


class TestCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            0,
            42,
            -3.5,
            "text",
            (1, 2, 3),
            ("nested", (4, ("deep",))),
            frozenset({1, 2, 3}),
            {"k": 1, 2: "v"},
            [1, (2,), frozenset({3})],
            Task("proc[0]", "step"),
            Task("atomic[cons]", ("perform", 1)),
            Action("invoke", ("cons", 0, ("init", 1))),
            Action("fail", (2,)),
            (Task("a", "t"), Action("inc", ())),
        ],
        ids=repr,
    )
    def test_round_trip(self, value):
        encoded = encode_value(value)
        # Must survive actual JSON serialization, not just the tagging.
        wire = json.loads(json.dumps(encoded))
        assert decode_value(wire) == value

    def test_tuple_and_list_stay_distinct(self):
        assert decode_value(json.loads(json.dumps(encode_value((1, 2))))) == (1, 2)
        assert decode_value(json.loads(json.dumps(encode_value([1, 2])))) == [1, 2]

    def test_unencodable_degrades_to_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert decode_value(encode_value(Opaque())) == "<opaque>"

    def test_task_decodes_to_task(self):
        task = Task("svc", ("output", 2))
        decoded = decode_value(json.loads(json.dumps(encode_value(task))))
        assert isinstance(decoded, Task)
        assert decoded == task


class TestTraceEvent:
    def test_json_round_trip(self):
        event = TraceEvent(
            seq=7,
            kind=TASK_CHOSEN,
            process="proc[1]",
            lamport=3,
            data={"task": Task("proc[1]", "step"), "step": 7},
        )
        back = TraceEvent.from_json(event.to_json())
        assert back == event

    def test_kinds_registry_contains_all_constants(self):
        assert RUN_START in KINDS
        assert STATE_EXPLORED in KINDS
        assert "checkpoint_saved" in KINDS
        assert "worker_round" not in KINDS
        assert "worker_lost" not in KINDS
        assert "worker_respawned" not in KINDS
        assert "state_quarantined" not in KINDS
        assert "span_start" in KINDS
        assert "span_end" in KINDS
        assert "sim_run" in KINDS
        assert "fault_fired" in KINDS
        assert "fuzz_candidate" in KINDS
        assert "shrink_step" in KINDS
        assert len(KINDS) == 18

    def test_kinds_of_removed_emitters_still_load(self):
        """A trace written while the engine had a worker pool holds
        ``worker_round`` events; ``KINDS`` is not enforced on read."""
        line = (
            '{"data":{"expanded":40,"round":2},"kind":"worker_round",'
            '"lamport":3,"process":null,"seq":3}'
        )
        event = TraceEvent.from_json(line)
        assert (event.kind, event.data) == ("worker_round", {"expanded": 40, "round": 2})
        assert event.to_json() == line


class TestTracerStamping:
    def test_seq_is_monotonic(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        for _ in range(5):
            tracer.emit(STATE_EXPLORED)
        seqs = [event.seq for event in sink.events()]
        assert seqs == [0, 1, 2, 3, 4]
        assert tracer.events_emitted == 5

    def test_lamport_increments_per_process(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        tracer.emit(TASK_CHOSEN, process="p")
        tracer.emit(TASK_CHOSEN, process="q")
        tracer.emit(TASK_CHOSEN, process="p")
        tracer.emit(TASK_CHOSEN, process="p")
        by_process = {}
        for event in sink.events():
            by_process.setdefault(event.process, []).append(event.lamport)
        assert by_process["p"] == [0, 1, 2]
        assert by_process["q"] == [0]

    def test_unattributed_events_use_seq_as_lamport(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        tracer.emit(STATE_EXPLORED)
        tracer.emit(STATE_EXPLORED)
        assert [event.lamport for event in sink.events()] == [0, 1]
