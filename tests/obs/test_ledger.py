"""Unit tests for the run ledger: identity, heartbeats, crash derivation.

The crash-safety contract under test: a run that dies without writing
its terminal record must still be reconstructable — the ``running``
record plus a stale heartbeat (or a dead pid) derive ``interrupted``,
and the artifacts written into the *opening* record (resume command,
checkpoint dir) survive because they never depended on ``finish()``.
"""

import json
import os

import pytest

from repro.obs import RunLedger, RunRecord
from repro.obs.ledger import (
    DEFAULT_RUNS_DIR,
    INTERRUPTED,
    RUNNING,
    diff_runs,
    new_run_id,
    resolve_runs_dir,
)


class TestRunId:
    def test_shape(self):
        run_id = new_run_id("refute")
        kind, stamp, token = run_id.rsplit("-", 2)
        assert kind == "refute"
        assert len(stamp) == 14 and stamp.isdigit()
        assert len(token) == 6

    def test_unsafe_kind_sanitized(self):
        assert new_run_id("a b/c").startswith("a-b-c-")
        assert new_run_id("").startswith("run-")

    def test_unique(self):
        assert new_run_id("x") != new_run_id("x")


class TestResolveRunsDir:
    def test_flag_wins_over_environment(self):
        path = resolve_runs_dir("/tmp/flagged", environ={"REPRO_RUNS_DIR": "/tmp/env"})
        assert str(path) == "/tmp/flagged"

    def test_environment_wins_over_default(self):
        path = resolve_runs_dir(None, environ={"REPRO_RUNS_DIR": "/tmp/env"})
        assert str(path) == "/tmp/env"

    def test_default(self):
        assert str(resolve_runs_dir(None, environ={})) == DEFAULT_RUNS_DIR

    @pytest.mark.parametrize("spelling", ["", "0", "none", "off", "NONE", " Off "])
    def test_disabled_spellings(self, spelling):
        assert resolve_runs_dir(spelling, environ={}) is None
        assert resolve_runs_dir(None, environ={"REPRO_RUNS_DIR": spelling}) is None


class TestRunRecord:
    def test_roundtrip(self):
        record = RunRecord(
            run_id="refute-1-a",
            kind="refute",
            instance="tob(n=3,f=1)",
            status="completed",
            started_at=10.0,
            finished_at=12.5,
            pid=42,
            budget={"max_states": 1000},
            store="sqlite:/tmp/s",
            verdict={"refuted": True},
            phases={"expand": 1.5},
            counters={"engine.states": 900},
            peak_rss_kb=2048,
            artifacts={"resume": "repro refute ..."},
            links={"job_id": "j-1"},
            error=None,
        )
        assert RunRecord.from_json(record.to_json()) == record

    def test_from_json_defaults_missing_fields(self):
        record = RunRecord.from_json({"run_id": "x-1"})
        assert record.kind == "run"
        assert record.status == RUNNING
        assert record.counters == {} and record.artifacts == {}

    def test_from_json_ignores_the_workers_field(self):
        """Records written while the engine had a worker pool carry a
        ``workers`` count; they still parse, and the field is dropped."""
        record = RunRecord.from_json(
            {"run_id": "refute-1-a", "kind": "refute", "pid": 42, "workers": 2}
        )
        assert (record.run_id, record.kind, record.pid) == ("refute-1-a", "refute", 42)
        assert "workers" not in record.to_json()


class TestLifecycle:
    def test_open_then_finish_latest_wins(self, tmp_path):
        ledger = RunLedger(tmp_path)
        run = ledger.open(
            "refute",
            "tob(n=3,f=1)",
            budget={"max_states": 10},
            store="sqlite:/tmp/s",
            artifacts={"resume": "repro refute tob --resume ck"},
        )
        opening = ledger.find(run.run_id)
        assert opening.status == RUNNING
        assert opening.pid == os.getpid()
        assert opening.artifacts["resume"].startswith("repro refute")

        run.finish(
            "completed",
            verdict={"refuted": False},
            counters={"engine.states": 7},
            phases={"expand": 0.1},
            peak_rss_kb=123,
        )
        assert len(ledger.records()) == 2
        final = ledger.find(run.run_id)
        assert final.status == "completed"
        assert final.verdict == {"refuted": False}
        assert final.artifacts["resume"].startswith("repro refute")
        assert ledger.status_of(final) == "completed"

    def test_record_one_shot(self, tmp_path):
        ledger = RunLedger(tmp_path)
        record = ledger.record("bench", "codec", counters={"ns_per_op": 12.5})
        assert record.status == "completed"
        assert record.finished_at is not None
        assert ledger.find(record.run_id).counters == {"ns_per_op": 12.5}

    def test_find_prefix_and_ambiguity(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.record("bench", "unrelated")
        first = ledger.open("refute", run_id="refute-1-aa")
        second = ledger.open("refute", run_id="refute-1-ab")
        assert ledger.find("refute-1-aa").run_id == first.run_id
        assert ledger.find("refute-1-ab").run_id == second.run_id
        with pytest.raises(KeyError, match="ambiguous"):
            ledger.find("refute-1-a")
        with pytest.raises(KeyError, match="no run"):
            ledger.find("missing")

    def test_torn_tail_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.record("bench", "ok")
        with open(ledger.path, "a", encoding="utf-8") as stream:
            stream.write('{"run_id": "torn", "kind"')  # crash mid-write
        assert [r.instance for r in ledger.records()] == ["ok"]

    def test_empty_directory_reads_clean(self, tmp_path):
        ledger = RunLedger(tmp_path / "never-created")
        assert ledger.records() == []
        assert ledger.latest() == {}


class TestHeartbeat:
    def test_first_beat_writes_then_throttles(self, tmp_path):
        ledger = RunLedger(tmp_path)
        run = ledger.open("refute", heartbeat_interval=30.0)
        assert run.heartbeat(states=10, elapsed=2.0)
        assert not run.heartbeat(states=20, elapsed=3.0)
        assert run.heartbeat(states=20, elapsed=3.0, force=True)

    def test_document_shape(self, tmp_path):
        ledger = RunLedger(tmp_path)
        run = ledger.open("refute")
        run.heartbeat(states=100, elapsed=4.0, frontier=7, flush_ms=None)
        document = ledger.read_heartbeat(run.run_id)
        assert document["run"] == run.run_id
        assert document["pid"] == os.getpid()
        assert document["states"] == 100
        assert document["frontier"] == 7
        assert document["states_per_sec"] == 25.0
        assert "flush_ms" not in document  # None fields are dropped

    def test_atomic_rewrite_leaves_no_temporaries(self, tmp_path):
        ledger = RunLedger(tmp_path)
        run = ledger.open("sim")
        run.heartbeat(states=1, elapsed=1.0)
        run.heartbeat(states=2, elapsed=2.0, force=True)
        names = [p.name for p in ledger.heartbeat_dir.iterdir()]
        assert names == [f"{run.run_id}.json"]

    def test_unreadable_heartbeat_is_none(self, tmp_path):
        ledger = RunLedger(tmp_path)
        run = ledger.open("sim")
        run.heartbeat(states=1, elapsed=1.0)
        ledger.heartbeat_path(run.run_id).write_text("{torn", encoding="utf-8")
        assert ledger.read_heartbeat(run.run_id) is None
        assert ledger.read_heartbeat("never-beat") is None


class TestStatusDerivation:
    def test_terminal_status_is_recorded_verbatim(self, tmp_path):
        ledger = RunLedger(tmp_path)
        run = ledger.open("refute")
        run.finish("exhausted", error="budget: max_states=10")
        assert ledger.status_of(ledger.find(run.run_id)) == "exhausted"

    def test_live_fresh_run_is_running(self, tmp_path):
        ledger = RunLedger(tmp_path)
        run = ledger.open("refute")
        run.heartbeat(states=1, elapsed=0.5)
        assert ledger.status_of(ledger.find(run.run_id)) == RUNNING

    def test_dead_pid_derives_interrupted_immediately(self, tmp_path):
        # A SIGKILLed run shows interrupted without waiting out staleness.
        ledger = RunLedger(tmp_path)
        run = ledger.open("refute")
        record = ledger.find(run.run_id)
        record.pid = 2**22 + os.getpid()  # beyond pid_max: never alive
        assert ledger.status_of(record) == INTERRUPTED

    def test_stale_heartbeat_derives_interrupted(self, tmp_path):
        ledger = RunLedger(tmp_path)
        run = ledger.open("refute", heartbeat_interval=1.0)
        run.heartbeat(states=1, elapsed=0.5)
        record = ledger.find(run.run_id)
        heartbeat = ledger.read_heartbeat(run.run_id)
        assert not ledger.heartbeat_stale(record, heartbeat, now=heartbeat["t"] + 1)
        assert ledger.heartbeat_stale(record, heartbeat, now=heartbeat["t"] + 10)
        assert (
            ledger.status_of(record, heartbeat, now=heartbeat["t"] + 10)
            == INTERRUPTED
        )

    def test_staleness_floor_is_five_seconds(self, tmp_path):
        ledger = RunLedger(tmp_path)
        run = ledger.open("refute", heartbeat_interval=0.1)
        run.heartbeat(states=1, elapsed=0.5)
        record = ledger.find(run.run_id)
        heartbeat = ledger.read_heartbeat(run.run_id)
        assert not ledger.heartbeat_stale(record, heartbeat, now=heartbeat["t"] + 4)


class TestGc:
    def test_finalizes_interrupted_and_prunes_heartbeats(self, tmp_path):
        # Simulate a SIGKILLed run: a running record whose pid is dead
        # and no heartbeat with a fresher pid to contradict it.
        ledger = RunLedger(tmp_path)
        dead = ledger.open("refute")
        record = ledger.find(dead.run_id)
        record.pid = 2**22 + os.getpid()  # beyond pid_max: never alive
        ledger.path.write_text(
            json.dumps(record.to_json(), sort_keys=True) + "\n", encoding="utf-8"
        )

        summary = ledger.gc()
        assert summary["finalized_interrupted"] == 1
        final = ledger.find(dead.run_id)
        assert final.status == INTERRUPTED
        assert "died" in final.error
        assert not list(ledger.heartbeat_dir.glob("*.json"))

    def test_keep_drops_oldest_terminal_runs(self, tmp_path):
        ledger = RunLedger(tmp_path)
        for index in range(4):
            handle = ledger.open("bench", f"row{index}")
            handle.record.started_at = float(index)
            handle.finish("completed")
        summary = ledger.gc(keep=2)
        assert summary == {
            "runs": 2,
            "dropped": 2,
            "finalized_interrupted": 0,
            "pruned_heartbeats": 0,
        }
        kept = {record.instance for record in ledger.records()}
        assert kept == {"row2", "row3"}

    def test_compacts_to_one_line_per_run(self, tmp_path):
        ledger = RunLedger(tmp_path)
        run = ledger.open("refute")
        run.finish("completed")
        assert len(list(open(ledger.path, encoding="utf-8"))) == 2
        ledger.gc()
        assert len(list(open(ledger.path, encoding="utf-8"))) == 1


class TestDiffRuns:
    def test_counters_then_phases(self):
        before = RunRecord(
            run_id="a",
            kind="bench",
            status="completed",
            counters={"states": 100, "old_only": 1},
            phases={"expand": 2.0},
        )
        after = RunRecord(
            run_id="b",
            kind="bench",
            status="completed",
            counters={"states": 150, "new_only": 3},
            phases={"expand": 1.0},
        )
        rows = diff_runs(before, after)
        assert [row["metric"] for row in rows] == [
            "new_only",
            "old_only",
            "states",
            "phase.expand",
        ]
        states = next(row for row in rows if row["metric"] == "states")
        assert states == {
            "metric": "states",
            "before": 100,
            "after": 150,
            "delta": 50,
            "ratio": 1.5,
        }
        missing = next(row for row in rows if row["metric"] == "old_only")
        assert missing["delta"] is None and missing["ratio"] is None


class TestRunIdThreading:
    def test_tracer_stamps_run_into_every_event(self, tmp_path):
        from repro.obs import JsonlSink, TraceEvent, Tracer

        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            tracer = Tracer(sink, run_id="refute-1-abc")
            tracer.emit("run_start", n=3)
            tracer.emit("state_expanded", process=0)
        events = [
            TraceEvent.from_json(line) for line in path.read_text().splitlines()
        ]
        assert len(events) == 2
        assert all(event.run == "refute-1-abc" for event in events)

    def test_event_without_run_omits_the_key(self, tmp_path):
        from repro.obs import JsonlSink, Tracer

        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            Tracer(sink).emit("run_start")
        document = json.loads(path.read_text())
        assert "run" not in document
