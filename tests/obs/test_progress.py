"""Unit tests for the live progress reporter."""

import io

from repro.obs import ProgressReporter, progress_from_env
from repro.obs.progress import format_line
from repro.engine import Budget


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def snapshot(states, frontier, workers, elapsed, **store):
    """Live fields as the engine hands them over (``EngineReport.live``)."""
    return dict(
        states=states, frontier=frontier, workers=workers, elapsed=elapsed, **store
    )


def reporter(stream=None, **kwargs):
    stream = io.StringIO() if stream is None else stream
    clock = FakeClock()
    return ProgressReporter(stream=stream, clock=clock, **kwargs), stream, clock


class TestThrottle:
    def test_first_update_renders_then_throttles(self):
        progress, stream, clock = reporter(interval_seconds=0.25)
        assert progress.update(snapshot(10, 5, 2, 1.0))
        assert not progress.update(snapshot(11, 5, 2, 1.1))
        clock.now += 0.3
        assert progress.update(snapshot(12, 5, 2, 1.4))
        assert progress.renders == 2

    def test_force_bypasses_throttle(self):
        progress, stream, clock = reporter()
        progress.update(snapshot(1, 1, 1, 0.1))
        assert progress.update(snapshot(2, 1, 1, 0.2), force=True)


class TestFormatting:
    def test_line_contains_rate_frontier_workers(self):
        line = format_line(snapshot(1000, 50, 4, 2.0))
        assert "1000 states" in line
        assert "500 st/s" in line
        assert "frontier 50" in line
        assert "workers 4" in line

    def test_eta_against_max_states(self):
        line = format_line(snapshot(500, 10, 1, 1.0), Budget(max_states=1000))
        assert "50% of 1000 states" in line
        assert "~1s to cap" in line

    def test_eta_against_deadline(self):
        line = format_line(snapshot(100, 10, 1, 2.0), Budget(deadline_seconds=10.0))
        assert "deadline 8s left" in line

    def test_store_columns_render_when_given(self):
        line = format_line(snapshot(1000, 50, 4, 2.0, spilled=123, flush_ms=4.567))
        assert "spilled 123" in line
        assert "flush 4.6ms" in line

    def test_store_columns_absent_by_default(self):
        line = format_line(snapshot(1000, 50, 4, 2.0))
        assert "spilled" not in line
        assert "flush" not in line

    def test_update_passes_store_columns_through(self):
        progress, stream, _ = reporter()
        progress.update(snapshot(10, 5, 1, 1.0, spilled=7, flush_ms=1.25))
        output = stream.getvalue()
        assert "spilled 7" in output
        assert "flush 1.2ms" in output or "flush 1.3ms" in output

    def test_non_tty_writes_plain_lines(self):
        progress, stream, _ = reporter()
        progress.update(snapshot(1, 1, 1, 0.1))
        progress.finish()
        output = stream.getvalue()
        assert output.endswith("\n")
        assert "\r" not in output

    def test_non_tty_one_line_per_interval(self):
        progress, stream, clock = reporter(interval_seconds=0.25)
        progress.update(snapshot(1, 1, 1, 0.1))
        clock.now += 0.3
        progress.update(snapshot(2, 1, 1, 0.4))
        clock.now += 0.3
        progress.update(snapshot(3, 1, 1, 0.7))
        lines = [
            line for line in stream.getvalue().splitlines() if line.strip()
        ]
        assert len(lines) == 3
        assert all("states" in line for line in lines)

    def test_tty_redraws_in_place(self):
        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        progress, stream, clock = reporter(stream=stream)
        progress.update(snapshot(1, 1, 1, 0.1))
        clock.now += 1.0
        progress.update(snapshot(2, 1, 1, 0.2))
        progress.finish()
        output = stream.getvalue()
        assert output.count("\r") == 2
        assert output.endswith("\n")


class TestEnv:
    def test_unset_or_zero_disables(self):
        assert progress_from_env({}) is None
        assert progress_from_env({"REPRO_PROGRESS": "0"}) is None
        assert progress_from_env({"REPRO_PROGRESS": "  "}) is None

    def test_set_enables(self):
        assert progress_from_env({"REPRO_PROGRESS": "1"}) is not None


class TestEngineIntegration:
    def test_sequential_run_drives_reporter(self):
        from repro.analysis import DeterministicSystemView
        from repro.engine import ExplorationEngine
        from repro.protocols import last_writer_register_system

        system = last_writer_register_system()
        view = DeterministicSystemView(system)
        root = system.initialization(
            {pid: 0 for pid in system.process_ids}
        ).final_state
        stream = io.StringIO()
        progress = ProgressReporter(stream=stream, interval_seconds=0.0)
        engine = ExplorationEngine(progress=progress)
        engine.explore(view, root)
        assert progress.renders >= 1
        assert "states" in stream.getvalue()

    def test_progress_false_forces_off(self, monkeypatch):
        from repro.engine import ExplorationEngine

        monkeypatch.setenv("REPRO_PROGRESS", "1")
        assert ExplorationEngine(progress=False).progress is None
        assert ExplorationEngine().progress is not None

    def test_renderers_agree_on_one_snapshot(self, tmp_path):
        """The final progress line, heartbeat, report and ``engine.run``
        span all render the engine's one end-of-run snapshot."""
        from repro.analysis import DeterministicSystemView
        from repro.engine import Budget, ExplorationEngine
        from repro.obs import RingBufferSink, Tracer
        from repro.obs.ledger import RunLedger
        from repro.protocols import delegation_consensus_system

        class Capturing(ProgressReporter):
            def render(self, snapshot, budget=None):
                self.last = (snapshot, budget)
                super().render(snapshot, budget)

        system = delegation_consensus_system(4, 1)
        root = system.initialization({0: 0, 1: 1, 2: 0, 3: 1}).final_state
        stream = io.StringIO()
        progress = Capturing(stream=stream)
        ledger = RunLedger(tmp_path / "runs")
        handle = ledger.open("explore", "delegation(4,1)")
        sink = RingBufferSink()
        budget = Budget(max_states=100_000)
        engine = ExplorationEngine(
            budget=budget,
            store=f"sqlite:{tmp_path / 'store'}",
            flush_interval=100,
            tracer=Tracer(sink),
            progress=progress,
            run=handle,
        )
        graph = engine.explore(DeterministicSystemView(system), root)

        report = engine.last_report
        snapshot, rendered_budget = progress.last
        heartbeat = ledger.read_heartbeat(handle.run_id)
        span_end = [
            event.data
            for event in sink
            if event.kind == "span_end" and event.data["name"] == "engine.run"
        ][-1]
        assert report.flush_ms is not None  # the sqlite store flushed
        assert report.states == len(graph.states)
        assert report.transitions == sum(len(out) for out in graph.edges.values())
        expected = {
            "states": report.states,
            "transitions": report.transitions,
            "frontier": report.frontier,
            "spilled": report.spilled_states,
            "flush_ms": report.flush_ms,
        }
        for rendered in (snapshot, heartbeat, span_end):
            assert {key: rendered[key] for key in expected} == expected
        assert rendered_budget is budget
        final_line = stream.getvalue().splitlines()[-1]
        assert final_line == "[repro] " + format_line(heartbeat, budget)
