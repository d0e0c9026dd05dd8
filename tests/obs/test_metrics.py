"""Unit tests for the metrics registry and the profiling helpers."""

import pytest

from repro.ioa import Action, RoundRobinScheduler, Task, run
from repro.ioa.automaton import Automaton, Transition
from repro.obs import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetricsRegistry,
    Timer,
    render_metrics_table,
    timed,
)


class Counter(Automaton):
    """Toy automaton: 'inc' always enabled, 'dec' enabled when positive."""

    def __init__(self, name="counter"):
        self.name = name
        self.inc = Task(name, "inc")
        self.dec = Task(name, "dec")

    def is_input(self, action):
        return action.kind == "reset"

    def is_output(self, action):
        return False

    def is_internal(self, action):
        return action.kind in ("inc", "dec")

    def start_states(self):
        yield 0

    def tasks(self):
        return (self.inc, self.dec)

    def enabled(self, state, task):
        if task == self.inc:
            return [Transition(Action("inc"), state + 1)]
        if task == self.dec and state > 0:
            return [Transition(Action("dec"), state - 1)]
        return []

    def apply_input(self, state, action):
        return 0


class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(4)
        assert registry.snapshot()["counters"]["hits"] == 5

    def test_gauge_holds_last_value(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(3)
        registry.gauge("depth").set(9)
        assert registry.snapshot()["gauges"]["depth"] == 9

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            registry.histogram("lat").observe(value)
        summary = registry.snapshot()["histograms"]["lat"]
        assert summary["count"] == 3
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["p50"] == pytest.approx(2.0)

    def test_histogram_percentiles_interpolate(self):
        histogram = MetricsRegistry().histogram("lat")
        for value in range(1, 101):  # 1..100
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)
        assert summary["p99"] == pytest.approx(99.01)

    def test_histogram_empty_percentiles_are_none(self):
        summary = MetricsRegistry().histogram("lat").summary()
        assert summary["p50"] is None
        assert summary["p95"] is None
        assert summary["p99"] is None

    def test_percentile_function(self):
        from repro.obs import percentile

        assert percentile([5.0], 0.99) == 5.0
        assert percentile([1.0, 3.0], 0.5) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_histogram_sample_cap_keeps_quantiles_sane(self):
        histogram = MetricsRegistry().histogram("lat")
        n = histogram.SAMPLE_CAP * 3
        for value in range(n):
            histogram.observe(float(value))
        assert histogram.count == n
        assert len(histogram._samples) < histogram.SAMPLE_CAP
        # Decimation is uniform, so quantiles stay close to exact.
        assert histogram.quantile(0.5) == pytest.approx(n / 2, rel=0.01)
        assert histogram.quantile(0.99) == pytest.approx(0.99 * n, rel=0.01)

    def test_render_table_shows_percentiles(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            registry.histogram("lat").observe(value)
        text = render_metrics_table(registry.snapshot())
        assert "p50=2" in text and "p95=" in text and "p99=" in text

    def test_create_or_get_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        registry.reset()
        assert registry.snapshot()["counters"] == {}

    def test_render_table_lists_all_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a.count").inc(2)
        registry.gauge("b.level").set(1)
        text = render_metrics_table(registry.snapshot())
        assert "a.count" in text and "b.level" in text


class TestNullRegistry:
    def test_disabled_and_records_nothing(self):
        assert NULL_METRICS.enabled is False
        NULL_METRICS.counter("x").inc(100)
        NULL_METRICS.gauge("y").set(5)
        NULL_METRICS.histogram("z").observe(1.0)
        snapshot = NULL_METRICS.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}
        assert snapshot["histograms"] == {}

    def test_is_singleton_style_registry(self):
        assert isinstance(NULL_METRICS, NullMetricsRegistry)


class TestHandCountedRun:
    def test_scheduler_counters_match_hand_count(self):
        counter = Counter()
        metrics = MetricsRegistry()
        # Round-robin from 0 alternates inc/dec: exactly 6 steps happen.
        run(counter, RoundRobinScheduler(), max_steps=6, metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters["scheduler.steps"] == 6
        assert counters["scheduler.runs"] == 1
        assert counters.get("scheduler.inputs", 0) == 0

    def test_input_counter_matches_hand_count(self):
        counter = Counter()
        metrics = MetricsRegistry()
        run(
            counter,
            RoundRobinScheduler(),
            max_steps=2,
            inputs=[(0, Action("reset")), (1, Action("reset"))],
            metrics=metrics,
        )
        assert metrics.snapshot()["counters"]["scheduler.inputs"] == 2

    def test_explore_counters_match_graph(self):
        from repro.analysis import DeterministicSystemView, explore
        from repro.protocols import last_writer_register_system

        system = last_writer_register_system()
        view = DeterministicSystemView(system)
        root = system.initialization(
            {pid: 0 for pid in system.process_ids}
        ).final_state
        metrics = MetricsRegistry()
        graph = explore(view, root, metrics=metrics)
        counters = metrics.snapshot()["counters"]
        assert counters["explore.states"] == len(graph.states)
        assert counters["explore.transitions"] == graph.edge_count()
        assert counters["explore.runs"] == 1
        assert metrics.snapshot()["gauges"]["explore.last_run_states"] == len(
            graph.states
        )


class TestProfiling:
    def test_timer_observes_histogram(self):
        registry = MetricsRegistry()
        with timed(registry, "block"):
            pass
        assert registry.snapshot()["histograms"]["block"]["count"] == 1

    def test_timer_observes_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            with timed(registry, "block"):
                raise ValueError("boom")
        assert registry.snapshot()["histograms"]["block"]["count"] == 1

    def test_timer_elapsed_is_nonnegative(self):
        registry = MetricsRegistry()
        with timed(registry, "block") as timer:
            pass
        assert isinstance(timer, Timer)
        assert timer.elapsed >= 0.0
