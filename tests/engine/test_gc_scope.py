"""Each exploration runs with a raised young-generation GC threshold.

The engine raises gen0's collection threshold while any exploration
runs and keeps gen1 and gen2.  The thresholds are process-global and
serve runs jobs on threads, so the first run to start saves them and
the last run to end restores them, whichever way it ends.
"""

import gc
import threading

import pytest

from repro.analysis import DeterministicSystemView
from repro.engine import Budget, BudgetExhausted, ExplorationEngine
from repro.engine.api import _GC_GEN0_THRESHOLD
from repro.protocols import delegation_consensus_system

BEFORE = (700, 10, 10)
DURING = (_GC_GEN0_THRESHOLD, 10, 10)


@pytest.fixture
def instance():
    system = delegation_consensus_system(3, resilience=1)
    view = DeterministicSystemView(system)
    root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
    return view, root


@pytest.fixture(autouse=True)
def known_thresholds():
    saved = gc.get_threshold()
    gc.set_threshold(*BEFORE)
    yield
    gc.set_threshold(*saved)


def explore_completes(view, root, cancel):
    ExplorationEngine(cancel=cancel).explore(view, root)


def store_scan_completes(view, root, cancel):
    ExplorationEngine(store="sqlite", cancel=cancel).scan(view, root)


def budget_exhausted(view, root, cancel):
    engine = ExplorationEngine(budget=Budget(max_states=50), cancel=cancel)
    with pytest.raises(BudgetExhausted):
        engine.explore(view, root)


def cancel_raises(view, root, cancel):
    def raising():
        cancel()
        raise OSError("cancel hook failed")

    with pytest.raises(OSError, match="cancel hook failed"):
        ExplorationEngine(cancel=raising).explore(view, root)


@pytest.mark.parametrize(
    "exit_path",
    [explore_completes, store_scan_completes, budget_exhausted, cancel_raises],
    ids=lambda value: value.__name__,
)
def test_threshold_raised_during_the_run_and_restored_after(instance, exit_path):
    seen = []

    def cancel():
        seen.append(gc.get_threshold())
        return False

    exit_path(*instance, cancel)
    assert seen and set(seen) == {DURING}
    assert gc.get_threshold() == BEFORE


def test_disabled_automatic_collection_stays_disabled(instance):
    gc.set_threshold(0, 10, 10)
    seen = []
    explore_completes(*instance, lambda: seen.append(gc.get_threshold()))
    assert set(seen) == {(0, 10, 10)}
    assert gc.get_threshold() == (0, 10, 10)


def test_overlapping_runs_restore_after_the_last(instance):
    """Two threads' explorations overlap; the first to end restores nothing."""
    view, root = instance
    both_running = threading.Barrier(2, timeout=60)
    first_ended = threading.Event()
    seen = {}
    errors = []

    def hook(name, wait_for=None):
        calls = []

        def cancel():
            if not calls:
                both_running.wait()
                if wait_for is not None:
                    assert wait_for.wait(60)
                seen[name] = gc.get_threshold()
            calls.append(None)
            return False

        return cancel

    def run(cancel, done=None):
        try:
            explore_completes(view, root, cancel)
        except BaseException as error:  # surfaced in the main thread
            errors.append(error)
            both_running.abort()
        finally:
            if done is not None:
                done.set()

    first = threading.Thread(target=run, args=(hook("first"), first_ended))
    second = threading.Thread(target=run, args=(hook("second", first_ended),))
    first.start()
    second.start()
    first.join(120)
    second.join(120)
    assert not errors, errors
    assert seen == {"first": DURING, "second": DURING}
    assert gc.get_threshold() == BEFORE
