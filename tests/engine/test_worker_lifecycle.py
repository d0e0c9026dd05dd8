"""Worker lifecycle: cache resets and coordinator death.

Two properties of real forked pools that the in-process stubs of
``test_worker_pool.py`` cannot show:

* the coordinator owns each worker's decoded-state cache resets, so a
  pool whose caches overflow many times over still explores the
  identical graph (a worker death would raise ``WorkerLost``);
* a worker holds no copy of any coordinator pipe end, so SIGKILLing the
  coordinator delivers EOF and every child process exits with it.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.analysis import DeterministicSystemView, explore
from repro.engine import Budget, ExplorationEngine, fork_available
from repro.engine import parallel
from repro.protocols import delegation_consensus_system

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="worker lifecycle needs forked workers"
)


@needs_fork
def test_cache_resets_keep_graph_and_workers(monkeypatch, tmp_path):
    system = delegation_consensus_system(5, resilience=1)
    view = DeterministicSystemView(system)
    proposals = {
        endpoint: index % 2 for index, endpoint in enumerate(system.process_ids)
    }
    root = system.initialization(proposals).final_state
    sequential = explore(view, root, budget=Budget(max_states=500_000))
    limit = 1000
    assert len(sequential.states) > 4 * limit  # every worker resets
    # Set before the pool forks, so workers inherit the low cap too.
    monkeypatch.setattr(parallel, "WORKER_CACHE_LIMIT", limit)
    engine = ExplorationEngine(
        workers=2, budget=Budget(), store=f"sqlite:{tmp_path / 'store'}"
    )
    graph = engine.explore(DeterministicSystemView(system), root)
    assert list(graph.states) == list(sequential.states)
    assert graph.edges == sequential.edges
    assert not engine.last_report.degraded


_COORDINATOR = textwrap.dedent(
    """
    import sys

    from repro.analysis import DeterministicSystemView
    from repro.engine import Budget, ExplorationEngine
    from repro.protocols import tob_delegation_system

    system = tob_delegation_system(4, resilience=1)
    proposals = {
        endpoint: index % 2 for index, endpoint in enumerate(system.process_ids)
    }
    root = system.initialization(proposals).final_state
    engine = ExplorationEngine(
        workers=2,
        budget=Budget(max_states=400_000),
        store=sys.argv[1],
        progress=False,
    )
    engine.scan(DeterministicSystemView(system), root)
    """
)


def _children(pid: int) -> set[int]:
    """Pids whose parent is ``pid`` (from /proc/<pid>/stat)."""
    children = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == pid:
            children.add(int(entry.name))
    return children


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@needs_fork
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_workers_exit_when_coordinator_killed(tmp_path):
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    coordinator = subprocess.Popen(
        [sys.executable, "-c", _COORDINATOR, f"sqlite:{tmp_path / 'store'}"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    children: set[int] = set()
    try:
        deadline = time.monotonic() + 60.0
        while len(children) < 2 and time.monotonic() < deadline:
            assert coordinator.poll() is None, "coordinator exited early"
            time.sleep(0.1)
            children = _children(coordinator.pid)
        assert len(children) >= 2, "the pool never forked its workers"
        # Let the first rounds put work in flight, then look again: the
        # workers plus multiprocessing's resource tracker.
        time.sleep(1.0)
        children |= _children(coordinator.pid)
        coordinator.send_signal(signal.SIGKILL)
        coordinator.wait(timeout=10)
        deadline = time.monotonic() + 10.0
        alive = {pid for pid in children if _running(pid)}
        while alive and time.monotonic() < deadline:
            time.sleep(0.1)
            alive = {pid for pid in children if _running(pid)}
        assert not alive, f"children outlived the killed coordinator: {alive}"
    finally:
        if coordinator.poll() is None:
            coordinator.kill()
            coordinator.wait()
        for pid in children:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
