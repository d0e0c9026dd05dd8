"""E-store: the disk-backed sqlite StateStore vs the in-RAM engine.

Two evidence tables, both appended to ``BENCH_engine.json``:

* **backend comparison** — one instance explored through the
  :class:`repro.engine.StateStore` ``sqlite`` backend and through the
  classic in-RAM engine, workers=1.  The store run must reproduce the
  *identical* graph (state discovery order and edge dict — the store's
  documented guarantee); rows record states/sec, peak RSS, flush
  count/seconds and spilled frontier digests, so the price of
  durability is a number, not a vibe.

* **acceptance scale** (``REPRO_BENCH_FULL=1``) — ``tob(5, 1)`` scanned
  through the sqlite backend past 10^6 discovered states under an
  *enforced* 1.5 GB ceiling (``RLIMIT_AS`` in the child process: if the
  run exceeds the ceiling it dies, it does not quietly get measured).
  The run is SIGKILLed mid-flight and resumed from its streaming delta
  segments, so the row is simultaneously the scale, memory-ceiling, and
  kill-and-resume acceptance evidence.

Instance selection: the comparison uses ``delegation_consensus_system
(6, 1)`` (~29k states, seconds per run).  The scale run is minutes
long and therefore gated behind ``REPRO_BENCH_FULL=1`` like the other
full-size configurations.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from time import perf_counter

import pytest
from conftest import GcCollections, report

from repro.analysis import DeterministicSystemView
from repro.engine import Budget, ExplorationEngine
from repro.protocols import delegation_consensus_system, tob_delegation_system

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")
RSS_LIMIT_MB = 1536
SCALE_TARGET_STATES = 1_000_000
SCALE_BUDGET = 1_050_000
KILL_AT_EXPANSIONS = 150_000


def _instance():
    system = delegation_consensus_system(6, resilience=1)
    proposals = {
        endpoint: index % 2 for index, endpoint in enumerate(system.process_ids)
    }
    view = DeterministicSystemView(system)
    root = system.initialization(proposals).final_state
    return "delegation(n=6, f=1)", view, root


def _store_uri(tmp_path):
    # flush=10000 so the instance crosses several durable-flush
    # boundaries and the flush columns measure real work.
    return f"sqlite:{tmp_path / 'sqlite'}?flush=10000"


def test_backend_comparison(tmp_path):
    # Each contender explores a fresh system, so none inherits another's
    # warm transition memo.
    label, view, root = _instance()
    budget = Budget(max_states=2_000_000)

    engine = ExplorationEngine(workers=1, budget=budget)
    with GcCollections() as collections:
        start = perf_counter()
        classic = engine.explore(view, root)
        classic_seconds = perf_counter() - start
    states = len(classic.states)

    def row(backend, seconds, engine_report, collections):
        return {
            "backend": backend,
            "states": states,
            "seconds": round(seconds, 3),
            "states_per_sec": round(states / seconds, 1),
            "peak_rss_kb": engine_report.peak_rss_kb,
            "flushes": engine_report.store_flushes,
            "flush_seconds": round(engine_report.store_flush_seconds, 3),
            "spilled_states": engine_report.spilled_states,
            "memo_misses": engine_report.memo_misses,
            **collections.columns(),
            "cpu_count": os.cpu_count(),
        }

    rows = [row("none (classic)", classic_seconds, engine.last_report, collections)]

    _, view, root = _instance()
    engine = ExplorationEngine(workers=1, budget=budget, store=_store_uri(tmp_path))
    with GcCollections() as collections:
        start = perf_counter()
        graph = engine.explore(view, root)
        seconds = perf_counter() - start
    assert list(graph.states) == list(classic.states)
    assert graph.edges == classic.edges
    rows.append(row("sqlite", seconds, engine.last_report, collections))

    report(
        f"E-store: backend comparison {label} workers=1 (identical graph)",
        rows,
        artifact="BENCH_engine.json",
    )


SCALE_CHILD = textwrap.dedent(
    """
    import json, resource, signal, sys
    from time import perf_counter

    from repro.analysis import DeterministicSystemView
    from repro.engine import Budget, BudgetExhausted, ExplorationEngine
    from repro.protocols import tob_delegation_system

    mode, uri, checkpoint_dir, limit_mb = sys.argv[1:5]
    limit = int(limit_mb) * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    system = tob_delegation_system(5, resilience=1)
    proposals = {e: i % 2 for i, e in enumerate(system.process_ids)}
    view = DeterministicSystemView(system)
    root = system.initialization(proposals).final_state

    expanded = [0]
    def kill_switch(state):
        expanded[0] += 1
        if expanded[0] == KILL_AT:
            import os
            os.kill(os.getpid(), signal.SIGKILL)
        return False

    engine = ExplorationEngine(
        workers=1,
        budget=Budget(max_states=BUDGET),
        store=uri,
        checkpoint_dir=checkpoint_dir,
        resume=(mode == "resume"),
    )
    start = perf_counter()
    # The engine namespaces the store directory by root digest, so the
    # discovered-state count must come from the engine's own report
    # (a bare open_store(uri) readback would open an empty sibling dir).
    try:
        states = engine.scan(
            view, root, prune=kill_switch if mode == "kill" else None
        ).states
        exhausted = False
    except BudgetExhausted as error:
        states = error.states
        exhausted = True
    seconds = perf_counter() - start
    print(json.dumps({
        "states": states,
        "exhausted": exhausted,
        "seconds": round(seconds, 1),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    """
).replace("KILL_AT", str(KILL_AT_EXPANSIONS)).replace("BUDGET", str(SCALE_BUDGET))


@pytest.mark.skipif(not FULL, reason="set REPRO_BENCH_FULL=1 for the scale run")
def test_scale_past_1e6_states_under_rss_ceiling(tmp_path):
    """tob(5,1) past 10^6 states, SIGKILL + resume, RLIMIT_AS-enforced."""
    uri = f"sqlite:{tmp_path / 'scale'}"
    checkpoint_dir = tmp_path / "ck"
    script = tmp_path / "child.py"
    script.write_text(SCALE_CHILD)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), *sys.path) if p
    )

    def run(mode):
        return subprocess.run(
            [
                sys.executable,
                str(script),
                mode,
                uri,
                str(checkpoint_dir),
                str(RSS_LIMIT_MB),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=1800,
        )

    killed = run("kill")
    assert killed.returncode == -signal.SIGKILL, killed.stderr

    resumed = run("resume")
    assert resumed.returncode == 0, resumed.stderr
    stats = json.loads(resumed.stdout.strip().splitlines()[-1])
    assert stats["states"] > SCALE_TARGET_STATES, stats
    assert stats["peak_rss_kb"] < RSS_LIMIT_MB * 1024, stats

    report(
        "E-store: tob(n=5, f=1) sqlite scan past 10^6 states, "
        f"SIGKILL at {KILL_AT_EXPANSIONS} expansions + segment resume, "
        f"RLIMIT_AS={RSS_LIMIT_MB}MB",
        [
            {
                "backend": "sqlite",
                "states": stats["states"],
                "resume_seconds": stats["seconds"],
                "states_per_sec": round(stats["states"] / stats["seconds"], 1),
                "peak_rss_kb": stats["peak_rss_kb"],
                "rss_limit_mb": RSS_LIMIT_MB,
                "killed_at_expansions": KILL_AT_EXPANSIONS,
                "resumed": True,
            }
        ],
        artifact="BENCH_engine.json",
    )
