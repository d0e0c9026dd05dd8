"""Shared fixtures: small canonical systems used across the test suite.

Also the replay-hint protocol for randomized tests: a test that draws a
seed registers it (plus the one-line reproduction command) through the
``replay_hint`` fixture, and any failure then carries a ``replay``
report section showing exactly how to re-run that schedule offline —
seeds never die in CI logs unprinted.

And the ``poison`` fixture, which kills pool workers from the test side
so the fail-stop path runs against real process deaths, and the
``torn_slot`` fixture, which makes the workers' shared visited table
answer "present" for chosen digests, as a torn slot can.
"""

import os

import pytest

from repro.ioa import invoke
from repro.services import CanonicalAtomicObject, CanonicalRegister
from repro.system import DistributedSystem, ScriptProcess
from repro.types import binary_consensus_type, read_write_type


@pytest.fixture(autouse=True)
def _isolated_run_ledger(tmp_path, monkeypatch):
    """Point the run ledger at the test's tmp dir, never the checkout.

    CLI commands register runs under ``$REPRO_RUNS_DIR`` (default
    ``.repro/runs`` in the CWD); without this fixture every CLI test
    would write ledger files into the working tree.  Tests that care
    about the ledger pass ``--runs-dir`` explicitly and are unaffected.
    """
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "runs-ledger"))


class Poison:
    """Digests whose expansion kills the forked pool worker asked for them.

    The worker exits with ``os._exit(137)``, as if SIGKILLed, before it
    expands the chunk, so the loss is in flight.  Clear ``digests`` to
    disarm: pools forked afterwards inherit the empty set.
    """

    def __init__(self) -> None:
        self.digests: set[bytes] = set()

    def round_two(self, view, root, worker: int = 0, workers: int = 2) -> bytes:
        """Poison a successor of ``root`` that round 2 ships to ``worker``."""
        from repro.engine import fingerprint, shard_of

        digest = next(
            digest
            for digest in (fingerprint(post) for _, _, post in view.successors(root))
            if shard_of(digest, workers) == worker and digest != fingerprint(root)
        )
        self.digests.add(digest)
        return digest


@pytest.fixture
def poison(monkeypatch):
    """Kill pool workers from the test, with no hook in the engine.

    Wraps ``_ChunkExpander.expand`` before any pool forks; only forked
    children (``os.getpid() != parent``) check the poisoned digests, so
    in-process expansion is unaffected.
    """
    from repro.engine import parallel

    plan = Poison()
    parent = os.getpid()
    expand = parallel._ChunkExpander.expand

    def poisoned(self, entries, *args):
        if os.getpid() != parent:
            for entry in entries:
                if (entry if type(entry) is bytes else entry[0]) in plan.digests:
                    os._exit(137)
        return expand(self, entries, *args)

    monkeypatch.setattr(parallel._ChunkExpander, "expand", poisoned)
    return plan


class TornSlot:
    """Digests the forked workers' shared visited table reads as present.

    A worker that finds such a digest novel never ships its packed
    bytes, so the coordinator must recover them itself.  ``forged`` maps
    a digest to the one workers report in its place in their result rows:
    a digest the parent state cannot produce.
    """

    def __init__(self) -> None:
        self.digests: set[bytes] = set()
        self.forged: dict[bytes, bytes] = {}

    def root_successor(self, view, root) -> bytes:
        """Hide a successor of ``root``: round 1 discovers it."""
        from repro.engine import fingerprint

        digest = next(
            digest
            for digest in (fingerprint(post) for _, _, post in view.successors(root))
            if digest != fingerprint(root)
        )
        self.digests.add(digest)
        return digest


@pytest.fixture
def torn_slot(monkeypatch):
    """Tear visited-table slots in forked pool workers, with no engine hook.

    Wraps ``SharedVisitedTable.test_and_set`` (and, for ``forged``,
    ``_ChunkExpander.expand``) before any pool forks; only forked
    children (``os.getpid() != parent``) consult the plan, so in-process
    expansion is unaffected.
    """
    from repro.engine import parallel, visited

    plan = TornSlot()
    parent = os.getpid()
    test_and_set = visited.SharedVisitedTable.test_and_set
    expand = parallel._ChunkExpander.expand

    def torn(self, digest):
        if os.getpid() != parent and digest in plan.digests:
            return True
        return test_and_set(self, digest)

    def forging(self, entries, *args):
        results, *rest = expand(self, entries, *args)
        if os.getpid() != parent and plan.forged:
            results = [
                row
                if row == parallel.PRUNED
                else [
                    (task, action, plan.forged.get(digest, digest))
                    for task, action, digest in row
                ]
                for row in results
            ]
        return (results, *rest)

    monkeypatch.setattr(visited.SharedVisitedTable, "test_and_set", torn)
    monkeypatch.setattr(parallel._ChunkExpander, "expand", forging)
    return plan


@pytest.fixture
def replay_hint(request):
    """Register ``(seed, command)`` pairs surfaced when this test fails.

    Usage::

        def test_random_thing(replay_hint):
            seed = 1234
            replay_hint(seed, f"PYTHONPATH=src python -m repro sim "
                              f"exchange --seed {seed} --faults drop=1")
            ...

    On failure the pytest report gains a ``replay`` section listing every
    registered seed and its one-line reproduction command.
    """
    hints = request.node._replay_hints = []

    def _register(seed, command=None) -> None:
        line = f"seed={seed}"
        if command:
            line += f"  replay: {command}"
        hints.append(line)

    return _register


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        hints = getattr(item, "_replay_hints", None)
        if hints:
            report.sections.append(("replay", "\n".join(hints)))


@pytest.fixture
def consensus_object():
    """A 1-resilient binary consensus object on endpoints {0, 1, 2}."""
    return CanonicalAtomicObject(
        sequential_type=binary_consensus_type(),
        endpoints=(0, 1, 2),
        resilience=1,
        service_id="cons",
    )


@pytest.fixture
def small_register():
    """A wait-free register on endpoints {0, 1} over values {empty, 0, 1}."""
    return CanonicalRegister(
        "reg", endpoints=(0, 1), values=("empty", 0, 1), initial="empty"
    )


@pytest.fixture
def register_system(small_register):
    """Two scripted processes writing/reading one shared register."""
    p0 = ScriptProcess(
        0,
        [invoke("reg", 0, ("write", 1)), invoke("reg", 0, ("read",))],
        connections=["reg"],
    )
    p1 = ScriptProcess(1, [invoke("reg", 1, ("read",))], connections=["reg"])
    return DistributedSystem([p0, p1], registers=[small_register])
