"""The cached hash of process and service states.

``ProcessState`` and ``ServiceState`` compute their hash once, into a
slot that is not a dataclass field.  The value equals the generated
dataclass hash, so set and dict iteration orders do not change; and it
never crosses a process, because ``str`` hashes depend on
``PYTHONHASHSEED``: pickling and copying rebuild a state from its fields.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import DeterministicSystemView
from repro.engine import ExplorationEngine, canonical_bytes, register_codec_type
from repro.protocols import delegation_consensus_system
from repro.services.base import ServiceState
from repro.system import ProcessState

PROCESS = ProcessState(
    failed=False, decision=1, locals=(0, ("a", None), frozenset({2, 3}))
)
SERVICE = ServiceState(
    val=("x", 1),
    inv_buffers=((("inv", 1),), ()),
    resp_buffers=((), (("ok", "v"),)),
    failed=frozenset({0}),
)

#: ``canonical_bytes`` of PROCESS and SERVICE, recorded with the
#: generated (uncached) dataclass hash: the slot must not change them.
PROCESS_BYTES = bytes.fromhex(
    "44730000000c50726f6365737353746174650000000346690000000101740000"
    "000369000000010074000000027300000001614e530000000269000000010269"
    "0000000103"
)
SERVICE_BYTES = bytes.fromhex(
    "44730000000c5365727669636553746174650000000474000000027300000001"
    "786900000001017400000002740000000174000000027300000003696e766900"
    "0000010174000000007400000002740000000074000000017400000002730000"
    "00026f6b7300000001765300000001690000000100"
)

STATES = [PROCESS, SERVICE]


def fields_of(state):
    return tuple(getattr(state, field.name) for field in dataclasses.fields(state))


@pytest.mark.parametrize("state", STATES, ids=lambda s: type(s).__name__)
def test_hash_is_the_generated_one(state):
    assert hash(state) == hash(fields_of(state))
    assert "_hash" not in [field.name for field in dataclasses.fields(state)]


@pytest.mark.parametrize("state", STATES, ids=lambda s: type(s).__name__)
@pytest.mark.parametrize(
    "rebuild",
    [
        lambda s: pickle.loads(pickle.dumps(s)),
        copy.deepcopy,
        copy.copy,
        dataclasses.replace,
    ],
    ids=["pickle", "deepcopy", "copy", "replace"],
)
def test_rebuilt_states_hash_as_fresh_ones(state, rebuild):
    fresh = type(state)(*fields_of(state))
    rebuilt = rebuild(state)
    assert rebuilt == fresh
    assert hash(rebuilt) == hash(fresh) == hash(fields_of(fresh))


def test_replace_rehashes_the_changed_field():
    changed = dataclasses.replace(PROCESS, decision=0)
    assert hash(changed) == hash((False, 0, PROCESS.locals))


def test_canonical_bytes_unchanged():
    assert canonical_bytes(PROCESS) == PROCESS_BYTES
    assert canonical_bytes(SERVICE) == SERVICE_BYTES


def test_codec_registration_accepts_both_classes():
    assert register_codec_type(ProcessState) is ProcessState
    assert register_codec_type(ServiceState) is ServiceState


CHILD = textwrap.dedent(
    """
    import dataclasses, pickle, sys
    from repro.analysis import DeterministicSystemView
    from repro.engine import ExplorationEngine
    from repro.protocols import delegation_consensus_system

    system = delegation_consensus_system(3, resilience=1)
    root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
    graph = ExplorationEngine().explore(DeterministicSystemView(system), root)
    built = set(graph.order)
    loaded = pickle.loads(sys.stdin.buffer.read())
    assert len(loaded) == len(built)
    assert all(state in built for state in loaded)
    assert set(loaded) == built
    for state in loaded:
        for part in state:
            fields = dataclasses.fields(part)
            assert hash(part) == hash(tuple(getattr(part, f.name) for f in fields))
    print(hash("probe"))
    """
)


def test_unpickled_states_found_under_another_hash_seed():
    system = delegation_consensus_system(3, resilience=1)
    root = system.initialization({0: 0, 1: 1, 2: 0}).final_state
    graph = ExplorationEngine().explore(DeterministicSystemView(system), root)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), *sys.path) if p
    )
    seed = "1" if env.get("PYTHONHASHSEED") != "1" else "2"
    env["PYTHONHASHSEED"] = seed
    result = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=pickle.dumps(list(graph.order)),
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    # The seeds really differ, so every cached hash would be stale there.
    assert int(result.stdout) != hash("probe")
