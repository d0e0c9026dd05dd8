"""Typed trace events and their JSON encoding.

Everything the runtime layers do — scheduling a task, firing an action,
exploring a state, dispatching a service invocation, injecting a failure,
classifying a valence, finding a hook — can be reified as a
:class:`TraceEvent`.  Events form an append-only stream with

* a **monotonic sequence number** ``seq`` assigned by the emitting
  :class:`~repro.obs.sinks.Tracer` (total order of emission), and
* a **per-process Lamport tag** ``lamport``: events attributed to the
  same process (via the ``process`` field) carry strictly increasing
  Lamport counters, giving the per-process causal order the
  failure-detector-style arguments need ("who saw what, when").

The payload of an event is a small dict of named fields.  Payload values
are encoded to JSON through a tagged encoding (:func:`encode_value` /
:func:`decode_value`) that round-trips the value types executions are
made of — :class:`~repro.ioa.automaton.Task`,
:class:`~repro.ioa.actions.Action`, tuples, and frozensets — exactly,
so a JSONL trace reconstructs the original task sequence bit-for-bit
(the contract :mod:`repro.obs.replay` relies on).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping

from ..ioa.actions import Action
from ..ioa.automaton import Task

# ---------------------------------------------------------------------------
# Event kinds
# ---------------------------------------------------------------------------

RUN_START = "run_start"
RUN_END = "run_end"
TASK_CHOSEN = "task_chosen"  # a scheduled step: the task and the action it fired
ACTION_FIRED = "action_fired"  # an externally supplied input action
STATE_EXPLORED = "state_explored"
SERVICE_INVOCATION = "service_invocation"
SERVICE_RESPONSE = "service_response"
FAILURE_INJECTED = "failure_injected"
VALENCE_VERDICT = "valence_verdict"
HOOK_VERDICT = "hook_verdict"
PHASE = "phase"
WORKER_ROUND = "worker_round"  # one frontier-exchange round of the parallel engine
CHECKPOINT_SAVED = "checkpoint_saved"  # the engine snapshotted its progress to disk
WORKER_LOST = "worker_lost"  # a pool worker died; the run ends with WorkerLost
SPAN_START = "span_start"  # a hierarchical span opened (see repro.obs.spans)
SPAN_END = "span_end"  # a span closed, carrying wall/CPU time and status
SIM_RUN = "sim_run"  # one seeded simulation finished (see repro.sim.harness)
FAULT_FIRED = "fault_fired"  # a network fault transition fired during a sim run
FUZZ_CANDIDATE = "fuzz_candidate"  # the fuzzer started attacking a candidate
SHRINK_STEP = "shrink_step"  # one successful ddmin reduction of a failing schedule

KINDS = frozenset(
    {
        RUN_START,
        RUN_END,
        TASK_CHOSEN,
        ACTION_FIRED,
        STATE_EXPLORED,
        SERVICE_INVOCATION,
        SERVICE_RESPONSE,
        FAILURE_INJECTED,
        VALENCE_VERDICT,
        HOOK_VERDICT,
        PHASE,
        WORKER_ROUND,
        CHECKPOINT_SAVED,
        WORKER_LOST,
        SPAN_START,
        SPAN_END,
        SIM_RUN,
        FAULT_FIRED,
        FUZZ_CANDIDATE,
        SHRINK_STEP,
    }
)


@dataclass(frozen=True)
class TraceEvent:
    """One event of the append-only trace stream.

    ``seq`` is the tracer-wide monotonic sequence number; ``lamport`` the
    per-process causal counter (0-based per process, ``seq``-aligned for
    unattributed events); ``process`` names the process/automaton the
    event is attributed to (``None`` for global events such as
    exploration progress); ``data`` holds the kind-specific payload;
    ``run`` carries the run ledger's run id when the emitting tracer has
    one installed (``None`` otherwise, and omitted from the JSON line so
    pre-ledger traces parse unchanged).
    """

    seq: int
    kind: str
    process: Hashable = None
    lamport: int = 0
    data: Mapping[str, Any] = field(default_factory=dict)
    run: str | None = None

    def to_json(self) -> str:
        """The event as one JSON line (no trailing newline)."""
        document = {
            "seq": self.seq,
            "kind": self.kind,
            "process": encode_value(self.process),
            "lamport": self.lamport,
            "data": {key: encode_value(value) for key, value in self.data.items()},
        }
        if self.run is not None:
            document["run"] = self.run
        return json.dumps(document, separators=(",", ":"), sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "TraceEvent":
        """Parse one JSON line back into a :class:`TraceEvent`."""
        raw = json.loads(line)
        return TraceEvent(
            seq=raw["seq"],
            kind=raw["kind"],
            process=decode_value(raw.get("process")),
            lamport=raw.get("lamport", 0),
            data={key: decode_value(value) for key, value in raw.get("data", {}).items()},
            run=raw.get("run"),
        )


# ---------------------------------------------------------------------------
# Tagged value encoding
# ---------------------------------------------------------------------------
#
# JSON cannot distinguish tuples from lists nor represent frozensets,
# Tasks, or Actions; the replay contract needs all four back exactly.
# Compound values are wrapped in single-key tag objects.

_TUPLE = "__tuple__"
_FROZENSET = "__frozenset__"
_DICT = "__dict__"
_TASK = "__task__"
_ACTION = "__action__"
_REPR = "__repr__"
_TAGS = (_TUPLE, _FROZENSET, _DICT, _TASK, _ACTION, _REPR)


def encode_value(value: Any) -> Any:
    """Encode ``value`` into JSON-serializable form, losslessly where possible.

    Scalars pass through; tuples, frozensets, dicts, Tasks, and Actions
    are tagged; anything else degrades to a tagged ``repr`` (inspectable
    but not reconstructible — fine for diagnostic payloads, never used
    for the replay-critical task/action fields).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Task):
        return {_TASK: [value.owner, encode_value(value.name)]}
    if isinstance(value, Action):
        return {_ACTION: [value.kind, encode_value(tuple(value.args))]}
    if isinstance(value, tuple):
        return {_TUPLE: [encode_value(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        return {_FROZENSET: sorted((encode_value(item) for item in value), key=repr)}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {_DICT: [[encode_value(k), encode_value(v)] for k, v in value.items()]}
    return {_REPR: repr(value)}


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value` (tagged-``repr`` values stay strings)."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        if len(value) == 1:
            tag, payload = next(iter(value.items()))
            if tag == _TUPLE:
                return tuple(decode_value(item) for item in payload)
            if tag == _FROZENSET:
                return frozenset(decode_value(item) for item in payload)
            if tag == _DICT:
                return {decode_value(k): decode_value(v) for k, v in payload}
            if tag == _TASK:
                owner, name = payload
                return Task(owner, decode_value(name))
            if tag == _ACTION:
                kind, args = payload
                return Action(kind, decode_value(args))
            if tag == _REPR:
                return payload
        return {key: decode_value(item) for key, item in value.items()}
    return value
