"""Structured error taxonomy for the fault-tolerant engine.

The parallel driver survives worker crashes (see
:mod:`repro.engine.parallel`): a lost worker's in-flight frontier
partition is retried — on a respawned worker or redistributed across
survivors — and a state that repeatedly kills whoever expands it is
quarantined rather than retried forever.  These exceptions are the
points where that recovery machinery *gives up* (or, for
:class:`WorkerLost`, the internal signal it runs on):

* :class:`WorkerLost` — one worker died.  Raised internally by the
  pipe-facing send/recv paths and absorbed by the recovery loop; it
  reaches callers only through trace events and the final report, never
  as a raised exception, because a dead pool degrades to the in-process
  driver instead of failing.
* :class:`PartitionRetryExhausted` — a frontier partition was re-dispatched
  more than ``max_partition_retries`` times without ever being expanded.
  This is the configurable hard stop for runs that must not loop on a
  crashing partition (``max_partition_retries=0`` turns any in-flight
  loss into an error).
* :class:`StateQuarantined` — a single state killed its worker
  :data:`~repro.engine.parallel.MAX_STATE_RETRIES` times and quarantine
  is disabled
  (``quarantine=False``), so the engine cannot honor the identical-graph
  guarantee by skipping it silently.

All three subclass :class:`EngineError`, so ``except EngineError`` is
the one handler for "the engine's fault tolerance gave up".
"""

from __future__ import annotations


class EngineError(RuntimeError):
    """Base class for structured failures of the exploration engine."""


class WorkerLost(EngineError):
    """A pool worker died (crash, OOM kill, or injected fault).

    Carries the worker index, the round in which the loss was detected,
    and how many times that worker slot had already been restarted.
    """

    def __init__(self, worker: int, round_index: int, restarts: int = 0) -> None:
        self.worker = worker
        self.round_index = round_index
        self.restarts = restarts
        super().__init__(
            f"worker {worker} lost in round {round_index}"
            f" (after {restarts} restart{'s' if restarts != 1 else ''})"
        )


class PartitionRetryExhausted(EngineError):
    """A frontier partition exceeded its re-dispatch budget.

    Every worker loss increments the retry count of the chunks that were
    in flight on it; once a chunk's count passes
    ``max_partition_retries`` the engine stops retrying and raises this
    instead of looping on a partition that keeps killing workers.
    """

    def __init__(self, states: int, retries: int, limit: int) -> None:
        self.states = states
        self.retries = retries
        self.limit = limit
        super().__init__(
            f"a partition of {states} state{'s' if states != 1 else ''} was"
            f" re-dispatched {retries} times (limit {limit}) without completing;"
            " the pool keeps losing whichever worker expands it"
        )


class StateQuarantined(EngineError):
    """A single state repeatedly killed workers and quarantine is off.

    With ``quarantine=True`` (the default) such a state is skipped and
    surfaced in the final report; with ``quarantine=False`` the engine
    refuses to drop it and raises this instead.
    """

    def __init__(self, state: object, digest: bytes, retries: int) -> None:
        self.state = state
        self.digest = digest
        self.retries = retries
        super().__init__(
            f"state {digest.hex()} killed its worker {retries} times and"
            " quarantine is disabled (pass quarantine=True to skip it and"
            " surface it in the final report)"
        )
