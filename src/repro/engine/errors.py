"""Structured error taxonomy for the exploration engine.

:class:`EngineError` is the base of the engine's structured failures, so
``except EngineError`` is the one handler for "the exploration stopped
and did not produce a graph".  Its one subclass here is
:class:`WorkerLost`: the parallel pool is fail-stop (see
:mod:`repro.engine.parallel`), so a dead worker ends the run instead of
being absorbed by in-line recovery.  The run then continues through
the engine's one recovery path, ``resume`` from the checkpoint the
coordinator wrote on the way out.
"""

from __future__ import annotations


class EngineError(RuntimeError):
    """Base class for structured failures of the exploration engine."""


class WorkerLost(EngineError):
    """A pool worker died (crash, OOM kill, signal) and the run stopped.

    Carries the worker slot, the round in which the loss was detected,
    and, as :class:`~repro.engine.budget.BudgetExhausted` does,
    ``checkpoint`` (the snapshot written on the way out, ``None`` when
    checkpointing was off) and ``resume_command`` (set whenever
    ``checkpoint`` is).  The checkpoint holds every round merged before
    the loss, with the lost round's frontier back at its head, so a
    resumed run produces the identical graph.
    """

    def __init__(
        self,
        worker: int,
        round_index: int,
        checkpoint: object = None,
        resume_command: str | None = None,
    ) -> None:
        self.worker = worker
        self.round_index = round_index
        self.checkpoint = checkpoint
        self.resume_command = resume_command
        message = f"worker {worker} lost in round {round_index}"
        if checkpoint is not None:
            message += f"; checkpoint: {checkpoint}"
        if resume_command:
            message += f"; resume: {resume_command}"
        super().__init__(message)
