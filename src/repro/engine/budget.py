"""Unified exploration budgets and structured exhaustion.

:class:`Budget` bundles the three resources an exploration can run out
of — states, transitions, and wall-clock time — replacing the bare
``max_states`` int threaded through the original explorer.  When a limit
is hit the engine raises :class:`BudgetExhausted`, which

* subclasses :class:`~repro.analysis.explorer.ExplorationBudget`, so
  every existing ``except ExplorationBudget`` (the CLI's exit-code-2
  path, the fall-back to the bounded adversary) keeps working;
* carries the **partial-progress stats** — states and transitions
  explored, elapsed seconds, and the checkpoint the engine wrote on the
  way out — so a budget failure reports how much work was done and where
  to resume it, instead of only the limit that was hit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..analysis.explorer import ExplorationBudget


@dataclass(frozen=True)
class Budget:
    """Resource limits for one exploration.

    ``None`` disables a limit.  ``deadline_seconds`` is wall-clock time
    per exploration (measured from the start of the run, or from the
    original start for resumed runs — a resumed exploration does not get
    its spent time back).
    """

    max_states: int | None = None
    max_transitions: int | None = None
    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        for name in ("max_states", "max_transitions", "deadline_seconds"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive or None, got {value!r}")

    @property
    def unlimited(self) -> bool:
        return (
            self.max_states is None
            and self.max_transitions is None
            and self.deadline_seconds is None
        )

    def to_json(self) -> dict:
        """JSON-serializable payload (the shared report protocol)."""
        return {
            "max_states": self.max_states,
            "max_transitions": self.max_transitions,
            "deadline_seconds": self.deadline_seconds,
        }

    @classmethod
    def from_json(cls, document: object) -> "Budget":
        """The inverse of :meth:`to_json`, for budgets arriving over a wire.

        Accepts exactly the keys ``to_json`` emits (each optional,
        ``None`` meaning unlimited) and validates types before handing
        off to the constructor's positivity checks, so a malformed
        document fails with a :class:`ValueError`/:class:`TypeError`
        naming the offending field rather than surfacing later as an
        engine crash.
        """
        if not isinstance(document, dict):
            raise TypeError(
                f"Budget.from_json expects a dict, got {type(document).__name__}"
            )
        unknown = set(document) - {
            "max_states",
            "max_transitions",
            "deadline_seconds",
        }
        if unknown:
            raise ValueError(f"unknown Budget field(s): {', '.join(sorted(unknown))}")
        for name in ("max_states", "max_transitions"):
            value = document.get(name)
            if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
                raise TypeError(f"{name} must be an int or None, got {value!r}")
        deadline = document.get("deadline_seconds")
        if deadline is not None and (
            isinstance(deadline, bool) or not isinstance(deadline, (int, float))
        ):
            raise TypeError(
                f"deadline_seconds must be a number or None, got {deadline!r}"
            )
        return cls(
            max_states=document.get("max_states"),
            max_transitions=document.get("max_transitions"),
            deadline_seconds=None if deadline is None else float(deadline),
        )


#: The default budget, matching the original explorer's ``max_states``.
DEFAULT_BUDGET = Budget(max_states=200_000)


class BudgetExhausted(ExplorationBudget):
    """A budget limit was hit; carries partial-progress statistics.

    ``resource`` is ``"states"``, ``"transitions"``, ``"deadline"``, or
    ``"cancelled"`` (a cooperative stop via the engine's ``cancel``
    hook — same checkpoint-consistent exit as a deadline);
    ``checkpoint`` is the path of the snapshot written on exhaustion
    (``None`` when checkpointing was off), from which
    :meth:`~repro.engine.api.ExplorationEngine.explore` can resume;
    ``resume_command`` is the ready-to-run recipe for doing so (set
    whenever ``checkpoint`` is), so the exit-2 path is actionable.
    """

    def __init__(
        self,
        resource: str,
        limit: float,
        states: int,
        transitions: int,
        elapsed_seconds: float,
        checkpoint: object = None,
        resume_command: str | None = None,
    ) -> None:
        self.resource = resource
        self.limit = limit
        self.states = states
        self.transitions = transitions
        self.elapsed_seconds = elapsed_seconds
        self.checkpoint = checkpoint
        self.resume_command = resume_command
        noun = {
            "states": f"reachable state space exceeds {limit:g} states",
            "transitions": f"transition budget of {limit:g} exceeded",
            "deadline": f"deadline of {limit:g}s exceeded",
            "cancelled": "exploration cancelled",
        }.get(resource, f"{resource} budget of {limit:g} exceeded")
        suffix = (
            f" (explored {states} states / {transitions} transitions "
            f"in {elapsed_seconds:.3f}s before exhaustion"
        )
        suffix += f"; checkpoint: {checkpoint})" if checkpoint else ")"
        if resume_command:
            suffix += f"; resume: {resume_command}"
        super().__init__(noun + suffix)

    def summary(self) -> str:
        """One-line human summary (the shared report protocol)."""
        return str(self)

    def to_json(self) -> dict:
        """JSON-serializable payload (the shared report protocol)."""
        return {
            "error": "budget_exhausted",
            "resource": self.resource,
            "limit": self.limit,
            "states": self.states,
            "transitions": self.transitions,
            "elapsed_seconds": self.elapsed_seconds,
            "checkpoint": None if self.checkpoint is None else str(self.checkpoint),
            "resume_command": self.resume_command,
        }


class Deadline:
    """A reusable wall-clock guard over a :class:`Budget`'s deadline.

    Loops that are not explorations (the Fig. 3 hook search, the
    Lemma 6/7 silencing runs) thread one of these and call
    :meth:`check` periodically; it raises :class:`BudgetExhausted` with
    whatever progress numbers the caller reports.
    """

    __slots__ = ("seconds", "_expires")

    def __init__(self, seconds: float | None, already_elapsed: float = 0.0) -> None:
        self.seconds = seconds
        self._expires = (
            None if seconds is None else time.monotonic() + seconds - already_elapsed
        )

    @property
    def enabled(self) -> bool:
        return self._expires is not None

    def remaining(self) -> float | None:
        if self._expires is None:
            return None
        return self._expires - time.monotonic()

    def expired(self) -> bool:
        return self._expires is not None and time.monotonic() >= self._expires

    def check(self, states: int = 0, transitions: int = 0) -> None:
        if self.expired():
            assert self.seconds is not None
            raise BudgetExhausted(
                resource="deadline",
                limit=self.seconds,
                states=states,
                transitions=transitions,
                elapsed_seconds=self.seconds - (self.remaining() or 0.0),
            )
