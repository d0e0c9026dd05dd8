"""Live exploration progress on stderr.

A :class:`ProgressReporter` renders one-line status updates —
``states/s``, frontier size, and ETA against the run's
:class:`~repro.engine.budget.Budget` — while an exploration runs.  On a
TTY the line is redrawn in place (carriage return, no scrollback spam);
on a pipe it degrades to one plain line per report interval, so CI logs
stay readable.

What it renders is the engine's live snapshot,
:meth:`~repro.engine.EngineReport.live` — the same fields the run-ledger
heartbeat file carries and ``repro serve`` publishes as progress events.
:func:`format_line` is the one formatter: it renders the stderr line
here and the live line of ``repro runs tail``/``runs show`` from a
heartbeat document.

The reporter throttles itself (``interval_seconds`` between renders)
and is driven by the engine's loops every 256 expansions.  Subclasses present a snapshot somewhere
else by overriding :meth:`ProgressReporter.render`.

Enable it per run (``ExplorationEngine(progress=ProgressReporter())``),
via the CLI ``--progress`` flag, or process-wide with the
``REPRO_PROGRESS`` environment variable (any non-empty value other than
``0``; :func:`progress_from_env`).
"""

from __future__ import annotations

import os
import sys
import time

#: Environment variable consulted by :func:`progress_from_env`.
REPRO_PROGRESS = "REPRO_PROGRESS"


class ProgressReporter:
    """Throttled one-line progress rendering for exploration runs."""

    def __init__(
        self,
        stream=None,
        interval_seconds: float = 0.25,
        clock=time.monotonic,
    ) -> None:
        self.stream = sys.stderr if stream is None else stream
        self.interval_seconds = interval_seconds
        self._clock = clock
        self._last_render = -interval_seconds  # first update always renders
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._dirty = False
        self.renders = 0

    def update(self, snapshot: dict, *, budget=None, force: bool = False) -> bool:
        """Render ``snapshot`` if the throttle interval has passed.

        ``snapshot`` holds the live fields
        (:meth:`~repro.engine.EngineReport.live`); ``budget`` feeds the
        ETA.  Returns True when the snapshot was rendered (tests hook
        this).
        """
        now = self._clock()
        if not force and now - self._last_render < self.interval_seconds:
            return False
        self._last_render = now
        self.render(snapshot, budget)
        self.renders += 1
        return True

    def render(self, snapshot: dict, budget=None) -> None:
        """Present one snapshot: a ``[repro]`` line on the stream."""
        line = "[repro] " + format_line(snapshot, budget)
        if self._tty:
            self.stream.write("\r\x1b[2K" + line)
        else:
            self.stream.write(line + "\n")
        self.stream.flush()
        self._dirty = True

    def finish(self) -> None:
        """Terminate the in-place line (no-op if nothing was rendered)."""
        if self._tty and self._dirty:
            self.stream.write("\n")
            self.stream.flush()
        self._dirty = False


def format_line(snapshot: dict, budget=None) -> str:
    """One human line from a live snapshot or a heartbeat document.

    States and their rate, frontier, and the store columns
    (``spilled``, ``flush_ms``) when present; the counters a fuzz
    heartbeat carries instead; then the ETA against ``budget``.
    """
    parts = []
    states = snapshot.get("states")
    elapsed = snapshot.get("elapsed") or 0.0
    rate = 0.0
    if states is not None:
        rate = states / elapsed if elapsed > 0 else 0.0
        parts += [f"{states} states", f"{rate:,.0f} st/s"]
    for key, template in (
        ("frontier", "frontier {}"),
        ("spilled", "spilled {}"),
        ("flush_ms", "flush {:.1f}ms"),
        ("campaigns", "campaigns {}"),
        ("schedules", "schedules {}"),
        ("violations", "violations {}"),
    ):
        value = snapshot.get(key)
        if value is not None:
            parts.append(template.format(value))
    if states is not None:
        eta = _eta(states, rate, elapsed, budget)
        if eta:
            parts.append(eta)
    return " | ".join(parts) if parts else "(no counters yet)"


def _eta(states: int, rate: float, elapsed: float, budget) -> str:
    """ETA-vs-Budget: time to the binding limit, whichever is nearer."""
    if budget is None:
        return ""
    clauses = []
    max_states = getattr(budget, "max_states", None)
    if max_states:
        if rate > 0:
            remaining = max(0, max_states - states) / rate
            clauses.append(
                f"{100 * states / max_states:.0f}% of {max_states} states,"
                f" ~{remaining:.0f}s to cap"
            )
        else:
            clauses.append(f"{states}/{max_states} states")
    deadline = getattr(budget, "deadline_seconds", None)
    if deadline:
        clauses.append(f"deadline {max(0.0, deadline - elapsed):.0f}s left")
    return "; ".join(clauses)


def progress_from_env(environ=None) -> ProgressReporter | None:
    """A stderr reporter when ``REPRO_PROGRESS`` is set (and not ``0``)."""
    value = (environ if environ is not None else os.environ).get(REPRO_PROGRESS, "")
    if not value.strip() or value.strip() == "0":
        return None
    return ProgressReporter()
