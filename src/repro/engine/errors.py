"""Structured error taxonomy for the exploration engine.

:class:`EngineError` is the base of the engine's structured failures, so
``except EngineError`` is the one handler for "the exploration stopped
and did not produce a graph".
"""

from __future__ import annotations


class EngineError(RuntimeError):
    """Base class for structured failures of the exploration engine."""
