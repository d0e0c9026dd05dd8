"""Pluggable trace sinks and the process-wide :class:`Tracer`.

A *sink* receives :class:`~repro.obs.events.TraceEvent` values in
emission order.  Three implementations cover the observability
workflows:

* :class:`RingBufferSink` — keeps the last ``capacity`` events in
  memory; the default for interactive inspection and tests;
* :class:`JsonlSink` — appends one JSON line per event to a file,
  producing the machine-readable traces :mod:`repro.obs.replay`
  consumes;
* :class:`NullSink` — drops everything.

A :class:`Tracer` stamps events with monotonic sequence numbers and
per-process Lamport tags before forwarding them to its sink.  The
disabled singleton :data:`NULL_TRACER` short-circuits ``emit`` entirely;
instrumented call sites hoist the ``tracer.enabled`` check out of their
hot loops, so tracing costs one attribute test per loop when off.

The module also maintains the **process-wide current tracer**
(:data:`CURRENT`, read via :func:`current_tracer`), used by layers —
such as the canonical service automata — whose call signatures predate
observability and cannot thread a tracer explicitly.
"""

from __future__ import annotations

import contextlib
from collections import deque
from typing import Hashable, Iterable, Iterator

from .events import TraceEvent


class Sink:
    """Interface of a trace sink: consume events, optionally close."""

    def append(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (no-op for in-memory sinks)."""


class NullSink(Sink):
    """Drop every event."""

    def append(self, event: TraceEvent) -> None:
        pass


class RingBufferSink(Sink):
    """Keep the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 65_536) -> None:
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)

    def append(self, event: TraceEvent) -> None:
        self._buffer.append(event)

    def events(self) -> list[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._buffer)


class JsonlSink(Sink):
    """Write one JSON line per event to ``path`` (append-only stream).

    Usable as a context manager; ``events_written`` counts the lines
    emitted through this sink instance.

    The stream is line-buffered and each event is a single complete
    write, so the OS-level buffer is empty between appends: a forked
    child inheriting the open file has nothing buffered to re-flush at
    exit, and a crashed run keeps every event emitted before the crash.
    """

    def __init__(self, path, mode: str = "w") -> None:
        self.path = path
        self._file = open(path, mode, encoding="utf-8", buffering=1)
        self.events_written = 0

    def append(self, event: TraceEvent) -> None:
        self._file.write(event.to_json() + "\n")
        self.events_written += 1

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Tracer:
    """Stamps and forwards events; the single producer of a trace stream.

    ``emit(kind, process=..., **data)`` builds a
    :class:`~repro.obs.events.TraceEvent` carrying the next sequence
    number and, when ``process`` is given, that process's next Lamport
    counter, then appends it to the sink.

    ``span_stack`` and ``_span_counter`` belong to :mod:`repro.obs.spans`:
    the stack of currently-open span ids (parent links) and the id
    allocator.  They live on the tracer so every instrumented layer
    sharing a tracer shares one span hierarchy.

    ``run_id`` is the run ledger identity (see :mod:`repro.obs.ledger`):
    when set, every event stamped by this tracer carries it in its
    ``run`` field.
    """

    __slots__ = (
        "sink",
        "enabled",
        "_seq",
        "_lamport",
        "span_stack",
        "_span_counter",
        "run_id",
    )

    def __init__(
        self, sink: Sink, enabled: bool = True, run_id: str | None = None
    ) -> None:
        self.sink = sink
        self.enabled = enabled
        self._seq = 0
        self._lamport: dict[Hashable, int] = {}
        self.span_stack: list[str] = []
        self._span_counter = 0
        self.run_id = run_id

    def next_span_id(self) -> str:
        """Allocate the next span id of this tracer's stream."""
        self._span_counter += 1
        return f"s{self._span_counter}"

    def emit(self, kind: str, process: Hashable = None, **data) -> None:
        """Append one event to the stream (no-op when disabled)."""
        if not self.enabled:
            return
        seq = self._seq
        self._seq = seq + 1
        if process is None:
            lamport = seq
        else:
            lamport = self._lamport.get(process, -1) + 1
            self._lamport[process] = lamport
        self.sink.append(
            TraceEvent(
                seq=seq,
                kind=kind,
                process=process,
                lamport=lamport,
                data=data,
                run=self.run_id,
            )
        )

    @property
    def events_emitted(self) -> int:
        """How many events this tracer has stamped so far."""
        return self._seq

    def close(self) -> None:
        self.sink.close()


class _NullTracer(Tracer):
    """The disabled no-op tracer; ``emit`` returns immediately."""

    def __init__(self) -> None:
        super().__init__(NullSink(), enabled=False)

    def emit(self, kind: str, process: Hashable = None, **data) -> None:
        pass


#: The shared disabled tracer; instrumentation parameters default to it.
NULL_TRACER: Tracer = _NullTracer()

#: The process-wide current tracer, consulted by layers that cannot
#: thread a tracer parameter (e.g. service invocation dispatch).  Read
#: it via :func:`current_tracer`; hot paths may read the module
#: attribute directly and guard on ``.enabled``.
CURRENT: Tracer = NULL_TRACER


def current_tracer() -> Tracer:
    """The process-wide tracer (``NULL_TRACER`` unless one is installed)."""
    return CURRENT


def set_current_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` process-wide; returns the previous tracer."""
    global CURRENT
    previous = CURRENT
    CURRENT = NULL_TRACER if tracer is None else tracer
    return previous


@contextlib.contextmanager
def use_tracer(tracer: Tracer):
    """Context manager: install ``tracer`` process-wide, restore on exit."""
    previous = set_current_tracer(tracer)
    try:
        yield tracer
    finally:
        set_current_tracer(previous)
