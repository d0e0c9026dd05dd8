"""In-memory spans recorded around the program's public layer functions.

The benchmark never edits the program: a traced run replaces selected
public functions and methods with timing wrappers (:meth:`SpanRecorder.
install`) and restores them afterwards (:meth:`SpanRecorder.uninstall`).
Each span records a name, start, end, its parent span and the id of
the operation it served (a verdict, a scan, a job).  Spans stay in
memory until the run ends; :meth:`SpanRecorder.dump` writes them out.

A span's self time is its duration minus the time covered by its
child spans.  Wrapped calls nest on one thread's stack, so the children
of a span never overlap and their durations simply add up.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path

#: (module, class or None, attribute, span name) for every layer
#: boundary the traced run times.  Module-level functions are replaced
#: in every loaded ``repro`` module that imported them by name.
LAYERS = (
    ("repro.analysis.adversary", None, "refute_candidate", "analysis.adversary.refute"),
    ("repro.analysis.view", "DeterministicSystemView", "successors", "analysis.view.successors"),
    ("repro.analysis.explorer", None, "reachable_decision_sets", "analysis.valence.decision_sets"),
    ("repro.analysis.valence", None, "analyze_valence", "analysis.valence.analyze"),
    ("repro.analysis.hook", None, "find_hook", "analysis.hook.find_hook"),
    ("repro.analysis.hook", None, "lemma8_case_analysis", "analysis.hook.lemma8"),
    ("repro.analysis.refutation", None, "refute_from_similarity", "analysis.refutation.silenced"),
    ("repro.engine.api", "ExplorationEngine", "explore", "engine.api.explore"),
    ("repro.engine.api", "ExplorationEngine", "scan", "engine.api.explore"),
    ("repro.engine.reduction", "Canonicalizer", "canon", "engine.reduction.canon"),
    ("repro.engine.reduction", "ReducedView", "successors", "engine.reduction.successors"),
    ("repro.engine.codec", "Codec", "encode_digest", "engine.codec.encode_digest"),
    ("repro.engine.codec", "Codec", "decode", "engine.codec.decode"),
    # No workload reaches MemoryStore today; wrapped so that in-RAM runs
    # moved onto it show up as store work on `refute`.
    ("repro.engine.store", "MemoryStore", "add", "engine.store.add"),
    ("repro.engine.store", "MemoryStore", "get", "engine.store.get"),
    ("repro.engine.store", "MemoryStore", "flush", "engine.store.flush"),
    ("repro.engine.store", "SQLiteStore", "add", "engine.store.add"),
    ("repro.engine.store", "SQLiteStore", "get", "engine.store.get"),
    ("repro.engine.store", "SQLiteStore", "flush", "engine.store.flush"),
    ("repro.engine.checkpoint", None, "save_segment", "engine.checkpoint.save_segment"),
    ("repro.engine.checkpoint", None, "load_segment", "engine.checkpoint.load_segment"),
    ("repro.serve.wire", "JobSpec", "from_json", "serve.lookup.from_json"),
    ("repro.serve.cache", None, "job_key", "serve.lookup.job_key"),
    ("repro.serve.cache", "VerdictCache", "get", "serve.lookup.cache_get"),
    ("repro.serve.jobs", "JobStore", "create", "serve.journal.create"),
    ("repro.serve.jobs", "JobStore", "record_done", "serve.journal.record_done"),
    ("repro.serve.runner", None, "execute_job", "serve.run.execute_job"),
    ("repro.obs.ledger", "RunHandle", "heartbeat", "obs.ledger.heartbeat"),
)


class SpanRecorder:
    """Timing wrappers plus the in-memory span list they fill."""

    def __init__(self) -> None:
        #: (span id, parent id or None, name, start, end, operation id)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- operations -----------------------------------------------------------

    def operation(self, op_id: str, name: str = "op"):
        """Context manager: a root span that tags its subtree with ``op_id``."""
        return _Operation(self, op_id, name)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.op = None
        return stack

    # -- wrapping -------------------------------------------------------------

    def _timed(self, original, name):
        recorder = self
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end, local.op))

        return timed

    def _timed_job(self, original, name):
        """``execute_job`` wrapper: the job id becomes the operation id."""
        inner = self._timed(original, name)
        local = self._local

        @functools.wraps(original)
        def timed(job, *args, **kwargs):
            self._stack()
            previous, local.op = local.op, getattr(job, "id", None)
            try:
                return inner(job, *args, **kwargs)
            finally:
                local.op = previous

        return timed

    def install(self, layers=LAYERS) -> None:
        """Wrap every layer boundary in ``layers``; :meth:`uninstall` undoes it."""
        for module_name, owner_name, attribute, name in layers:
            module = importlib.import_module(module_name)
            if owner_name is None:
                self._wrap_function(module, attribute, name)
            else:
                self._wrap_method(getattr(module, owner_name), attribute, name)

    def _wrap_function(self, module, attribute, name) -> None:
        original = getattr(module, attribute)
        make = self._timed_job if attribute == "execute_job" else self._timed
        wrapped = make(original, name)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith("repro"):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, binding, original))
                    setattr(loaded, binding, wrapped)

    def _wrap_method(self, owner, attribute, name) -> None:
        raw = owner.__dict__.get(attribute)
        if raw is None:
            return  # inherited: the defining class is wrapped instead
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._timed(raw.__func__, name))
        else:
            wrapped = self._timed(raw, name)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped function and method."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: ``calls``, busy ``total`` seconds and ``self`` seconds."""
        children: dict[int, float] = {}
        for _span_id, parent, _name, start, end, _op in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        table: dict[str, dict] = {}
        for span_id, _parent, name, start, end, _op in self.spans:
            row = table.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            duration = end - start
            row["calls"] += 1
            row["total"] += duration
            row["self"] += duration - children.get(span_id, 0.0)
        return table

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (run end only)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            for span_id, parent, name, start, end, op in self.spans:
                stream.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "op": op,
                        }
                    )
                    + "\n"
                )


class _Operation:
    def __init__(self, recorder: SpanRecorder, op_id: str, name: str) -> None:
        self.recorder = recorder
        self.op_id = op_id
        self.name = name

    def __enter__(self):
        recorder = self.recorder
        stack = recorder._stack()
        self.previous = recorder._local.op
        recorder._local.op = self.op_id
        self.parent = stack[-1] if stack else None
        self.span_id = next(recorder._ids)
        stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        recorder = self.recorder
        recorder._stack().pop()
        recorder.spans.append(
            (self.span_id, self.parent, self.name, self.start, end, self.op_id)
        )
        recorder._local.op = self.previous
