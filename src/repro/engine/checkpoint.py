"""Exploration snapshots: write, load, locate, and retire checkpoints.

A checkpoint captures everything needed to continue a breadth-first
exploration exactly where it stopped — the run's
:class:`~repro.analysis.explorer.StateGraph` tables so far:

* ``order`` — every discovered state, in discovery order (this *is*
  the visited set; the position index is rebuilt from it on load);
* ``succ``  — one row of ``(task, action, successor_index)`` edges per
  expanded position, ``0..m-1``;
* ``transitions`` / ``elapsed_seconds`` — progress counters, so resumed
  runs keep honest budgets and reports.

Breadth-first search expands states in discovery order, so the
frontier is implicit: it is ``order[m:]``, the discovered states past
the last expansion.  The engine keeps that shape even when a budget
raise interrupts a half-merged expansion (the interrupted state gets no
row and stays at the frontier's head, with the successors it already
discovered behind it), so resuming is "rebuild the position index,
continue the loop".

Files are written atomically (temp file + ``os.replace``) and named by
the digest of the exploration's **root** state, so a pipeline that runs
several explorations against one checkpoint directory resumes exactly
the interrupted one and starts the others fresh.  A checkpoint is
deleted when its exploration completes.

Format v2
---------

The payload is index-based: ``edges`` holds one ``(position, rows)``
pair per expanded position, each row ``(task_slot, action_slot,
successor_index)`` into interned ``tasks``/``actions`` tables, and
``frontier`` lists the positions ``m..n-1``.  The loader accepts
exactly that shape — expansions covering ``0..m-1`` in order and the
frontier ``m..n-1`` — and raises :class:`CheckpointError` on anything
else.  States are stored once each, in one of two modes:

* ``mode="packed"`` — ``packed_order`` holds each state's canonical
  packed bytes (:mod:`repro.engine.codec`; ``blake2b(packed)`` *is* the
  state's fingerprint).  The dataclass/enum classes the codec needs are
  pickled by reference alongside, so a fresh process (``--resume``
  from the CLI) can register them before decoding;
* ``mode="pickle"`` — ``order`` holds the state objects themselves,
  for states the codec cannot round-trip (repr-encoded components,
  classes that do not pickle by reference).

Files that hold a pickled ``Checkpoint`` object — version 1, and
pickle-mode files from engines before the positional layout — are
refused with a :class:`CheckpointError` naming the fix: delete the file
and rerun.

Streaming delta segments (store-backed runs)
--------------------------------------------

Monolithic snapshots rewrite every discovered state per checkpoint —
a multi-GB rewrite at 10^7 states.  Runs with a
:class:`~repro.engine.store.StateStore` never do that: the states and
edges stream into the store exactly once, append-only, and the
checkpoint becomes a tiny *segment* file written after each store
flush.  A segment records only what the store cannot reconstruct by
itself: progress counters, the store's durable high-water
:meth:`~repro.engine.store.StateStore.marks`, and the frontier digests.

Segments live in a directory named like the monolithic file
(``engine-<root digest>.segs/``), one ``segment-<n>.seg`` per flush,
appended monotonically during the run (the writer prunes all but the
last two so disk stays bounded — the previous segment survives any
crash mid-write).  Resume loads the newest readable segment, calls
``store.truncate(marks)`` to drop whatever the store absorbed after
that segment was written, reloads the frontier, and *compacts* the
directory down to the chosen segment.  :func:`find_checkpoint` and
:func:`list_checkpoints` surface segment directories alongside v2
files.

A checkpoint resumes only under the configuration that wrote it:
:func:`load_checkpoint` on a segment directory raises with the recipe
(segments carry no states — a store is required to resume), and the
engine refuses to resume a store-backed run from a monolithic file.
Segments are also only as durable as their store, so the engine
refuses to checkpoint a run on a scratch store (``StoreConfig(path=None)``,
deleted when its exploration ends).
"""

from __future__ import annotations

import os
import pickle
import shlex
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable

from .codec import (
    DIGEST_SIZE,
    Codec,
    CodecError,
    register_codec_type,
    registered_codec_types,
)

CHECKPOINT_FORMAT = "repro-engine-checkpoint"
CHECKPOINT_VERSION = 2
CHECKPOINT_SUFFIX = ".ckpt"

SEGMENT_FORMAT = "repro-engine-segment"
SEGMENT_VERSION = 1
SEGMENT_DIR_SUFFIX = ".segs"
SEGMENT_SUFFIX = ".seg"

#: Segments kept on disk during a run (newest + one crash fallback).
_SEGMENT_RETAIN = 2


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, malformed, or from another format."""


@dataclass
class Checkpoint:
    """One resumable snapshot of an in-progress exploration.

    ``order`` and ``succ`` are the run's graph tables (see the module
    docstring); the frontier is ``order[len(succ):]``.
    """

    root: Hashable
    root_digest: bytes
    order: list
    succ: list
    transitions: int
    elapsed_seconds: float
    workers: int = 1
    meta: dict = field(default_factory=dict)


def _check_width(path: Path, width) -> None:
    """Reject a file whose digests are not :data:`DIGEST_SIZE` bytes wide."""
    if width != DIGEST_SIZE:
        raise CheckpointError(
            f"{path} stores {width!r}-byte digests; this engine uses "
            f"{DIGEST_SIZE}-byte digests"
        )


def checkpoint_path(directory: str | os.PathLike, digest: bytes) -> Path:
    """The canonical checkpoint file for a root digest."""
    return Path(directory) / f"engine-{digest.hex()}{CHECKPOINT_SUFFIX}"


def _index_layout(checkpoint: Checkpoint) -> dict:
    """The mode-independent payload body: edges, frontier and counters."""
    tasks: list = []
    task_index: dict = {}
    actions: list = []
    action_index: dict = {}
    edges: list = []
    for position, rows in enumerate(checkpoint.succ):
        slotted = []
        for task, action, successor in rows:
            task_slot = task_index.get(task)
            if task_slot is None:
                task_slot = task_index[task] = len(tasks)
                tasks.append(task)
            action_slot = action_index.get(action)
            if action_slot is None:
                action_slot = action_index[action] = len(actions)
                actions.append(action)
            slotted.append((task_slot, action_slot, successor))
        edges.append((position, slotted))
    return {
        "edges": edges,
        "frontier": list(range(len(checkpoint.succ), len(checkpoint.order))),
        "tasks": tasks,
        "actions": actions,
        "root_digest": checkpoint.root_digest,
        "digest_size": DIGEST_SIZE,
        "workers": checkpoint.workers,
        "transitions": checkpoint.transitions,
        "elapsed_seconds": checkpoint.elapsed_seconds,
        "meta": checkpoint.meta,
    }


def _packed_states(order: list, codec: Codec) -> list[bytes]:
    """Each state's packed bytes; raises ``CodecError`` if one cannot
    round-trip through the codec."""
    packed_order = []
    for position, state in enumerate(order):
        packed = codec.encode(state)
        # Verified identity: a state whose encoding cannot reproduce it
        # (repr fallback, unregistered semantics) must not be persisted
        # packed — decode() raises CodecError and we fall back to pickle.
        if codec.decode(packed) != state:
            raise CodecError(f"state at order[{position}] does not round-trip")
        packed_order.append(packed)
    return packed_order


def save_checkpoint(
    directory: str | os.PathLike,
    checkpoint: Checkpoint,
    codec: Codec | None = None,
) -> Path:
    """Atomically write ``checkpoint`` into ``directory``; returns its path.

    Pass the run's :class:`~repro.engine.codec.Codec` to reuse its warm
    component cache; a fresh one is created otherwise.  States that
    cannot round-trip through the codec (or whose classes cannot be
    pickled by reference) demote the payload to ``mode="pickle"``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = checkpoint_path(directory, checkpoint.root_digest)
    payload = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION}
    payload |= _index_layout(checkpoint)
    if codec is None:
        codec = Codec()
    try:
        states = {
            "mode": "packed",
            "packed_order": _packed_states(checkpoint.order, codec),
            # Classes the codec needs to decode, pickled by reference so
            # a fresh process can re-register them before touching the
            # bytes.
            "codec_types": registered_codec_types(),
        }
        blob = pickle.dumps(payload | states, protocol=pickle.HIGHEST_PROTOCOL)
    except (CodecError, pickle.PicklingError, AttributeError, TypeError):
        states = {"mode": "pickle", "order": checkpoint.order}
        blob = pickle.dumps(payload | states, protocol=pickle.HIGHEST_PROTOCOL)
    temporary = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
    try:
        with open(temporary, "wb") as handle:
            handle.write(blob)
        os.replace(temporary, path)
    finally:
        if temporary.exists():  # pragma: no cover - failed write cleanup
            temporary.unlink()
    return path


def _decode_states(payload: dict, path: Path) -> list:
    for cls in payload.get("codec_types", {}).values():
        try:
            register_codec_type(cls)
        except CodecError:
            # Already registered to the same qualname in this process;
            # the in-process class wins (it is the one states compare
            # against).
            pass
    codec = Codec()
    try:
        return [codec.decode(packed) for packed in payload["packed_order"]]
    except CodecError as error:
        raise CheckpointError(f"{path}: cannot decode packed states: {error}") from error


def _unpack_payload(payload: dict, order: list, path: Path) -> Checkpoint:
    edges = payload["edges"]
    expanded = len(edges)
    if [position for position, _ in edges] != list(range(expanded)) or (
        payload["frontier"] != list(range(expanded, len(order)))
    ):
        raise CheckpointError(
            f"{path}: expansions must cover positions 0..m-1 in order and "
            "the frontier must be m..n-1; this file does not have that "
            "layout — delete it and rerun"
        )
    tasks = payload["tasks"]
    actions = payload["actions"]
    return Checkpoint(
        root=order[0],
        root_digest=payload["root_digest"],
        order=order,
        succ=[
            [
                (tasks[task_slot], actions[action_slot], successor)
                for task_slot, action_slot, successor in rows
            ]
            for _, rows in edges
        ],
        transitions=payload["transitions"],
        elapsed_seconds=payload["elapsed_seconds"],
        workers=payload["workers"],
        meta=payload.get("meta", {}),
    )


def load_checkpoint(path: str | os.PathLike) -> Checkpoint:
    """Load and validate a v2 checkpoint file (packed or pickle mode)."""
    path = Path(path)
    if path.is_dir():
        # A delta-segment directory: it carries counters and frontier
        # digests but no states (those live in the run's StateStore), so
        # it cannot become a Checkpoint.  Point the caller at the recipe
        # instead of failing on an unpicklable directory read.
        raise CheckpointError(
            f"{path} is a delta-segment directory; resuming it requires the "
            "run's state store — pass store= (e.g. the original "
            "'sqlite:<path>' URI) to ExplorationEngine, or --store on the CLI"
        )
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except (pickle.UnpicklingError, EOFError, AttributeError) as error:
        raise CheckpointError(f"unreadable checkpoint {path}: {error}") from error
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    version = payload.get("version")
    if version == 1 or "checkpoint" in payload:
        raise CheckpointError(
            f"{path} holds a pickled Checkpoint object (a version-1 file, or "
            "a pickle-mode file from an engine before the positional "
            "layout), which this engine does not read; delete the file and "
            "rerun the exploration"
        )
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path} has checkpoint version {version!r}, "
            f"this engine reads version {CHECKPOINT_VERSION}"
        )
    _check_width(path, payload.get("digest_size"))
    mode = payload.get("mode")
    if mode == "packed":
        order = _decode_states(payload, path)
    elif mode == "pickle":
        order = payload["order"]
    else:  # pragma: no cover - corrupt
        raise CheckpointError(f"{path} has unknown payload mode {mode!r}")
    return _unpack_payload(payload, order, path)


@dataclass
class Segment:
    """One streaming delta checkpoint of a store-backed exploration.

    ``marks`` is the backend-opaque payload of
    :meth:`~repro.engine.store.StateStore.marks` at the flush this
    segment followed; ``frontier_blob`` is the concatenated frontier
    digests in pop order.  ``store_uri`` records the configuration the
    segment was written under, purely as a resume sanity hint.
    """

    root_digest: bytes
    seq: int
    states: int
    transitions: int
    elapsed_seconds: float
    workers: int
    marks: dict
    frontier_blob: bytes
    store_uri: str
    meta: dict = field(default_factory=dict)


def segment_dir(directory: str | os.PathLike, digest: bytes) -> Path:
    """The delta-segment directory for a root digest."""
    return Path(directory) / f"engine-{digest.hex()}{SEGMENT_DIR_SUFFIX}"


def _segment_path(segments: Path, seq: int) -> Path:
    return segments / f"segment-{seq:08d}{SEGMENT_SUFFIX}"


def _segment_seq(path: Path) -> int:
    try:
        return int(path.stem.split("-", 1)[1])
    except (IndexError, ValueError):  # pragma: no cover - foreign file
        return -1


def save_segment(directory: str | os.PathLike, segment: Segment) -> Path:
    """Atomically append ``segment`` to its run's segment directory.

    Older segments beyond the retain window are pruned *after* the new
    one lands, so a crash at any point leaves at least one complete
    segment on disk.
    """
    segments = segment_dir(directory, segment.root_digest)
    segments.mkdir(parents=True, exist_ok=True)
    path = _segment_path(segments, segment.seq)
    payload = {
        "format": SEGMENT_FORMAT,
        "version": SEGMENT_VERSION,
        "root_digest": segment.root_digest,
        "digest_size": DIGEST_SIZE,
        "seq": segment.seq,
        "states": segment.states,
        "transitions": segment.transitions,
        "elapsed_seconds": segment.elapsed_seconds,
        "workers": segment.workers,
        "marks": segment.marks,
        "frontier": segment.frontier_blob,
        "store": segment.store_uri,
        "meta": segment.meta,
    }
    temporary = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
    try:
        with open(temporary, "wb") as handle:
            handle.write(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    finally:
        if temporary.exists():  # pragma: no cover - failed write cleanup
            temporary.unlink()
    for stale in sorted(segments.glob(f"segment-*{SEGMENT_SUFFIX}"), key=_segment_seq)[
        :-_SEGMENT_RETAIN
    ]:
        stale.unlink(missing_ok=True)
    return path


def load_segment(directory: str | os.PathLike, digest: bytes) -> Segment | None:
    """The newest readable segment for ``digest``, or None.

    Falls back through older segments if the newest is torn, foreign, or
    stores digests of another width (atomic writes make a torn one
    near-impossible, but resume must never die on a half-written file
    when an older complete one exists).
    """
    segments = segment_dir(directory, digest)
    if not segments.is_dir():
        return None
    candidates = sorted(
        segments.glob(f"segment-*{SEGMENT_SUFFIX}"), key=_segment_seq, reverse=True
    )
    for path in candidates:
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            continue
        if (
            not isinstance(payload, dict)
            or payload.get("format") != SEGMENT_FORMAT
            or payload.get("version") != SEGMENT_VERSION
            or payload.get("root_digest") != digest
            or payload.get("digest_size") != DIGEST_SIZE
        ):
            continue
        return Segment(
            root_digest=payload["root_digest"],
            seq=payload["seq"],
            states=payload["states"],
            transitions=payload["transitions"],
            elapsed_seconds=payload["elapsed_seconds"],
            workers=payload["workers"],
            marks=payload["marks"],
            frontier_blob=payload["frontier"],
            store_uri=payload["store"],
            meta=payload.get("meta", {}),
        )
    return None


def compact_segments(
    directory: str | os.PathLike, digest: bytes, keep_seq: int
) -> None:
    """Drop every segment of ``digest``'s run except ``keep_seq`` (resume)."""
    segments = segment_dir(directory, digest)
    if not segments.is_dir():
        return
    for path in segments.glob(f"segment-*{SEGMENT_SUFFIX}"):
        if _segment_seq(path) != keep_seq:
            path.unlink(missing_ok=True)


def find_checkpoint(
    directory: str | os.PathLike, digest: bytes
) -> Path | None:
    """The checkpoint for ``digest`` under ``directory``, if present.

    Monolithic files win over segment directories when both exist (a
    store-backed run that later completed monolithically); a segment
    directory only counts when it holds at least one segment file.
    """
    path = checkpoint_path(directory, digest)
    if path.exists():
        return path
    segments = segment_dir(directory, digest)
    if segments.is_dir() and any(segments.glob(f"segment-*{SEGMENT_SUFFIX}")):
        return segments
    return None


def list_checkpoints(directory: str | os.PathLike) -> list[Path]:
    """Every checkpoint under ``directory``, sorted by root digest.

    The serving layer uses this at restart to discover which
    explorations were in flight when the process died: each returned
    path names its root digest (``engine-<digest>.ckpt`` files and
    ``engine-<digest>.segs`` delta-segment directories alike), so
    in-flight jobs can be matched to their snapshots without loading
    payloads.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = list(directory.glob(f"engine-*{CHECKPOINT_SUFFIX}"))
    found.extend(
        segments
        for segments in directory.glob(f"engine-*{SEGMENT_DIR_SUFFIX}")
        if segments.is_dir() and any(segments.glob(f"segment-*{SEGMENT_SUFFIX}"))
    )
    return sorted(found)


def checkpoint_meta(path: str | os.PathLike) -> dict:
    """The ``meta`` dict of one checkpoint, without decoding any states.

    ``path`` is anything :func:`list_checkpoints` returns: a monolithic
    ``.ckpt`` file (the payload is unpickled but its packed states are
    never codec-decoded) or a delta-segment directory (the newest
    readable segment's meta wins).  Checkpoints written by a
    ledger-registered run carry ``run_id`` here, which is how ``repro
    runs`` tooling maps snapshots on disk back to ledger records.
    Unreadable or foreign files return ``{}`` rather than raising — this
    is an introspection helper, not a resume path.
    """
    path = Path(path)
    if path.is_dir():
        candidates = sorted(
            path.glob(f"segment-*{SEGMENT_SUFFIX}"), key=_segment_seq, reverse=True
        )
        for candidate in candidates:
            try:
                with open(candidate, "rb") as handle:
                    payload = pickle.load(handle)
            except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
                continue
            if isinstance(payload, dict) and payload.get("format") == SEGMENT_FORMAT:
                meta = payload.get("meta", {})
                return meta if isinstance(meta, dict) else {}
        return {}
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        return {}
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        return {}
    meta = payload.get("meta", {})
    return meta if isinstance(meta, dict) else {}


def resume_hint(directory: str | os.PathLike, store: str | None = None) -> str:
    """The ready-to-run recipe for resuming checkpoints under ``directory``.

    Attached to :class:`~repro.engine.budget.BudgetExhausted` whenever
    the engine writes a checkpoint on the way out, so the exit-2 path
    tells the caller *how* to continue, not just that a snapshot exists.
    ``store`` is the run's store URI: delta segments resume only against
    the store they were written with, so the recipe names it.
    """
    engine = f"checkpoint_dir={str(directory)!r}, resume=True"
    cli = f"--resume {directory}"
    if store is not None:
        engine = f"store={store!r}, {engine}"
        cli += f" --store {shlex.quote(store)}"
    return f"ExplorationEngine({engine}) (CLI: {cli})"


def discard_checkpoint(directory: str | os.PathLike, digest: bytes) -> None:
    """Remove a completed exploration's checkpoint (file and/or segments)."""
    path = checkpoint_path(directory, digest)
    try:
        path.unlink()
    except FileNotFoundError:
        pass
    segments = segment_dir(directory, digest)
    if segments.is_dir():
        shutil.rmtree(segments, ignore_errors=True)
