"""Exploration snapshots: write, load, locate, and retire checkpoints.

A checkpoint captures everything needed to continue a breadth-first
exploration exactly where it stopped:

* ``order``    — every discovered state, in discovery order (this *is*
  the visited set; the digest set is rebuilt from it on load);
* ``edges``    — the expansions committed so far (``state -> [(task,
  action, successor), ...]``);
* ``frontier`` — discovered-but-not-expanded states, in expansion order;
* ``transitions`` / ``elapsed_seconds`` — progress counters, so resumed
  runs keep honest budgets and reports.

The invariant linking them (maintained by the engine even when a budget
raise interrupts a half-merged expansion): every state is in ``order``;
a state is either a key of ``edges`` or queued in ``frontier``; and
every successor referenced by ``edges`` is in ``order``.  Resuming is
therefore just "rebuild the visited set, continue the loop".

Files are written atomically (temp file + ``os.replace``) and named by
the digest of the exploration's **root** state, so a pipeline that runs
several explorations against one checkpoint directory resumes exactly
the interrupted one and starts the others fresh.  A checkpoint is
deleted when its exploration completes.

Format v2 (packed)
------------------

Since the packed-bytes refactor the payload stores each state **once**,
as its canonical packed bytes (:mod:`repro.engine.codec`), with
``edges`` and ``frontier`` flattened to indices into that list plus
interned task/action tables.  This kills the v1 format's quadratic
blowup — pickling ``edges`` used to re-serialize every successor state
per referencing edge — and gives resume a fast path: the visited digest
set is rebuilt from the packed bytes alone (``blake2b(packed)`` *is*
the fingerprint), no state re-encoded.  Tasks, actions, and the
dataclass/enum classes the codec needs for decoding are pickled by
reference alongside, so a fresh process (``--resume`` from the CLI) can
register the classes before decoding.  States the codec cannot
round-trip (repr-encoded components, unpicklable classes) drop the
whole payload back to v1-style object pickling (``mode="pickle"``),
trading size for fidelity.

Compatibility: v1 files (object-pickle payloads from engines before the
format bump) still **load** — resume works across the bump — but saves
always write v2.  :attr:`Checkpoint.packed_order` carries the packed
states out of a v2 load so the engine can seed its tables without
re-encoding; it is ``None`` for v1 loads and ``mode="pickle"`` v2
payloads, where the engine falls back to encoding on resume.

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
:func:`list_checkpoints` surface segment directories alongside v1/v2
files; :func:`load_checkpoint` on a segment directory raises with the
recipe (segments carry no states — a store is required to resume).
"""

from __future__ import annotations

import os
import pickle
import shlex
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Hashable

from .codec import Codec, CodecError, register_codec_type, registered_codec_types
from .fingerprint import DIGEST_SIZE, fingerprint

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

    ``packed_order`` mirrors ``order`` as canonical packed bytes when
    the snapshot came through the packed (v2) path — producers never
    set it; it is populated by :func:`load_checkpoint` so resume can
    rebuild digests from bytes alone.
    """

    root: Hashable
    root_digest: bytes
    order: list
    edges: dict
    frontier: list
    transitions: int
    elapsed_seconds: float
    workers: int = 1
    meta: dict = field(default_factory=dict)
    packed_order: list | None = field(default=None, repr=False, compare=False)


def root_digest(root: Hashable) -> bytes:
    """The digest identifying the exploration rooted at ``root``."""
    return fingerprint(root)


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


def _pack_payload(checkpoint: Checkpoint, codec: Codec) -> dict:
    """The packed (v2) payload body; raises ``CodecError`` if any state
    cannot round-trip through the codec."""
    order = checkpoint.order
    # Positions are keyed by packed bytes, NOT by state equality: two
    # order entries that merely compare equal (1 vs True under a
    # digest-keyed index) are distinct graph nodes with distinct
    # encodings, and an ==-keyed dict would collapse them to one index,
    # pointing edges/frontier at the wrong node after resume.
    index_of: dict[bytes, int] = {}
    packed_order: list = []
    for position, state in enumerate(order):
        packed = codec.encode(state)
        # Verified identity: a state whose encoding cannot reproduce it
        # (repr fallback, unregistered semantics) must not be persisted
        # packed — decode() raises CodecError and we fall back to pickle.
        if codec.decode(packed) != state:
            raise CodecError(f"state at order[{position}] does not round-trip")
        index_of.setdefault(packed, position)
        packed_order.append(packed)

    def position_of(state) -> int:
        # Re-encoding is a warm-cache identity hit: edges and frontier
        # reference the same interned objects ``order`` holds.
        position = index_of.get(codec.encode(state))
        if position is None:
            # An edge or frontier state whose encoding matches nothing
            # in ``order`` (non-canonical alias) cannot be represented
            # by index — demote the whole payload to object pickling.
            raise CodecError("edge/frontier state is not in order")
        return position

    tasks: list = []
    task_index: dict = {}
    actions: list = []
    action_index: dict = {}
    edges: list = []
    for state, rows in checkpoint.edges.items():
        packed_rows = []
        for task, action, successor in rows:
            position = task_index.get(task)
            if position is None:
                position = task_index[task] = len(tasks)
                tasks.append(task)
            slot = action_index.get(action)
            if slot is None:
                slot = action_index[action] = len(actions)
                actions.append(action)
            packed_rows.append((position, slot, position_of(successor)))
        edges.append((position_of(state), packed_rows))
    return {
        "mode": "packed",
        "packed_order": packed_order,
        "edges": edges,
        "frontier": [position_of(state) for state in checkpoint.frontier],
        "tasks": tasks,
        "actions": actions,
        # Classes the codec needs to decode, pickled by reference so a
        # fresh process can re-register them before touching the bytes.
        "codec_types": registered_codec_types(),
        "root_digest": checkpoint.root_digest,
        "digest_size": DIGEST_SIZE,
        "workers": checkpoint.workers,
        "transitions": checkpoint.transitions,
        "elapsed_seconds": checkpoint.elapsed_seconds,
        "meta": checkpoint.meta,
    }


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
    if codec is None:
        codec = Codec()
    try:
        body = _pack_payload(checkpoint, codec)
        blob = pickle.dumps(payload | body, protocol=pickle.HIGHEST_PROTOCOL)
    except (CodecError, pickle.PicklingError, AttributeError, TypeError):
        body = {
            "mode": "pickle",
            "checkpoint": checkpoint,
            "digest_size": DIGEST_SIZE,
        }
        blob = pickle.dumps(payload | body, protocol=pickle.HIGHEST_PROTOCOL)
    temporary = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
    try:
        with open(temporary, "wb") as handle:
            handle.write(blob)
        os.replace(temporary, path)
    finally:
        if temporary.exists():  # pragma: no cover - failed write cleanup
            temporary.unlink()
    return path


def _unpack_payload(payload: dict, path: Path) -> Checkpoint:
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
        order = [codec.decode(packed) for packed in payload["packed_order"]]
    except CodecError as error:
        raise CheckpointError(f"{path}: cannot decode packed states: {error}") from error
    tasks = payload["tasks"]
    actions = payload["actions"]
    # Stored rows are index-based, so every successor/frontier reference
    # resolves to the exact ``order`` node it was saved against.  The
    # returned ``edges`` dict is state-keyed because that is the
    # :class:`Checkpoint` contract (``run.edges`` in the engine is the
    # same ==-keyed dict), so ==-equal order entries share one key here
    # exactly as they would have live.
    edges = {
        order[state_index]: [
            (tasks[task_slot], actions[action_slot], order[successor_index])
            for task_slot, action_slot, successor_index in rows
        ]
        for state_index, rows in payload["edges"]
    }
    return Checkpoint(
        root=order[0],
        root_digest=payload["root_digest"],
        order=order,
        edges=edges,
        frontier=[order[index] for index in payload["frontier"]],
        transitions=payload["transitions"],
        elapsed_seconds=payload["elapsed_seconds"],
        workers=payload["workers"],
        meta=payload.get("meta", {}),
        packed_order=payload["packed_order"],
    )


def load_checkpoint(path: str | os.PathLike) -> Checkpoint:
    """Load and validate a checkpoint file (v2 packed, v2 pickle, or v1)."""
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
    if version == 1 or (version == 2 and payload.get("mode") == "pickle"):
        checkpoint = payload.get("checkpoint")
        if not isinstance(checkpoint, Checkpoint):  # pragma: no cover - corrupt
            raise CheckpointError(f"{path} payload is not a Checkpoint")
        # Object pickles from before the width became a constant carry
        # it as an attribute of the checkpoint itself.
        stored = vars(checkpoint).pop("digest_size", DIGEST_SIZE)
        _check_width(path, payload.get("digest_size", stored))
        return checkpoint
    if version == 2:
        if payload.get("mode") != "packed":  # pragma: no cover - corrupt
            raise CheckpointError(f"{path} has unknown payload mode")
        _check_width(path, payload.get("digest_size"))
        return _unpack_payload(payload, path)
    raise CheckpointError(
        f"{path} has checkpoint version {version!r}, "
        f"this engine reads versions 1-{CHECKPOINT_VERSION}"
    )


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
    if payload.get("mode") == "pickle":
        checkpoint = payload.get("checkpoint")
        meta = getattr(checkpoint, "meta", {})
        return meta if isinstance(meta, dict) else {}
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
