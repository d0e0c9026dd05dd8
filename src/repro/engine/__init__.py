"""repro.engine — parallel state-space exploration with budgets and resume.

The engine is the scalable successor of
:func:`repro.analysis.explorer.explore` (which now delegates here):

* :mod:`repro.engine.codec`       — the canonical packed-bytes state
  representation (:class:`Codec`): one TLV encoding that is both the
  fingerprint preimage and the wire/checkpoint format, with a verified
  decode path and component/string interning;
* :mod:`repro.engine.fingerprint` — hash-seed-independent state digests
  (``blake2b`` over the packed bytes); the visited set stores 16-byte
  digests instead of full states, with an optional collision-audit mode;
* :mod:`repro.engine.visited`     — the lock-free shared-memory visited
  table (:class:`SharedVisitedTable`) forked workers consult before
  shipping successors back to the coordinator;
* :mod:`repro.engine.budget`      — the unified :class:`Budget`
  (``max_states`` / ``max_transitions`` / ``deadline_seconds``) and the
  structured :class:`BudgetExhausted` carrying partial-progress stats;
* :mod:`repro.engine.checkpoint`  — periodic frontier + visited-set
  snapshots so interrupted or budget-exhausted runs resume instead of
  restarting (monolithic files for in-RAM runs, streaming delta
  segments for store-backed ones);
* :mod:`repro.engine.store`       — the :class:`StateStore` protocol
  and its ``sqlite`` backend behind external-memory exploration:
  digest-keyed state storage, an in-memory digest visited set, and a
  spillable FIFO frontier, so 10^6+-state runs hold packed bytes on disk
  instead of decoded states in RAM;
* :mod:`repro.engine.parallel`    — the fork-based worker pool doing
  frontier-partitioned parallel BFS (states sharded by digest) for the
  engine's store-backed round loop (``workers > 1`` needs a store),
  with an in-process fallback when
  fork is unavailable; a lost worker stops the run;
* :mod:`repro.engine.api`         — the :class:`ExplorationEngine`
  facade the analysis layer and the CLI drive, with a documented
  guarantee that the produced graph is identical to the sequential one;
* :mod:`repro.engine.errors`      — the structured :class:`EngineError`
  base and :class:`WorkerLost`, which a fail-stop pool raises when a
  worker dies (the run resumes from its checkpoint);
* :mod:`repro.engine.reduction`   — symmetry (orbit-quotient) and
  ample-set partial-order reduction, shrinking the explored graph while
  preserving the queries the analysis layer asks (see
  ``docs/reduction.md`` for the soundness argument and limits).
"""

from .api import EngineReport, ExplorationEngine
from .budget import (
    DEFAULT_BUDGET,
    Budget,
    BudgetExhausted,
    Deadline,
)
from .codec import (
    Codec,
    CodecError,
    decode_bytes,
    digest_of_packed,
    register_codec_type,
    registered_codec_types,
)
from .checkpoint import (
    Checkpoint,
    CheckpointError,
    Segment,
    checkpoint_meta,
    checkpoint_path,
    compact_segments,
    discard_checkpoint,
    find_checkpoint,
    list_checkpoints,
    load_checkpoint,
    load_segment,
    resume_hint,
    save_checkpoint,
    save_segment,
    segment_dir,
)
from .errors import EngineError, WorkerLost
from .fingerprint import (
    DIGEST_SIZE,
    FingerprintCollision,
    FingerprintIndex,
    StateIndex,
    canonical_bytes,
    fingerprint,
    fingerprint_components,
    shard_of,
)
from .parallel import WorkerPool, fork_available
from .store import (
    SQLiteStore,
    StateStore,
    StoreConfig,
    StoreError,
    StoreStats,
    open_store,
    resolve_store,
)
from .visited import (
    LocalVisitedFilter,
    SharedVisitedTable,
    shared_memory_available,
)
from .reduction import (
    Canonicalizer,
    ReducedView,
    ReductionAuditError,
    ReductionComparison,
    ReductionConfig,
    audit_reduction,
    build_reduced_view,
    compare_reduction,
)

__all__ = [
    "Budget",
    "BudgetExhausted",
    "Canonicalizer",
    "Checkpoint",
    "CheckpointError",
    "Codec",
    "CodecError",
    "DEFAULT_BUDGET",
    "DIGEST_SIZE",
    "Deadline",
    "EngineError",
    "EngineReport",
    "ExplorationEngine",
    "FingerprintCollision",
    "FingerprintIndex",
    "LocalVisitedFilter",
    "ReducedView",
    "ReductionAuditError",
    "ReductionComparison",
    "ReductionConfig",
    "SQLiteStore",
    "Segment",
    "SharedVisitedTable",
    "StateIndex",
    "StateStore",
    "StoreConfig",
    "StoreError",
    "StoreStats",
    "WorkerLost",
    "WorkerPool",
    "audit_reduction",
    "build_reduced_view",
    "canonical_bytes",
    "checkpoint_meta",
    "checkpoint_path",
    "compact_segments",
    "compare_reduction",
    "decode_bytes",
    "digest_of_packed",
    "discard_checkpoint",
    "find_checkpoint",
    "fingerprint",
    "fingerprint_components",
    "fork_available",
    "list_checkpoints",
    "load_checkpoint",
    "load_segment",
    "open_store",
    "register_codec_type",
    "registered_codec_types",
    "resolve_store",
    "resume_hint",
    "save_checkpoint",
    "save_segment",
    "segment_dir",
    "shard_of",
    "shared_memory_available",
]
