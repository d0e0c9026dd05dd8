"""Pluggable state storage: the external-memory backend behind the engine.

ROADMAP item 2 names memory — not CPU — as the exploration scaling
wall: the full tob(4,1) run peaks around 4 GB RSS for only 359k states,
because the classic engine retains every *decoded* state (plus its
edges) for the duration of the run.  The packed-bytes refactor (PR 8)
made the canonical :mod:`~repro.engine.codec` encoding the primary
representation precisely so the retained data could leave RAM; this
module is where it goes.

A :class:`StateStore` bundles the three structures a breadth-first
exploration actually needs, each keyed by the 16-byte state fingerprint:

* ``digest -> packed`` **state storage** — every discovered state's
  canonical bytes, appended once in discovery order (the append order
  *is* the BFS discovery order, which is what lets a store-backed run
  reproduce the classic engine's graph exactly);
* a **visited set** — exact membership, kept as an in-memory set of
  digests and rebuilt from the state sequence on resume; 16 bytes per
  state means 10^7 states cost ~160 MB of RAM while the multi-KB
  decoded states stay on disk;
* a spillable **FIFO frontier** — discovered-but-unexpanded digests; an
  in-memory window backed by a spill file, so a 10^6-wide frontier costs
  a bounded amount of RAM.

plus an append-only **expansion log** (``parent, task, action,
successor`` rows) from which :meth:`iter_expansions` replays the exact
edge structure for graph materialization and checkpoint compatibility.

One backend implements the protocol, ``sqlite``: one WAL-mode database
(stdlib ``sqlite3``), batched writes, durable ``flush()``.  The
abstract :class:`StateStore` stays the seam a wrapping or fault-injecting
store plugs into.  A run without a store is the engine's classic in-RAM
loop, which needs none of this.

Stores are selected with a string URI (resolved by
:func:`resolve_store`)::

    ExplorationEngine(store="sqlite:/var/tmp/run")     # URI
    ExplorationEngine(store=StoreConfig(path=...))
    ExplorationEngine(store=my_store_instance)          # pre-opened

Durability contract (the streaming-delta checkpoint protocol): the
engine calls :meth:`flush` every ``flush_interval`` expansions, then
writes a small *segment* file (counters + frontier digests — see
:mod:`repro.engine.checkpoint`).  :meth:`marks` returns the durable
high-water marks the flush established; on resume the engine calls
:meth:`truncate` with the marks recorded in the segment, dropping any
states or expansion rows the store absorbed after the last segment was
written, so a SIGKILL at any instruction resumes into a consistent
prefix of the run.
"""

from __future__ import annotations

import pickle
import shutil
import tempfile
import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Hashable, Iterator

from .codec import DIGEST_SIZE

#: Default expansions between store flushes / delta segments.
DEFAULT_FLUSH_INTERVAL = 50_000

#: Default in-memory frontier window (digests) before spilling to disk.
DEFAULT_FRONTIER_WINDOW = 65_536


class StoreError(RuntimeError):
    """A storage backend failed or was driven outside its contract."""


@dataclass(frozen=True)
class StoreConfig:
    """How to open the ``sqlite`` :class:`StateStore`.

    ``path`` is the directory the store lives in; ``None`` means a
    scratch temporary directory that is deleted when the store closes
    (fine for one-shot runs, useless for kill-and-resume — pass a real
    path to resume: the engine refuses ``checkpoint_dir=`` with a
    scratch store, since its delta segments could never resume).
    ``flush_interval`` is the number of committed expansions between
    durable flushes (and therefore between delta-checkpoint segments);
    ``frontier_window`` bounds the in-memory frontier before digests
    spill to disk.
    """

    path: str | None = None
    flush_interval: int = DEFAULT_FLUSH_INTERVAL
    frontier_window: int = DEFAULT_FRONTIER_WINDOW

    def __post_init__(self) -> None:
        if self.flush_interval < 1:
            raise ValueError("flush_interval must be >= 1")
        if self.frontier_window < 1:
            raise ValueError("frontier_window must be >= 1")

    @classmethod
    def from_uri(cls, uri: str) -> "StoreConfig":
        """Parse a store URI: ``sqlite`` or ``sqlite:/path``.

        The path part is optional (a scratch directory is used when
        omitted).  Tuning knobs ride a query string:
        ``sqlite:/var/run?flush=10000&window=4096``.
        """
        if not isinstance(uri, str) or not uri:
            raise ValueError(f"store URI must be a nonempty string, got {uri!r}")
        backend, _, rest = uri.partition(":")
        rest, _, query = rest.partition("?")
        if backend != "sqlite":
            raise ValueError(
                f"unknown store backend {backend!r}; expected sqlite"
            )
        overrides: dict = {}
        if query:
            names = {"flush": "flush_interval", "window": "frontier_window"}
            for pair in query.split("&"):
                key, _, value = pair.partition("=")
                if key not in names:
                    raise ValueError(
                        f"unknown store option {key!r}; expected one of "
                        f"{', '.join(sorted(names))}"
                    )
                try:
                    overrides[names[key]] = int(value)
                except ValueError:
                    raise ValueError(
                        f"store option {key}= must be an integer, got {value!r}"
                    ) from None
        return cls(path=rest or None, **overrides)

    def to_uri(self) -> str:
        """The canonical URI (inverse of :meth:`from_uri`, defaults omitted)."""
        uri = "sqlite"
        if self.path is not None:
            uri += f":{self.path}"
        query = []
        if self.flush_interval != DEFAULT_FLUSH_INTERVAL:
            query.append(f"flush={self.flush_interval}")
        if self.frontier_window != DEFAULT_FRONTIER_WINDOW:
            query.append(f"window={self.frontier_window}")
        if query:
            if self.path is None:
                uri += ":"
            uri += "?" + "&".join(query)
        return uri


@dataclass
class StoreStats:
    """Storage counters one exploration accumulated (``EngineReport`` feed)."""

    states: int = 0
    spilled_states: int = 0
    flushes: int = 0
    flush_seconds: float = 0.0
    last_flush_seconds: float = 0.0
    bytes_on_disk: int = 0

    def to_json(self) -> dict:
        """JSON-serializable payload (the shared report protocol)."""
        return {
            "backend": "sqlite",
            "states": self.states,
            "spilled_states": self.spilled_states,
            "flushes": self.flushes,
            "flush_seconds": self.flush_seconds,
            "last_flush_seconds": self.last_flush_seconds,
            "bytes_on_disk": self.bytes_on_disk,
        }


def _split_digests(blob: bytes) -> Iterator[bytes]:
    """The digests of a concatenated frontier blob, in order."""
    return (
        blob[offset : offset + DIGEST_SIZE]
        for offset in range(0, len(blob), DIGEST_SIZE)
    )


class _SpillFrontier:
    """FIFO digest queue: an in-memory window backed by a spill file.

    Order invariant: ``head + spill_file[cursor:] + tail``.  Pushes land
    in ``head`` until the window fills, then go through ``tail`` into
    the spill file; pops drain ``head``, refilling it from the spill
    file (then from ``tail``) when it empties.  ``push_front`` exists
    for the engine's budget-breach repair (re-queue the half-merged
    state at the head).  The spill file is scratch: crash recovery
    rebuilds the frontier from the delta segment, not from this file.
    """

    __slots__ = (
        "window",
        "_head",
        "_tail",
        "_path",
        "_file",
        "_read_offset",
        "_write_offset",
        "spilled",
    )

    def __init__(self, directory: Path, window: int) -> None:
        self.window = window
        self._head: deque = deque()
        self._tail: deque = deque()
        self._path = directory / "frontier.spill"
        self._file = None
        self._read_offset = 0
        self._write_offset = 0
        self.spilled = 0

    def _spill_handle(self):
        if self._file is None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self._path, "w+b")
        return self._file

    def _spill_len(self) -> int:
        return (self._write_offset - self._read_offset) // DIGEST_SIZE

    def push(self, digest: bytes) -> None:
        if self._spill_len() == 0 and not self._tail and len(self._head) < self.window:
            self._head.append(digest)
            return
        self._tail.append(digest)
        if len(self._tail) >= self.window:
            self._spill_tail()

    def _spill_tail(self) -> None:
        handle = self._spill_handle()
        handle.seek(self._write_offset)
        blob = b"".join(self._tail)
        handle.write(blob)
        self._write_offset += len(blob)
        self.spilled += len(self._tail)
        self._tail.clear()

    def push_front(self, digest: bytes) -> None:
        self._head.appendleft(digest)

    def pop(self) -> bytes | None:
        if not self._head:
            self._refill()
        if not self._head:
            return None
        return self._head.popleft()

    def _refill(self) -> None:
        pending = self._spill_len()
        if pending:
            handle = self._spill_handle()
            handle.seek(self._read_offset)
            take = min(pending, self.window)
            blob = handle.read(take * DIGEST_SIZE)
            self._read_offset += len(blob)
            self._head.extend(_split_digests(blob))
            if self._spill_len() == 0:
                # Fully drained: rewind so the file never grows unboundedly.
                handle.seek(0)
                handle.truncate(0)
                self._read_offset = self._write_offset = 0
            return
        if self._tail:
            self._head, self._tail = self._tail, self._head

    def __len__(self) -> int:
        return len(self._head) + self._spill_len() + len(self._tail)

    def __bool__(self) -> bool:
        return len(self) > 0

    def snapshot(self) -> bytes:
        """Every queued digest, in pop order, as one concatenated blob."""
        parts = [b"".join(self._head)]
        if self._spill_len():
            handle = self._spill_handle()
            handle.seek(self._read_offset)
            parts.append(handle.read(self._write_offset - self._read_offset))
        parts.append(b"".join(self._tail))
        return b"".join(parts)

    def load(self, blob: bytes) -> None:
        """Replace the queue contents with a :meth:`snapshot` blob."""
        self._head.clear()
        self._tail.clear()
        if self._file is not None:
            self._file.seek(0)
            self._file.truncate(0)
        self._read_offset = self._write_offset = 0
        for digest in _split_digests(blob):
            self.push(digest)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        try:
            self._path.unlink()
        except FileNotFoundError:
            pass


class StateStore(ABC):
    """The backend protocol external-memory exploration runs against.

    One store instance serves exactly one exploration (one root).  All
    sequence numbers are discovery indices: :meth:`add` must assign them
    contiguously from 0 in call order, because the engine relies on
    append order being BFS discovery order to reproduce the classic
    engine's graph.

    The expansion log mirrors the classic engine's ``edges`` dict:
    :meth:`append_expansion` is called once per expanded state, in
    expansion order, with that state's outgoing rows (possibly empty —
    pruned states record an empty expansion, exactly as the classic
    engine records ``edges[state] = []``).
    """

    config: StoreConfig

    # -- states ------------------------------------------------------------

    @abstractmethod
    def add(self, digest: bytes, packed: bytes) -> int:
        """Record a newly discovered state; returns its discovery index.

        Discovery indices are contiguous from 0 in call order (= BFS
        discovery order); ``add`` also inserts into the visited set.
        Adding an already-present digest is an idempotent no-op — the
        store keeps the first packed bytes — and returns ``-1`` (the
        engine checks membership first, so the duplicate path is only a
        safety net for replay/recovery callers).
        """

    @abstractmethod
    def get(self, digest: bytes) -> bytes | None:
        """The packed bytes of a discovered state (None when unknown)."""

    @abstractmethod
    def __contains__(self, digest: bytes) -> bool:
        """Visited-set membership."""

    @abstractmethod
    def __len__(self) -> int:
        """States discovered so far."""

    @abstractmethod
    def iter_packed(self) -> Iterator[bytes]:
        """Every state's packed bytes, in discovery order."""

    # -- expansion log -----------------------------------------------------

    @abstractmethod
    def append_expansion(
        self, parent: bytes, rows: list[tuple[int, int, bytes]]
    ) -> None:
        """Record one expansion: ``rows`` are ``(task, action_slot, succ_digest)``."""

    @abstractmethod
    def iter_expansions(self) -> Iterator[tuple[bytes, list[tuple[int, int, bytes]]]]:
        """Expansions in commit order (graph materialization)."""

    @abstractmethod
    def action_slot(self, action: Hashable) -> int:
        """Intern an action object; returns its stable slot."""

    @abstractmethod
    def actions(self) -> list:
        """The interned action table, by slot."""

    # -- frontier ----------------------------------------------------------

    @abstractmethod
    def push(self, digest: bytes) -> None:
        """Queue a digest at the frontier's tail."""

    @abstractmethod
    def push_front(self, digest: bytes) -> None:
        """Re-queue a digest at the frontier's head (budget repair)."""

    @abstractmethod
    def pop(self) -> bytes | None:
        """Dequeue the next frontier digest (None when empty)."""

    @abstractmethod
    def frontier_snapshot(self) -> bytes:
        """The queued digests, pop order, concatenated (segment payload)."""

    @abstractmethod
    def frontier_load(self, blob: bytes) -> None:
        """Replace the frontier with a :meth:`frontier_snapshot` blob."""

    @abstractmethod
    def frontier_len(self) -> int:
        """Queued digests."""

    # -- durability --------------------------------------------------------

    @abstractmethod
    def flush(self) -> None:
        """Make everything added so far durable; advances :meth:`marks`."""

    @abstractmethod
    def marks(self) -> dict:
        """Backend-opaque high-water marks of the last :meth:`flush`."""

    @abstractmethod
    def truncate(self, marks: dict) -> None:
        """Drop everything recorded after ``marks`` (resume reconciliation)."""

    @abstractmethod
    def clear(self) -> None:
        """Drop everything: a fresh-start engine wipes a stale store."""

    # -- lifecycle ---------------------------------------------------------

    @abstractmethod
    def stats(self) -> StoreStats:
        """Current :class:`StoreStats`."""

    @abstractmethod
    def close(self) -> None:
        """Release resources (scratch directories are deleted here)."""

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SQLiteStore(StateStore):
    """The ``sqlite`` backend: one WAL database, batched durable writes.

    ``states`` rows carry discovery order via an autoincrementing
    ``seq``; ``expansions``/``edges`` replay the classic engine's edges
    dict in commit order (an expansion of ``nrows`` owns the next
    ``nrows`` edge rows).  Writes buffer in RAM and hit the database in
    one transaction per :meth:`flush`, so the durability point the delta
    checkpoints rely on is also the only fsync.  Membership is an
    in-memory digest set rebuilt from the ``states`` table on open, and
    the frontier is a :class:`_SpillFrontier` in the same directory.
    """

    def __init__(self, config: StoreConfig) -> None:
        import sqlite3

        self.config = config
        if config.path is None:
            self._scratch = True
            self.directory = Path(tempfile.mkdtemp(prefix="repro-sqlite-"))
        else:
            self._scratch = False
            self.directory = Path(config.path)
            self.directory.mkdir(parents=True, exist_ok=True)
        self._visited: set[bytes] = set()
        self._frontier = _SpillFrontier(self.directory, config.frontier_window)
        self._flushes = 0
        self._flush_seconds = 0.0
        self._last_flush_seconds = 0.0
        self._closed = False
        self._db = sqlite3.connect(self.directory / "store.db")
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(
            """
            CREATE TABLE IF NOT EXISTS states(
                seq INTEGER PRIMARY KEY, digest BLOB UNIQUE NOT NULL,
                packed BLOB NOT NULL);
            CREATE TABLE IF NOT EXISTS expansions(
                seq INTEGER PRIMARY KEY, parent BLOB NOT NULL,
                nrows INTEGER NOT NULL);
            CREATE TABLE IF NOT EXISTS edges(
                seq INTEGER PRIMARY KEY, task INTEGER NOT NULL,
                action INTEGER NOT NULL, succ BLOB NOT NULL);
            CREATE TABLE IF NOT EXISTS meta(
                key TEXT PRIMARY KEY, value BLOB NOT NULL);
            """
        )
        self._pending_states: list[tuple[bytes, bytes]] = []
        self._pending_packed: dict[bytes, bytes] = {}
        self._pending_expansions: list[tuple[bytes, int]] = []
        self._pending_edges: list[tuple[int, int, bytes]] = []
        self._actions: list = []
        self._action_index: dict = {}
        self._actions_dirty = False
        self._reload()

    def _reload(self) -> None:
        """Adopt an existing database (resume): visited set + counters."""
        row = self._db.execute("SELECT MAX(seq) FROM states").fetchone()
        if row[0] is None:
            return
        for (digest,) in self._db.execute("SELECT digest FROM states ORDER BY seq"):
            self._visited.add(bytes(digest))
        blob = self._db.execute(
            "SELECT value FROM meta WHERE key='actions'"
        ).fetchone()
        if blob is not None:
            self._actions = pickle.loads(blob[0])
            self._action_index = {
                action: slot for slot, action in enumerate(self._actions)
            }

    def add(self, digest: bytes, packed: bytes) -> int:
        visited = self._visited
        if digest in visited:
            return -1
        visited.add(digest)
        self._pending_states.append((digest, packed))
        self._pending_packed[digest] = packed
        return len(visited) - 1

    def get(self, digest: bytes) -> bytes | None:
        packed = self._pending_packed.get(digest)
        if packed is not None:
            return packed
        row = self._db.execute(
            "SELECT packed FROM states WHERE digest=?", (digest,)
        ).fetchone()
        return None if row is None else bytes(row[0])

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._visited

    def __len__(self) -> int:
        return len(self._visited)

    def iter_packed(self) -> Iterator[bytes]:
        self.flush()
        for (packed,) in self._db.execute("SELECT packed FROM states ORDER BY seq"):
            yield bytes(packed)

    def append_expansion(self, parent, rows) -> None:
        self._pending_expansions.append((parent, len(rows)))
        self._pending_edges.extend(rows)

    def iter_expansions(self):
        self.flush()
        edges = self._db.execute(
            "SELECT task, action, succ FROM edges ORDER BY seq"
        )
        cursor = 0
        rows = edges.fetchall()
        for parent, nrows in self._db.execute(
            "SELECT parent, nrows FROM expansions ORDER BY seq"
        ).fetchall():
            out = [
                (task, action, bytes(succ))
                for task, action, succ in rows[cursor : cursor + nrows]
            ]
            cursor += nrows
            yield bytes(parent), out

    def action_slot(self, action) -> int:
        slot = self._action_index.get(action)
        if slot is None:
            slot = self._action_index[action] = len(self._actions)
            self._actions.append(action)
            self._actions_dirty = True
        return slot

    def actions(self) -> list:
        return self._actions

    def flush(self) -> None:
        if not (
            self._pending_states
            or self._pending_expansions
            or self._pending_edges
            or self._actions_dirty
        ):
            return
        started = time.perf_counter()
        with self._db:  # one transaction: all-or-nothing per flush
            self._db.executemany(
                "INSERT INTO states(digest, packed) VALUES(?, ?)",
                self._pending_states,
            )
            self._db.executemany(
                "INSERT INTO expansions(parent, nrows) VALUES(?, ?)",
                self._pending_expansions,
            )
            self._db.executemany(
                "INSERT INTO edges(task, action, succ) VALUES(?, ?, ?)",
                self._pending_edges,
            )
            if self._actions_dirty:
                self._db.execute(
                    "INSERT OR REPLACE INTO meta(key, value) VALUES('actions', ?)",
                    (pickle.dumps(self._actions, protocol=pickle.HIGHEST_PROTOCOL),),
                )
                self._actions_dirty = False
        self._pending_states.clear()
        self._pending_packed.clear()
        self._pending_expansions.clear()
        self._pending_edges.clear()
        self._last_flush_seconds = time.perf_counter() - started
        self._flushes += 1
        self._flush_seconds += self._last_flush_seconds

    def marks(self) -> dict:
        return {"states": len(self._visited), "expansions": self._expansion_count()}

    def _expansion_count(self) -> int:
        pending = len(self._pending_expansions)
        row = self._db.execute("SELECT COUNT(*) FROM expansions").fetchone()
        return row[0] + pending

    def truncate(self, marks: dict) -> None:
        self.flush()
        states = marks["states"]
        expansions = marks["expansions"]
        with self._db:
            keep_edges = self._db.execute(
                "SELECT COALESCE(SUM(nrows), 0) FROM expansions "
                "WHERE seq <= (SELECT COALESCE(MAX(seq), 0) FROM ("
                "SELECT seq FROM expansions ORDER BY seq LIMIT ?))",
                (expansions,),
            ).fetchone()[0]
            self._db.execute(
                "DELETE FROM states WHERE seq NOT IN "
                "(SELECT seq FROM states ORDER BY seq LIMIT ?)",
                (states,),
            )
            self._db.execute(
                "DELETE FROM expansions WHERE seq NOT IN "
                "(SELECT seq FROM expansions ORDER BY seq LIMIT ?)",
                (expansions,),
            )
            self._db.execute(
                "DELETE FROM edges WHERE seq NOT IN "
                "(SELECT seq FROM edges ORDER BY seq LIMIT ?)",
                (keep_edges,),
            )
        self._visited = set()
        self._reload()

    def clear(self) -> None:
        self._pending_states.clear()
        self._pending_packed.clear()
        self._pending_expansions.clear()
        self._pending_edges.clear()
        with self._db:
            self._db.execute("DELETE FROM states")
            self._db.execute("DELETE FROM expansions")
            self._db.execute("DELETE FROM edges")
            self._db.execute("DELETE FROM meta")
        self._visited = set()
        self._actions = []
        self._action_index = {}
        self._actions_dirty = False
        self._frontier.load(b"")

    # -- frontier ----------------------------------------------------------

    def push(self, digest: bytes) -> None:
        self._frontier.push(digest)

    def push_front(self, digest: bytes) -> None:
        self._frontier.push_front(digest)

    def pop(self) -> bytes | None:
        return self._frontier.pop()

    def frontier_snapshot(self) -> bytes:
        return self._frontier.snapshot()

    def frontier_load(self, blob: bytes) -> None:
        self._frontier.load(blob)

    def frontier_len(self) -> int:
        return len(self._frontier)

    # -- lifecycle ---------------------------------------------------------

    def _disk_bytes(self) -> int:
        total = 0
        try:
            for entry in self.directory.iterdir():
                try:
                    total += entry.stat().st_size
                except OSError:  # pragma: no cover - raced deletion
                    pass
        except OSError:  # pragma: no cover - directory gone
            pass
        return total

    def stats(self) -> StoreStats:
        return StoreStats(
            states=len(self._visited),
            spilled_states=self._frontier.spilled,
            flushes=self._flushes,
            flush_seconds=self._flush_seconds,
            last_flush_seconds=self._last_flush_seconds,
            bytes_on_disk=self._disk_bytes(),
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._frontier.close()
        try:
            self.flush()
        finally:
            self._db.close()
        if self._scratch:
            shutil.rmtree(self.directory, ignore_errors=True)


class MemoryStore:
    """The name of the deleted in-RAM backend, and nothing else.

    ``perfbench/spans.py`` still lists this class among those a traced
    benchmark run times; with no methods of its own there is nothing to
    wrap, and the lookup keeps working.  Delete it with that entry.
    """


def open_store(config: StoreConfig, namespace: str | None = None) -> StateStore:
    """Open the sqlite store for one exploration.

    ``namespace`` (the engine passes the root digest's hex) is appended
    to the configured path so one configured directory can serve every
    exploration of a pipeline without the visited sets colliding —
    exactly how checkpoint files are named by root digest.
    """
    if namespace is not None and config.path is not None:
        config = replace(config, path=str(Path(config.path) / namespace))
    return SQLiteStore(config)


def resolve_store(store) -> StoreConfig | StateStore | None:
    """Resolve the engine's ``store=`` argument (URI, config, instance).

    Returns ``None`` (classic in-memory exploration), a
    :class:`StoreConfig` the engine opens per exploration (namespaced by
    root digest), or a ready :class:`StateStore` instance the caller
    owns (bound to exactly one exploration).
    """
    if store is None or isinstance(store, (StoreConfig, StateStore)):
        return store
    if isinstance(store, str):
        return StoreConfig.from_uri(store)
    raise TypeError(
        "store must be None, a URI string, a StoreConfig, or a StateStore; "
        f"got {type(store).__name__}"
    )
