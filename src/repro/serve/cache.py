"""The verdict cache: canonical root fingerprints, budget dominance.

The millions-of-users path is a cache hit: the paper's artifact is a
*decision* about a candidate protocol, so identical questions must be
answered without re-exploration.  Two design points make the cache
sound rather than merely fast:

**Keying** — :func:`job_key` fingerprints the orbit-minimal
representative of the job's root state under the candidate's *full*
declared symmetry group (every permutation from
:func:`repro.engine.reduction._symmetry_permutations`, not just the
root's stabilizer as the PR-3 :class:`~repro.engine.reduction.Canonicalizer`
uses during exploration).  Symmetry-equivalent submissions — e.g. the
same candidate with relabeled proposals — therefore collapse onto one
entry, while the blake2b fingerprint from
:mod:`repro.engine.codec` keeps the key canonical across
processes and restarts.  Candidate shape (name, ``n``, ``f``) and the
reduction mode are mixed into the key too: the root state alone cannot
distinguish analysis modes that explore different graphs.

**Budget dominance** — a verdict is only as strong as the budget it ran
under, so an entry satisfies a request only when the *cached* budget
dominates the *requested* one componentwise (``None`` = unlimited
dominates everything; otherwise cached >= requested).  A verdict
computed under ``max_states=10_000`` never answers a
``max_states=1_000_000`` request: the larger budget could explore
states the cached run never saw.

Entries persist as JSONL (append-only, replayed at startup), so a
restarted server keeps answering from cache.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from ..engine.budget import Budget
from ..engine.codec import canonical_bytes, fingerprint
from ..engine.reduction import _symmetry_permutations
from ..obs.metrics import NULL_METRICS, MetricsRegistry
from .wire import JobSpec


def canonical_root(system, root):
    """The orbit-minimal representative of ``root`` under the full group.

    Unlike the exploration canonicalizer (stabilizer of the root — it
    must keep ``canon(root) == root``), cache keying wants the whole
    declared group: permuting the *inputs* of symmetric processes yields
    a different root whose analysis is nonetheless identical, and the
    orbit minimum is the same for every member.
    """
    permuters, _, _ = _symmetry_permutations(system)
    best, best_key = root, tuple(canonical_bytes(part) for part in root)
    for permuter in permuters:
        image = permuter.apply(root)
        key = tuple(canonical_bytes(part) for part in image)
        if key < best_key:
            best, best_key = image, key
    return best


def job_key(spec: JobSpec, system=None) -> bytes:
    """The cache/checkpoint key of a job: candidate shape + canonical root."""
    if system is None:
        system = spec.build()
    root = system.initialization(spec.root_proposals(system)).final_state
    return fingerprint(
        (
            spec.candidate,
            spec.n,
            spec.resilience,
            spec.reduction,
            canonical_root(system, root),
        )
    )


def budget_dominates(cached: Budget, requested: Budget) -> bool:
    """True iff a verdict computed under ``cached`` answers ``requested``."""
    for name in ("max_states", "max_transitions", "deadline_seconds"):
        have = getattr(cached, name)
        want = getattr(requested, name)
        if have is None:
            continue
        if want is None or have < want:
            return False
    return True


@dataclass(frozen=True)
class CacheEntry:
    """One cached verdict and the budget that produced it."""

    key: bytes
    budget: Budget
    verdict: dict
    job_id: str
    stored_at: float

    def to_json(self) -> dict:
        return {
            "key": self.key.hex(),
            "budget": self.budget.to_json(),
            "verdict": self.verdict,
            "job_id": self.job_id,
            "stored_at": self.stored_at,
        }

    @classmethod
    def from_json(cls, document: dict) -> "CacheEntry":
        return cls(
            key=bytes.fromhex(document["key"]),
            budget=Budget.from_json(document["budget"]),
            verdict=document["verdict"],
            job_id=document["job_id"],
            stored_at=float(document["stored_at"]),
        )


class VerdictCache:
    """LRU verdict cache with budget-dominance lookup and JSONL persistence.

    Per key the cache holds the *frontier* of incomparable entries: a
    new entry evicts every stored entry whose budget it dominates, and
    is dropped if a stored entry already dominates it.  Lookup returns
    any entry dominating the requested budget.  ``capacity`` bounds the
    number of keys (LRU eviction, surfaced via ``serve.cache.evictions``).
    """

    def __init__(
        self,
        capacity: int = 1024,
        *,
        path: str | Path | None = None,
        metrics: MetricsRegistry = NULL_METRICS,
        clock=time.time,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.path = None if path is None else Path(path)
        self.metrics = metrics
        self._clock = clock
        self._entries: OrderedDict[bytes, list[CacheEntry]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if self.path is not None and self.path.exists():
            self._load()

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._entries.values())

    # -- lookup / store -------------------------------------------------------

    def get(self, key: bytes, budget: Budget) -> CacheEntry | None:
        """An entry whose budget dominates ``budget``, or ``None``."""
        entries = self._entries.get(key)
        hit = None
        if entries is not None:
            self._entries.move_to_end(key)
            for entry in entries:
                if budget_dominates(entry.budget, budget):
                    hit = entry
                    break
        if hit is None:
            self.misses += 1
            self.metrics.counter("serve.cache.misses").inc()
        else:
            self.hits += 1
            self.metrics.counter("serve.cache.hits").inc()
        return hit

    def put(self, key: bytes, budget: Budget, verdict: dict, job_id: str) -> CacheEntry:
        """Store a verdict; maintains the per-key dominance frontier."""
        entry = CacheEntry(
            key=key,
            budget=budget,
            verdict=verdict,
            job_id=job_id,
            stored_at=self._clock(),
        )
        entries = self._entries.get(key)
        if entries is None:
            entries = self._entries[key] = []
        else:
            self._entries.move_to_end(key)
            for existing in entries:
                if budget_dominates(existing.budget, budget):
                    return existing  # already answered at least as strongly
            entries[:] = [
                existing
                for existing in entries
                if not budget_dominates(budget, existing.budget)
            ]
        entries.append(entry)
        self.metrics.gauge("serve.cache.entries").set(len(self))
        self._persist(entry)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            self.metrics.counter("serve.cache.evictions").inc()
        return entry

    # -- persistence ----------------------------------------------------------

    def _persist(self, entry: CacheEntry) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(entry.to_json(), sort_keys=True) + "\n")

    def _load(self) -> None:
        assert self.path is not None
        with open(self.path, "r", encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = CacheEntry.from_json(json.loads(line))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    continue  # a torn final line must not poison startup
                self._entries.setdefault(entry.key, []).append(entry)
        self.metrics.gauge("serve.cache.entries").set(len(self))

    def stats(self) -> dict:
        return {
            "entries": len(self),
            "keys": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
