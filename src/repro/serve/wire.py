"""Wire schemas: job specs, documents, and error envelopes.

Everything that crosses the HTTP boundary is defined here, so the rest
of the serving layer works with validated dataclasses instead of raw
dicts.  The module is deliberately import-light (no asyncio, no engine)
— the CLI imports it at parser-build time for the candidate registry and
the package version.

A job request is one JSON object::

    {
      "candidate": "tob",          // required: see CANDIDATES
      "n": 3,                      // processes (default 3)
      "f": 1,                      // service resilience (default 1)
      "budget": {"max_states": 200000, "deadline_seconds": 60},
      "workers": 1,                // engine workers (server-clamped)
      "reduction": "none",         // none | symmetry | por | full
      "store": "sqlite",           // memory | sqlite (backend name only)
      "rss_limit_mb": 1024,        // RSS ceiling hint (server-clamped)
      "proposals": {"0": 0, "1": 1},  // optional: cache-key root inputs
      "tenant": "alice"            // fair-queueing identity
    }

``store`` names a :mod:`repro.engine.store` *backend*, never a path —
clients do not get to choose where the server writes; disk-backed
stores live under the server's own data directory.  ``rss_limit_mb``
is clamped to the server's ``max_rss_limit_mb`` the same way
``workers`` is clamped to ``max_engine_workers``.

``tenant`` may instead arrive as an ``X-Repro-Tenant`` header; the body
wins when both are present.  ``proposals`` only influences the cache
key's root state (the refutation pipeline itself explores every
initialization); omitted, the balanced 0/1 assignment is used — the
probe/bench convention.

The job document (``GET /jobs/{id}``) additionally carries ``run_id``:
the run-ledger identity minted when the fleet dispatched the job
(``null`` for cache hits and ledger-less servers).  Feed it to ``repro
runs show <run_id>`` — pointed at the server's ``<data_dir>/runs`` —
to reconstruct the engine run behind the job, including after a crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..engine.budget import DEFAULT_BUDGET, Budget

#: The candidates a job may name, with the blurbs ``repro list`` prints.
#: Populated by :func:`register_candidate`; kept as a plain name->blurb
#: dict because the CLI and server treat it as the authoritative menu.
CANDIDATES: dict = {}

#: name -> builder(n, resilience) -> DistributedSystem.
_BUILDERS: dict = {}


def register_candidate(name: str, blurb: str, builder) -> None:
    """Register a candidate system in the serving/CLI registry.

    ``builder(n, resilience)`` must return a
    :class:`~repro.system.DistributedSystem`; it should import its
    protocol lazily so this module stays import-light.  Registering an
    existing name replaces it (last registration wins), so downstream
    code can shadow a built-in with a variant.
    """
    if not name or not isinstance(name, str):
        raise WireError(f"candidate name must be a nonempty string, got {name!r}")
    CANDIDATES[name] = blurb
    _BUILDERS[name] = builder


def _delegation(n: int, resilience: int):
    from ..protocols import delegation_consensus_system

    return delegation_consensus_system(n, resilience)


def _tob(n: int, resilience: int):
    from ..protocols import tob_delegation_system

    return tob_delegation_system(n, resilience)


def _last_writer(n: int, resilience: int):
    from ..protocols import last_writer_register_system

    return last_writer_register_system()


def _arbiter(n: int, resilience: int):
    from ..protocols.message_passing import arbiter_consensus_system

    return arbiter_consensus_system(max(n, 3), resilience)


def _exchange(n: int, resilience: int):
    from ..protocols.message_passing import exchange_consensus_system

    return exchange_consensus_system(resilience)


def _lossy_budget():
    from ..sim.faults import FaultBudget

    return FaultBudget(drop=1)


def _arbiter_lossy(n: int, resilience: int):
    from ..protocols.message_passing import arbiter_consensus_system

    return arbiter_consensus_system(max(n, 3), resilience, faults=_lossy_budget())


def _exchange_lossy(n: int, resilience: int):
    from ..protocols.message_passing import exchange_consensus_system

    return exchange_consensus_system(resilience, faults=_lossy_budget())

REDUCTIONS = ("none", "symmetry", "por", "full")

#: Backend names a job's ``store`` field may carry.  Bare names only —
#: a path in the request would let clients choose server filesystem
#: locations, so URIs are rejected at validation time.
STORES = ("memory", "sqlite")

#: Submitted request bodies larger than this are refused with 413.
MAX_BODY_BYTES = 1 << 20

DEFAULT_TENANT = "anonymous"


class WireError(ValueError):
    """A request document failed validation; ``detail`` is client-safe."""

    def __init__(self, detail: str, status: int = 400) -> None:
        super().__init__(detail)
        self.detail = detail
        self.status = status


def package_version() -> str:
    """The installed package version, falling back to ``__version__``.

    Reads importlib metadata first so an installed wheel reports its
    true version even if the source tree drifts; source-tree runs (the
    common test path) fall back to :data:`repro.__version__`.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except Exception:  # pragma: no cover - metadata backend quirks
        pass
    from .. import __version__

    return __version__


register_candidate(
    "delegation",
    "n processes over one f-resilient consensus object (Thm 2)",
    _delegation,
)
register_candidate(
    "tob",
    "n processes over one f-resilient totally ordered broadcast (Thm 9)",
    _tob,
)
register_candidate(
    "last-writer",
    "2 processes, registers only, decide-the-last-write (Thm 2, register case)",
    _last_writer,
)
register_candidate(
    "arbiter",
    "n-1 proposers and an arbiter over an f-resilient network (2002 TR setting)",
    _arbiter,
)
register_candidate(
    "exchange",
    "2 processes swap values over an f-resilient network, decide min",
    _exchange,
)
register_candidate(
    "arbiter-lossy",
    "the arbiter candidate over a FaultyNetwork with a drop=1 budget",
    _arbiter_lossy,
)
register_candidate(
    "exchange-lossy",
    "the exchange candidate over a FaultyNetwork with a drop=1 budget",
    _exchange_lossy,
)


def build_system(name: str, n: int, resilience: int):
    """Instantiate the named candidate system (the CLI's registry too)."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise WireError(
            f"unknown candidate {name!r}; try: {', '.join(sorted(CANDIDATES))}"
        )
    return builder(n, resilience)


@dataclass(frozen=True)
class JobSpec:
    """A validated analysis request: what to refute, under which limits."""

    candidate: str
    n: int = 3
    resilience: int = 1
    budget: Budget = DEFAULT_BUDGET
    workers: int = 1
    reduction: str = "none"
    store: str | None = None  # backend name from STORES; None = engine default
    rss_limit_mb: int | None = None  # server-clamped ceiling hint
    proposals: tuple = ()  # sorted ((endpoint, value), ...) or () = balanced
    tenant: str = DEFAULT_TENANT

    def build(self):
        """The candidate :class:`~repro.system.DistributedSystem`."""
        return build_system(self.candidate, self.n, self.resilience)

    def root_proposals(self, system) -> dict:
        """The initialization assignment keying this job's cache root."""
        if self.proposals:
            return dict(self.proposals)
        return {
            endpoint: index % 2
            for index, endpoint in enumerate(system.process_ids)
        }

    @property
    def cost(self) -> int:
        """Deficit-round-robin cost, in kilostates of budgeted work."""
        states = self.budget.max_states
        if states is None:
            states = 1_000_000
        return max(1, -(-states // 1000))

    def to_json(self) -> dict:
        return {
            "candidate": self.candidate,
            "n": self.n,
            "f": self.resilience,
            "budget": self.budget.to_json(),
            "workers": self.workers,
            "reduction": self.reduction,
            "store": self.store,
            "rss_limit_mb": self.rss_limit_mb,
            "proposals": (
                {str(endpoint): value for endpoint, value in self.proposals}
                if self.proposals
                else None
            ),
            "tenant": self.tenant,
        }

    @classmethod
    def from_json(cls, document: object, *, default_tenant: str | None = None) -> "JobSpec":
        """Validate a request body into a spec; raises :class:`WireError`."""
        if not isinstance(document, Mapping):
            raise WireError("request body must be a JSON object")
        unknown = set(document) - {
            "candidate",
            "n",
            "f",
            "resilience",
            "budget",
            "workers",
            "reduction",
            "store",
            "rss_limit_mb",
            "proposals",
            "tenant",
        }
        if unknown:
            raise WireError(f"unknown field(s): {', '.join(sorted(unknown))}")
        candidate = document.get("candidate")
        if candidate not in CANDIDATES:
            raise WireError(
                f"candidate must be one of {', '.join(sorted(CANDIDATES))}; "
                f"got {candidate!r}"
            )
        if "f" in document and "resilience" in document:
            raise WireError("pass f or resilience, not both")
        n = _int_field(document, "n", default=3, minimum=1)
        resilience = _int_field(
            document,
            "f" if "f" in document else "resilience",
            default=1,
            minimum=0,
        )
        workers = _int_field(document, "workers", default=1, minimum=1)
        reduction = document.get("reduction", "none")
        if reduction not in REDUCTIONS:
            raise WireError(
                f"reduction must be one of {', '.join(REDUCTIONS)}; "
                f"got {reduction!r}"
            )
        store = document.get("store")
        if store is not None and store not in STORES:
            raise WireError(
                f"store must be one of {', '.join(STORES)} (a backend name, "
                f"not a path); got {store!r}"
            )
        rss_limit_mb = (
            None
            if document.get("rss_limit_mb") is None
            else _int_field(document, "rss_limit_mb", default=1, minimum=1)
        )
        try:
            budget = (
                DEFAULT_BUDGET
                if document.get("budget") is None
                else Budget.from_json(document["budget"])
            )
        except (TypeError, ValueError) as error:
            raise WireError(f"bad budget: {error}") from None
        proposals: tuple = ()
        raw = document.get("proposals")
        if raw is not None:
            if not isinstance(raw, Mapping):
                raise WireError("proposals must be a JSON object")
            try:
                proposals = tuple(
                    sorted((int(endpoint), value) for endpoint, value in raw.items())
                )
            except (TypeError, ValueError):
                raise WireError("proposal endpoints must be integers") from None
        tenant = document.get("tenant", default_tenant) or DEFAULT_TENANT
        if not isinstance(tenant, str) or len(tenant) > 128:
            raise WireError("tenant must be a string of at most 128 characters")
        return cls(
            candidate=candidate,
            n=n,
            resilience=resilience,
            budget=budget,
            workers=workers,
            reduction=reduction,
            store=store,
            rss_limit_mb=rss_limit_mb,
            proposals=proposals,
            tenant=tenant,
        )


def _int_field(document: Mapping, name: str, *, default: int, minimum: int) -> int:
    value = document.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise WireError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise WireError(f"{name} must be >= {minimum}, got {value}")
    return value


def error_document(status: int, error: str, detail: str, **extra) -> dict:
    """The uniform JSON error envelope (always carries the version)."""
    document = {
        "error": error,
        "detail": detail,
        "status": status,
        "version": package_version(),
    }
    document.update(extra)
    return document
