"""Shared machinery for canonical services.

Every canonical service in the paper — the atomic object of Fig. 1, the
failure-oblivious service of Fig. 4, and the general service of Fig. 8 —
has the same skeleton:

* per-endpoint FIFO *invocation buffers* and *response buffers*
  (``inv_buffer(i)``, ``resp_buffer(i)``);
* a ``val`` component holding the service-type value;
* a ``failed`` set recording which endpoints have received ``fail_i``;
* input actions ``a_{i,k}`` (enqueue an invocation) and ``fail_i``;
* output actions ``b_{i,k}`` (dequeue the head response);
* per-endpoint ``i``-perform and ``i``-output tasks, each containing a
  *dummy* action enabled once endpoint ``i`` has failed or more than
  ``f`` endpoints have failed — the device by which the basic I/O
  automaton fairness definition expresses ``f``-resilience
  (Section 2.1.3).

This module provides the common state value, the buffer mechanics, and
the signature/task plumbing; subclasses implement what a ``perform`` (and
possibly ``compute``) step does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Sequence

from ..ioa.actions import (
    Action,
    dummy_output,
    dummy_perform,
)
from ..ioa.automaton import Automaton, State, Task, Transition
from ..obs import sinks as _obs
from ..obs.events import FAILURE_INJECTED, SERVICE_INVOCATION
from ..types.service_type import Endpoint, ResponseMap


@dataclass(frozen=True)
class ServiceState:
    """State of a canonical service.

    ``val`` is the service-type value; ``inv_buffers`` and
    ``resp_buffers`` hold one FIFO tuple per endpoint (indexed by the
    service's endpoint ordering); ``failed`` is the set of endpoints that
    have received ``fail``.

    As with :class:`~repro.system.process.ProcessState`, the hash is
    computed once into the ``_hash`` slot (not a dataclass field), equals
    the generated ``hash((val, inv_buffers, resp_buffers, failed))``, and
    never crosses a process: pickling and copying rebuild the state from
    its fields.
    """

    __slots__ = ("val", "inv_buffers", "resp_buffers", "failed", "_hash")

    val: Hashable
    inv_buffers: tuple[tuple, ...]
    resp_buffers: tuple[tuple, ...]
    failed: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_hash",
            hash((self.val, self.inv_buffers, self.resp_buffers, self.failed)),
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return type(self), (
            self.val,
            self.inv_buffers,
            self.resp_buffers,
            self.failed,
        )

    def describe(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"val={self.val!r} inv={self.inv_buffers!r} "
            f"resp={self.resp_buffers!r} failed={sorted(self.failed)!r}"
        )


class CanonicalServiceBase(Automaton):
    """Common base of the three canonical service automata.

    Parameters mirror the paper: ``service_id`` is the unique index ``k``,
    ``endpoints`` the set ``J`` (given as a sequence to fix an ordering),
    and ``resilience`` the level ``f``.
    """

    def __init__(
        self,
        service_id: Hashable,
        endpoints: Sequence[Endpoint],
        resilience: int,
        name: str | None = None,
    ) -> None:
        if not endpoints:
            raise ValueError("endpoint set J must be nonempty")
        if len(set(endpoints)) != len(endpoints):
            raise ValueError("endpoints must be distinct")
        if resilience < 0:
            raise ValueError("resilience f must be nonnegative")
        self.service_id = service_id
        self.endpoints: tuple[Endpoint, ...] = tuple(endpoints)
        self.resilience = resilience
        self.name = name if name is not None else f"service[{service_id}]"
        self._endpoint_index = {
            endpoint: position for position, endpoint in enumerate(self.endpoints)
        }

    # -- reduction declarations (see repro.engine.reduction) -------------------

    #: Opt-in to endpoint symmetry reduction: declares that permuting the
    #: service's endpoints (via :meth:`permute_state`) maps executions to
    #: executions.  Refused by default — a subclass whose semantics are
    #: endpoint-sensitive must not set this.
    supports_endpoint_symmetry = False

    #: Declares that every ``perform`` responds only to the invoking
    #: endpoint (atomic objects).  Licenses the endpoint-local ample sets
    #: of the partial-order reduction; must stay ``False`` for services
    #: whose performs or computes respond at other endpoints (e.g.
    #: totally ordered broadcast).
    por_responses_to_invoker_only = False

    #: Declares the FIFO-pipeline shape: performs enqueue into ``val``
    #: without responding, and a single global task delivers from the
    #: queue head.  Licenses the pipeline ``compute`` ample singleton.
    por_queue_pipeline = False

    def symmetry_relabel_val(self, val: Hashable, perm: dict) -> Hashable:
        """Relabel endpoint identities inside ``val`` under ``perm``.

        Identity by default — correct whenever ``val`` never mentions
        endpoints.  Subclasses whose value embeds endpoint identities
        (e.g. the TOB message queue of ``(message, sender)`` pairs) must
        override.
        """
        return val

    def symmetry_relabel_invocation(self, invocation: Any, perm: dict) -> Any:
        """Relabel endpoint identities inside a buffered invocation."""
        return invocation

    def symmetry_relabel_response(self, response: Any, perm: dict) -> Any:
        """Relabel endpoint identities inside a buffered response."""
        return response

    def permute_state(self, state: ServiceState, perm: dict) -> ServiceState:
        """The action of endpoint permutation ``perm`` on a service state.

        Buffer contents move with their endpoint (the permuted state's
        buffers at ``perm[e]``'s position are the original buffers of
        ``e``), with entries relabeled via the ``symmetry_relabel_*``
        hooks; ``val`` is relabeled; the failed set is mapped through
        ``perm``.  Only meaningful when ``supports_endpoint_symmetry``
        and ``perm`` preserves this service's endpoint set.
        """
        inv = list(state.inv_buffers)
        resp = list(state.resp_buffers)
        for endpoint in self.endpoints:
            source = self.endpoint_position(endpoint)
            target = self.endpoint_position(perm.get(endpoint, endpoint))
            inv[target] = tuple(
                self.symmetry_relabel_invocation(entry, perm)
                for entry in state.inv_buffers[source]
            )
            resp[target] = tuple(
                self.symmetry_relabel_response(entry, perm)
                for entry in state.resp_buffers[source]
            )
        return ServiceState(
            val=self.symmetry_relabel_val(state.val, perm),
            inv_buffers=tuple(inv),
            resp_buffers=tuple(resp),
            failed=frozenset(perm.get(e, e) for e in state.failed),
        )

    # -- subclass contract ----------------------------------------------------

    def initial_values(self) -> Iterable[Hashable]:
        """The initial ``val`` values (``V0`` of the service type)."""
        raise NotImplementedError

    def accepts_invocation(self, invocation: Any) -> bool:
        """Membership in the type's invocation set."""
        raise NotImplementedError

    def accepts_response(self, response: Any) -> bool:
        """Membership in the type's response set."""
        raise NotImplementedError

    def perform_results(
        self, state: ServiceState, endpoint: Endpoint, invocation: Any
    ) -> Sequence[tuple[ResponseMap, Hashable]]:
        """Outcomes of performing ``invocation`` at ``endpoint``."""
        raise NotImplementedError

    def global_task_names(self) -> tuple[Hashable, ...]:
        """Names of global tasks (empty for atomic objects)."""
        return ()

    def compute_results(
        self, state: ServiceState, global_task: Hashable
    ) -> Sequence[tuple[ResponseMap, Hashable]]:
        """Outcomes of a spontaneous compute step for ``global_task``."""
        raise NotImplementedError

    # -- endpoints --------------------------------------------------------------

    def endpoint_position(self, endpoint: Endpoint) -> int:
        """Position of ``endpoint`` in the buffer tuples."""
        return self._endpoint_index[endpoint]

    def is_endpoint(self, endpoint: Endpoint) -> bool:
        """True iff ``endpoint`` belongs to ``J``."""
        return endpoint in self._endpoint_index

    @property
    def is_wait_free(self) -> bool:
        """Wait-free (reliable) means ``(|J| - 1)``-resilient (Section 2.1.3)."""
        return self.resilience >= len(self.endpoints) - 1

    # -- resilience conditions (Fig. 1 / Fig. 4 preconditions) -----------------

    def dummy_enabled(self, state: ServiceState, endpoint: Endpoint) -> bool:
        """Precondition of ``dummy_perform``/``dummy_output`` for ``endpoint``.

        Enabled when either ``endpoint`` has failed or strictly more than
        ``f`` endpoints of this service have failed (Fig. 1).
        """
        return endpoint in state.failed or len(state.failed) > self.resilience

    def dummy_compute_enabled(self, state: ServiceState) -> bool:
        """Precondition of ``dummy_compute`` (Fig. 4).

        Global tasks may fall silent once the total number of failures
        exceeds ``f``, or all of the endpoints have failed.
        """
        return len(state.failed) > self.resilience or all(
            endpoint in state.failed for endpoint in self.endpoints
        )

    # -- state helpers -----------------------------------------------------------

    def make_start_state(self, value: Hashable) -> ServiceState:
        """A start state with empty buffers, no failures, and ``val=value``."""
        empty = tuple(() for _ in self.endpoints)
        return ServiceState(
            val=value, inv_buffers=empty, resp_buffers=empty, failed=frozenset()
        )

    def start_states(self) -> Iterable[State]:
        return (self.make_start_state(value) for value in self.initial_values())

    def inv_buffer(self, state: ServiceState, endpoint: Endpoint) -> tuple:
        """The invocation buffer of ``endpoint``."""
        return state.inv_buffers[self.endpoint_position(endpoint)]

    def resp_buffer(self, state: ServiceState, endpoint: Endpoint) -> tuple:
        """The response buffer of ``endpoint``."""
        return state.resp_buffers[self.endpoint_position(endpoint)]

    def buffer(self, state: ServiceState, endpoint: Endpoint) -> tuple[tuple, tuple]:
        """The pair ``buffer(i) = (inv_buffer(i), resp_buffer(i))``."""
        return (
            self.inv_buffer(state, endpoint),
            self.resp_buffer(state, endpoint),
        )

    def _with_buffers(
        self,
        state: ServiceState,
        val: Hashable,
        inv_buffers: tuple[tuple, ...],
        resp_buffers: tuple[tuple, ...],
    ) -> ServiceState:
        return ServiceState(
            val=val,
            inv_buffers=inv_buffers,
            resp_buffers=resp_buffers,
            failed=state.failed,
        )

    def _append_responses(
        self, resp_buffers: tuple[tuple, ...], response_map: ResponseMap
    ) -> tuple[tuple, ...]:
        updated = list(resp_buffers)
        for endpoint, responses in response_map.items():
            if not responses:
                continue
            position = self.endpoint_position(endpoint)
            updated[position] = updated[position] + tuple(responses)
        return tuple(updated)

    # -- signature ----------------------------------------------------------------

    def is_input(self, action: Action) -> bool:
        if action.kind == "invoke":
            service, endpoint, invocation = action.args
            return (
                service == self.service_id
                and self.is_endpoint(endpoint)
                and self.accepts_invocation(invocation)
            )
        if action.kind == "fail":
            return self.is_endpoint(action.args[0])
        return False

    def is_output(self, action: Action) -> bool:
        if action.kind != "respond":
            return False
        service, endpoint, response = action.args
        return (
            service == self.service_id
            and self.is_endpoint(endpoint)
            and self.accepts_response(response)
        )

    def is_internal(self, action: Action) -> bool:
        if action.kind in ("perform", "dummy_perform", "dummy_output"):
            service, endpoint = action.args
            return service == self.service_id and self.is_endpoint(endpoint)
        if action.kind in ("compute", "dummy_compute"):
            service, task_name = action.args
            return service == self.service_id and task_name in self.global_task_names()
        return False

    # -- tasks ---------------------------------------------------------------------

    def tasks(self) -> Sequence[Task]:
        per_endpoint = [
            Task(self.name, ("perform", endpoint)) for endpoint in self.endpoints
        ] + [Task(self.name, ("output", endpoint)) for endpoint in self.endpoints]
        global_tasks = [
            Task(self.name, ("compute", task_name))
            for task_name in self.global_task_names()
        ]
        return tuple(per_endpoint + global_tasks)

    def enabled(self, state: State, task: Task) -> Sequence[Transition]:
        assert isinstance(state, ServiceState)
        kind = task.name[0]
        if kind == "perform":
            return self._enabled_perform(state, task.name[1])
        if kind == "output":
            return self._enabled_output(state, task.name[1])
        if kind == "compute":
            return self._enabled_compute(state, task.name[1])
        raise KeyError(f"unknown task {task}")

    def _enabled_perform(
        self, state: ServiceState, endpoint: Endpoint
    ) -> list[Transition]:
        transitions: list[Transition] = []
        pending = self.inv_buffer(state, endpoint)
        if pending:
            invocation = pending[0]
            position = self.endpoint_position(endpoint)
            popped = list(state.inv_buffers)
            popped[position] = popped[position][1:]
            popped_buffers = tuple(popped)
            for response_map, new_value in self.perform_results(
                state, endpoint, invocation
            ):
                resp_buffers = self._append_responses(state.resp_buffers, response_map)
                post = self._with_buffers(state, new_value, popped_buffers, resp_buffers)
                transitions.append(
                    Transition(
                        Action("perform", (self.service_id, endpoint)), post
                    )
                )
        if self.dummy_enabled(state, endpoint):
            transitions.append(
                Transition(Action("dummy_perform", (self.service_id, endpoint)), state)
            )
        return transitions

    def _enabled_output(
        self, state: ServiceState, endpoint: Endpoint
    ) -> list[Transition]:
        transitions: list[Transition] = []
        pending = self.resp_buffer(state, endpoint)
        if pending:
            response = pending[0]
            position = self.endpoint_position(endpoint)
            popped = list(state.resp_buffers)
            popped[position] = popped[position][1:]
            post = self._with_buffers(
                state, state.val, state.inv_buffers, tuple(popped)
            )
            transitions.append(
                Transition(
                    Action("respond", (self.service_id, endpoint, response)), post
                )
            )
        if self.dummy_enabled(state, endpoint):
            transitions.append(
                Transition(Action("dummy_output", (self.service_id, endpoint)), state)
            )
        return transitions

    def _enabled_compute(
        self, state: ServiceState, task_name: Hashable
    ) -> list[Transition]:
        transitions: list[Transition] = []
        for response_map, new_value in self.compute_results(state, task_name):
            resp_buffers = self._append_responses(state.resp_buffers, response_map)
            post = self._with_buffers(
                state, new_value, state.inv_buffers, resp_buffers
            )
            transitions.append(
                Transition(Action("compute", (self.service_id, task_name)), post)
            )
        if self.dummy_compute_enabled(state):
            transitions.append(
                Transition(
                    Action("dummy_compute", (self.service_id, task_name)), state
                )
            )
        return transitions

    # -- inputs ----------------------------------------------------------------------

    def apply_input(self, state: State, action: Action) -> State:
        assert isinstance(state, ServiceState)
        if action.kind == "invoke":
            _, endpoint, invocation = action.args
            # Services receive inputs from composition plumbing that has no
            # tracer parameter to thread, so this layer reports through the
            # process-wide tracer (repro.obs.sinks.use_tracer) instead.
            if _obs.CURRENT.enabled:
                _obs.CURRENT.emit(
                    SERVICE_INVOCATION,
                    process=endpoint,
                    service=self.service_id,
                    invocation=invocation,
                )
            position = self.endpoint_position(endpoint)
            inv_buffers = list(state.inv_buffers)
            inv_buffers[position] = inv_buffers[position] + (invocation,)
            return ServiceState(
                val=state.val,
                inv_buffers=tuple(inv_buffers),
                resp_buffers=state.resp_buffers,
                failed=state.failed,
            )
        if action.kind == "fail":
            endpoint = action.args[0]
            if _obs.CURRENT.enabled:
                _obs.CURRENT.emit(
                    FAILURE_INJECTED,
                    process=endpoint,
                    service=self.service_id,
                    endpoint=endpoint,
                )
            return ServiceState(
                val=state.val,
                inv_buffers=state.inv_buffers,
                resp_buffers=state.resp_buffers,
                failed=state.failed | {endpoint},
            )
        raise ValueError(f"{self.name}: {action} is not an input of this service")
