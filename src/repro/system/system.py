"""The complete system ``C`` (Sections 2.2.2-2.2.3).

A distributed system for index sets ``I`` (processes), ``R`` (registers),
``K`` (resilient services) and a problem type ``T`` is the parallel
composition of the process automata, canonical resilient services, and
canonical reliable registers, with the inter-component communication
actions hidden.  Processes interact **only** via services and registers;
services never communicate directly.

:class:`DistributedSystem` packages the composition together with the
bookkeeping the analysis layer needs:

* participant computation (Section 2.2.3): every non-``fail`` action has
  at most two participants, and two distinct services (or two distinct
  processes) never share an action;
* projections of a composite state onto a process state, a service's
  ``val``, or a service's per-endpoint ``buffer(i)`` — the ingredients of
  the ``j``-similarity and ``k``-similarity definitions of Section 3.5;
* convenience accessors for decisions (the recorded decision component of
  each process) and for the failed set;
* Lemma 1's task-applicability predicate.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

from ..ioa.actions import Action, fail, init, is_fail
from ..ioa.automaton import State, Task, Transition
from ..ioa.composition import Composition
from ..ioa.execution import Execution
from ..services.base import CanonicalServiceBase, ServiceState
from ..services.register import CanonicalRegister
from .process import Process, ProcessState


class DistributedSystem(Composition):
    """The composition ``C`` of processes, services, and registers.

    ``services`` holds the resilient services (index set ``K``) and
    ``registers`` the canonical reliable registers (index set ``R``);
    both are canonical service automata, distinguished because the
    similarity definitions and Lemma 8's case analysis treat them
    separately.
    """

    def __init__(
        self,
        processes: Sequence[Process],
        services: Sequence[CanonicalServiceBase] = (),
        registers: Sequence[CanonicalRegister] = (),
        name: str = "C",
    ) -> None:
        self.processes: tuple[Process, ...] = tuple(processes)
        self.services: tuple[CanonicalServiceBase, ...] = tuple(services)
        self.registers: tuple[CanonicalRegister, ...] = tuple(registers)
        super().__init__(
            tuple(processes) + tuple(services) + tuple(registers), name=name
        )
        self.process_ids: tuple[Hashable, ...] = tuple(
            process.endpoint for process in self.processes
        )
        self.service_ids: tuple[Hashable, ...] = tuple(
            service.service_id for service in self.services
        )
        self.register_ids: tuple[Hashable, ...] = tuple(
            register.service_id for register in self.registers
        )
        self._process_by_endpoint = {
            process.endpoint: process for process in self.processes
        }
        self._service_by_id: dict[Hashable, CanonicalServiceBase] = {}
        for component in self.services + self.registers:
            if component.service_id in self._service_by_id:
                raise ValueError(
                    f"duplicate service/register index {component.service_id!r}"
                )
            self._service_by_id[component.service_id] = component
        self._validate_connections()

    def _validate_connections(self) -> None:
        endpoints = set(self.process_ids)
        for component in self.services + self.registers:
            for endpoint in component.endpoints:
                if endpoint not in endpoints:
                    raise ValueError(
                        f"{component.name}: endpoint {endpoint!r} is not a "
                        "process of this system"
                    )
        for process in self.processes:
            for connection in process.connections:
                component = self._service_by_id.get(connection)
                if component is None:
                    raise ValueError(
                        f"{process.name}: connected to unknown service "
                        f"{connection!r}"
                    )
                if not component.is_endpoint(process.endpoint):
                    raise ValueError(
                        f"{process.name}: not an endpoint of {component.name}"
                    )

    # -- component lookup ---------------------------------------------------------

    def process(self, endpoint: Hashable) -> Process:
        """The process automaton at ``endpoint``."""
        return self._process_by_endpoint[endpoint]

    def service(self, service_id: Hashable) -> CanonicalServiceBase:
        """The service or register with index ``service_id``."""
        return self._service_by_id[service_id]

    # -- state projections (ingredients of Section 3.5 similarity) -----------------

    def process_state(self, state: State, endpoint: Hashable) -> ProcessState:
        """The state of ``P_i`` within composite state ``state``."""
        return self.component_state(state, self.process(endpoint).name)

    def service_state(self, state: State, service_id: Hashable) -> ServiceState:
        """The full state of service/register ``service_id``."""
        return self.component_state(state, self.service(service_id).name)

    def service_val(self, state: State, service_id: Hashable):
        """The ``val`` component of a service (Section 3.5)."""
        return self.service_state(state, service_id).val

    def service_buffer(
        self, state: State, service_id: Hashable, endpoint: Hashable
    ) -> tuple[tuple, tuple]:
        """``buffer(i)_c``: the invocation/response buffer pair (Section 3)."""
        service = self.service(service_id)
        return service.buffer(self.service_state(state, service_id), endpoint)

    # -- decisions and failures ------------------------------------------------------

    # The processes are the composition's first components, so zipping
    # ``process_ids`` with the state pairs each endpoint with its state.

    def decisions(self, state: State) -> dict[Hashable, Hashable]:
        """The recorded decision of every process that has decided."""
        return {
            endpoint: local.decision
            for endpoint, local in zip(self.process_ids, state)
            if local.decision is not None
        }

    def decision_values(self, state: State) -> frozenset:
        """The set of values decided so far in ``state``."""
        return frozenset(self.decisions(state).values())

    def failed_processes(self, state: State) -> frozenset:
        """The endpoints whose processes have received ``fail``."""
        return frozenset(
            endpoint
            for endpoint, local in zip(self.process_ids, state)
            if local.failed
        )

    # -- initializations (Section 3.2) --------------------------------------------------

    def initialization(self, assignments: Mapping[Hashable, Hashable]) -> Execution:
        """An initialization: exactly one ``init(v)_i`` input per process.

        ``assignments`` maps every endpoint in ``I`` to its initial value.
        Returns the finite execution consisting of those inputs applied in
        endpoint order from the canonical start state.
        """
        missing = set(self.process_ids) - set(assignments)
        if missing:
            raise ValueError(f"initialization missing endpoints {sorted(missing)!r}")
        execution = Execution(self.some_start_state())
        for endpoint in self.process_ids:
            action = init(endpoint, assignments[endpoint])
            post = self.apply_input(execution.final_state, action)
            execution = execution.extend(action, post, task=None)
        return execution

    def all_initializations(
        self, values: Sequence[Hashable] = (0, 1)
    ) -> Iterable[tuple[dict, Execution]]:
        """Every initialization over the given per-process value choices."""

        def assign(index: int, current: dict):
            if index == len(self.process_ids):
                yield dict(current), self.initialization(current)
                return
            endpoint = self.process_ids[index]
            for value in values:
                current[endpoint] = value
                yield from assign(index + 1, current)
            current.pop(endpoint, None)

        yield from assign(0, {})

    def fail_process(self, state: State, endpoint: Hashable) -> State:
        """Apply the ``fail_i`` input (delivered to ``P_i`` and all its services)."""
        return self.apply_input(state, fail(endpoint))

    # -- Lemma 1 ---------------------------------------------------------------------------

    def applicable(self, state: State, task: Task) -> bool:
        """Task applicability: some action of ``task`` enabled in ``state``.

        Lemma 1: in failure-free executions, an applicable task remains
        applicable until an action of that task occurs.  The test suite
        verifies this property by exploration.
        """
        return self.task_enabled(state, task)

    def process_tasks(self) -> list[Task]:
        """The (single) task of each process."""
        return [task for process in self.processes for task in process.tasks()]

    def service_tasks(self) -> list[Task]:
        """All tasks of services and registers."""
        return [
            task
            for component in self.services + self.registers
            for task in component.tasks()
        ]
