"""Network faults as explicit, explorable transitions.

The paper's adversary controls scheduling and crashes; a real network
adversary also loses, duplicates, reorders, and partitions messages
("Time is not a Healer" models exactly these message adversaries).  This
module makes each such fault a first-class transition of a service
automaton, so the whole analysis stack — exhaustive exploration,
valence, the hook search, reduction, the store-backed engine — composes
with a faulty network *unchanged*:

* :class:`FaultyNetwork` wraps the asynchronous reliable FIFO network
  of :mod:`repro.services.network` and adds one **fault task per fault
  instance** — drop/duplicate/skew per directed link, reorder per
  receiver slot, partition per configured cut, plus heal.  Each fault
  task has at most one enabled transition in any state, preserving the
  determinism assumption the analysis layer relies on
  (:class:`~repro.analysis.view.DeterministicSystemView` refuses tasks
  with several enabled transitions).
* Budgets are part of the service *state* (``val``), normalized so
  exhausted budgets vanish from the tuple: a :class:`FaultyNetwork`
  with a **zero budget is state-for-state identical** to the benign
  :class:`~repro.services.network.AsynchronousNetwork` — same start
  state, same tasks, same transitions — which is the conservativity
  regression the test suite asserts on Theorem 9's instances.

Fault semantics (all act on in-flight messages, i.e. entries of the
receiver's response buffer, which preserves the per-endpoint FIFO
buffer discipline of the canonical service skeleton):

* ``drop(s, r)``   — remove the oldest undelivered message from ``s``
  in ``r``'s buffer;
* ``dup(s, r)``    — duplicate that message in place (at-least-once
  delivery);
* ``reorder(r, slot)`` — swap adjacent in-flight messages at position
  ``slot`` of ``r``'s buffer **only when their senders differ**, so
  per-``(sender, receiver)`` FIFO order is never violated;
* ``skew(s, r)``   — bounded clock skew on the link's delivery timer:
  delay the oldest message from ``s`` as far as FIFO allows (just
  before the next message from ``s``), letting other links overtake it;
* ``partition(i)`` / ``heal`` — activate/deactivate a configured cut;
  while a cut is active, ``perform`` steps for messages crossing it
  lose the message (the medium is fail-prone, not store-and-forward).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from ..ioa.actions import Action
from ..ioa.automaton import State, Task, Transition
from ..services.base import ServiceState
from ..services.network import channel_id, deliver
from ..services.oblivious import CanonicalFailureObliviousService
from ..types.service_type import FailureObliviousServiceType, ServiceResult

#: Budget entry kinds, in the order they appear in task names and
#: ``val`` entries.  ``cut`` is activation state, not a budget.
DROP = "drop"
DUP = "dup"
REORDER = "reorder"
SKEW = "skew"
PART = "part"
CUT = "cut"


def _per_link(budget: int | Mapping, sender, receiver) -> int:
    """A per-link budget: a flat int applies to every directed link."""
    if isinstance(budget, Mapping):
        return int(budget.get((sender, receiver), 0))
    return int(budget)


def _per_receiver(budget: int | Mapping, receiver) -> int:
    """A per-receiver budget: a flat int applies to every receiver."""
    if isinstance(budget, Mapping):
        return int(budget.get(receiver, 0))
    return int(budget)


@dataclass(frozen=True)
class FaultBudget:
    """How much damage the network adversary may do, per fault kind.

    ``drop``, ``duplicate``, and ``skew`` bound faults per directed link
    ``(sender, receiver)``; ``reorder`` bounds cross-pair swaps per
    receiver.  Each may be a flat ``int`` (the same budget on every
    link/receiver) or a mapping from link/receiver to budget.
    ``partitions`` bounds how many times a cut may be *activated*;
    ``cuts`` lists the candidate cuts (sets of endpoints separated from
    the rest), defaulting to every singleton cut.  ``reorder_window``
    is how deep into a receiver's in-flight buffer reorder swaps may
    reach (slots ``0 .. reorder_window - 1``).

    The default is the zero budget: a :class:`FaultyNetwork` under it
    is indistinguishable from the benign network.
    """

    drop: int | Mapping = 0
    duplicate: int | Mapping = 0
    reorder: int | Mapping = 0
    skew: int | Mapping = 0
    partitions: int = 0
    cuts: tuple = ()
    reorder_window: int = 2

    def resolved_cuts(self, endpoints: Sequence) -> tuple[frozenset, ...]:
        """The candidate cuts, defaulting to one singleton per endpoint."""
        if self.cuts:
            return tuple(frozenset(cut) for cut in self.cuts)
        return tuple(frozenset({endpoint}) for endpoint in endpoints)

    def initial_val(self, endpoints: Sequence) -> tuple:
        """The normalized budget tuple that seeds the service ``val``.

        Exhausted (zero) budgets are omitted, so the all-zero budget
        yields ``()`` — bit-identical to the benign network's value.
        """
        entries = []
        for sender in endpoints:
            for receiver in endpoints:
                if sender == receiver:
                    continue
                for kind, budget in (
                    (DROP, self.drop),
                    (DUP, self.duplicate),
                    (SKEW, self.skew),
                ):
                    remaining = _per_link(budget, sender, receiver)
                    if remaining > 0:
                        entries.append((kind, sender, receiver, remaining))
        for receiver in endpoints:
            remaining = _per_receiver(self.reorder, receiver)
            if remaining > 0:
                entries.append((REORDER, receiver, remaining))
        if self.partitions > 0:
            entries.append((PART, self.partitions))
        return _normalize(entries)

    def is_zero(self, endpoints: Sequence) -> bool:
        """True iff no fault of any kind is ever possible."""
        return self.initial_val(endpoints) == ()

    def to_json(self) -> dict:
        """A JSON-serializable form (flat int budgets only)."""
        document = {}
        for field_name in ("drop", "duplicate", "reorder", "skew", "partitions"):
            value = getattr(self, field_name)
            if isinstance(value, Mapping):
                raise ValueError(
                    f"per-link {field_name} budgets are not JSON-serializable; "
                    "use flat int budgets in wire specs"
                )
            if value:
                document[field_name] = int(value)
        if self.reorder_window != 2:
            document["reorder_window"] = self.reorder_window
        return document

    @classmethod
    def from_json(cls, document: Mapping) -> "FaultBudget":
        """Inverse of :meth:`to_json`."""
        allowed = {"drop", "duplicate", "reorder", "skew", "partitions", "reorder_window"}
        unknown = set(document) - allowed
        if unknown:
            raise ValueError(f"unknown fault budget field(s): {sorted(unknown)}")
        return cls(**{key: int(value) for key, value in document.items()})


def _normalize(entries) -> tuple:
    """Canonical ``val`` form: zero budgets dropped, entries sorted."""
    return tuple(sorted((e for e in entries if e[0] == CUT or e[-1] > 0), key=repr))


def _remaining(val: tuple, prefix: tuple) -> int:
    """The remaining budget of the entry starting with ``prefix``."""
    for entry in val:
        if entry[: len(prefix)] == prefix:
            return entry[-1]
    return 0


def _spend(val: tuple, prefix: tuple) -> tuple:
    """Decrement the budget entry starting with ``prefix`` by one."""
    entries = []
    for entry in val:
        if entry[: len(prefix)] == prefix:
            entries.append(prefix + (entry[-1] - 1,))
        else:
            entries.append(entry)
    return _normalize(entries)


def _active_cut_index(val: tuple) -> int | None:
    """The index of the currently active cut, or ``None``."""
    for entry in val:
        if entry[0] == CUT:
            return entry[1]
    return None


def faulty_network_type(
    endpoints: Sequence,
    messages: Sequence,
    budget: FaultBudget,
    *,
    strict: bool = False,
) -> FailureObliviousServiceType:
    """The network service type with partition-aware delivery.

    Identical to :func:`repro.services.network.network_type` except that
    ``delta1`` consults the fault state carried in ``value``: a message
    crossing the active cut is lost (the same "vanish" outcome as an
    unknown target).  With no cut ever active — in particular under the
    zero budget — ``delta1`` behaves exactly like the benign type.
    ``strict`` rejects sends to unknown targets instead of letting them
    vanish (the :class:`~repro.services.network.Channel` convention).
    """
    endpoints = tuple(endpoints)
    messages = tuple(messages)
    cuts = budget.resolved_cuts(endpoints)

    def delta1(invocation, endpoint, value) -> Sequence[ServiceResult]:
        if not (isinstance(invocation, tuple) and invocation[0] == "send"):
            raise ValueError(f"network: unknown invocation {invocation!r}")
        _, target, message = invocation
        if target not in endpoints:
            if strict:
                raise ValueError(
                    f"network: send to unknown target {target!r} "
                    f"(endpoints are {endpoints!r})"
                )
            # Sends to unknown targets vanish (still a legal, total step).
            return (({}, value),)
        active = _active_cut_index(value)
        if active is not None:
            cut = cuts[active]
            if (endpoint in cut) != (target in cut):
                # The message crosses the active cut and is lost.
                return (({}, value),)
        return (({target: (deliver(endpoint, message),)}, value),)

    def delta2(global_task, value) -> Sequence[ServiceResult]:
        raise ValueError("network has no global tasks")

    def member(invocation) -> bool:
        if not (
            isinstance(invocation, tuple)
            and len(invocation) == 3
            and invocation[0] == "send"
        ):
            return False
        return invocation[1] in endpoints if strict else True

    return FailureObliviousServiceType(
        name="faulty-network",
        initial_values=(budget.initial_val(endpoints),),
        invocations=tuple(
            ("send", target, message) for target in endpoints for message in messages
        ),
        responses=tuple(
            deliver(sender, message) for sender in endpoints for message in messages
        ),
        global_tasks=(),
        delta1=delta1,
        delta2=delta2,
        contains_invocation=member,
    )


class FaultyNetwork(CanonicalFailureObliviousService):
    """An f-resilient FIFO network with a budgeted fault adversary.

    A drop-in replacement for
    :class:`~repro.services.network.AsynchronousNetwork`: same service
    interface, same per-endpoint buffers, same dummy/resilience
    machinery, plus one additional internal task per fault instance the
    :class:`FaultBudget` allows.  Fault state (remaining budgets, the
    active cut) lives in ``val`` as a normalized tuple, so exploration
    fingerprints and symmetry machinery need no special cases, and the
    zero-budget instance has ``val == ()`` and no fault tasks —
    literally the benign network's automaton.
    """

    def __init__(
        self,
        service_id: Hashable,
        endpoints: Sequence,
        messages: Sequence,
        resilience: int,
        budget: FaultBudget | None = None,
        name: str | None = None,
        *,
        strict: bool = False,
    ) -> None:
        endpoints = tuple(endpoints)
        self.budget = budget if budget is not None else FaultBudget()
        self.cuts = self.budget.resolved_cuts(endpoints)
        super().__init__(
            service_type=faulty_network_type(
                endpoints, messages, self.budget, strict=strict
            ),
            endpoints=endpoints,
            resilience=resilience,
            service_id=service_id,
            name=name if name is not None else f"net[{service_id}]",
        )
        self._fault_tasks = self._build_fault_tasks()
        self._tasks_cache = tuple(super().tasks()) + self._fault_tasks

    # -- fault task construction (static, one task per fault instance) ---------

    def _build_fault_tasks(self) -> tuple[Task, ...]:
        tasks: list[Task] = []
        budget = self.budget
        for sender in self.endpoints:
            for receiver in self.endpoints:
                if sender == receiver:
                    continue
                if _per_link(budget.drop, sender, receiver) > 0:
                    tasks.append(Task(self.name, ("fault", DROP, sender, receiver)))
                if _per_link(budget.duplicate, sender, receiver) > 0:
                    tasks.append(Task(self.name, ("fault", DUP, sender, receiver)))
                if _per_link(budget.skew, sender, receiver) > 0:
                    tasks.append(Task(self.name, ("fault", SKEW, sender, receiver)))
        for receiver in self.endpoints:
            if _per_receiver(budget.reorder, receiver) > 0:
                for slot in range(budget.reorder_window):
                    tasks.append(Task(self.name, ("fault", REORDER, receiver, slot)))
        if budget.partitions > 0:
            for index in range(len(self.cuts)):
                tasks.append(Task(self.name, ("fault", PART, index)))
            tasks.append(Task(self.name, ("fault", "heal")))
        return tuple(tasks)

    def tasks(self) -> Sequence[Task]:
        return self._tasks_cache

    def is_internal(self, action: Action) -> bool:
        if action.kind == "fault":
            return bool(action.args) and action.args[0] == self.service_id
        return super().is_internal(action)

    def enabled(self, state: State, task: Task) -> Sequence[Transition]:
        name = task.name
        if isinstance(name, tuple) and name and name[0] == "fault":
            return self._enabled_fault(state, name)
        return super().enabled(state, task)

    # -- fault transitions (each deterministic: at most one outcome) ----------

    def _enabled_fault(self, state: ServiceState, name: tuple) -> list[Transition]:
        kind = name[1]
        if kind == DROP:
            return self._fault_drop(state, name[2], name[3])
        if kind == DUP:
            return self._fault_duplicate(state, name[2], name[3])
        if kind == SKEW:
            return self._fault_skew(state, name[2], name[3])
        if kind == REORDER:
            return self._fault_reorder(state, name[2], name[3])
        if kind == PART:
            return self._fault_partition(state, name[2])
        if kind == "heal":
            return self._fault_heal(state)
        raise KeyError(f"unknown fault task {name}")

    def _first_from(self, buffer: tuple, sender) -> int | None:
        """Index of the oldest in-flight message from ``sender``."""
        for index, entry in enumerate(buffer):
            if entry[0] == "deliver" and entry[1] == sender:
                return index
        return None

    def _with_resp_buffer(
        self, state: ServiceState, receiver, buffer: tuple, val
    ) -> ServiceState:
        position = self.endpoint_position(receiver)
        resp_buffers = list(state.resp_buffers)
        resp_buffers[position] = buffer
        return ServiceState(
            val=val,
            inv_buffers=state.inv_buffers,
            resp_buffers=tuple(resp_buffers),
            failed=state.failed,
        )

    def _fault_action(self, *args) -> Action:
        return Action("fault", (self.service_id,) + args)

    def _fault_drop(self, state: ServiceState, sender, receiver) -> list[Transition]:
        if _remaining(state.val, (DROP, sender, receiver)) == 0:
            return []
        buffer = self.resp_buffer(state, receiver)
        index = self._first_from(buffer, sender)
        if index is None:
            return []
        post = self._with_resp_buffer(
            state,
            receiver,
            buffer[:index] + buffer[index + 1 :],
            _spend(state.val, (DROP, sender, receiver)),
        )
        return [Transition(self._fault_action(DROP, sender, receiver), post)]

    def _fault_duplicate(
        self, state: ServiceState, sender, receiver
    ) -> list[Transition]:
        if _remaining(state.val, (DUP, sender, receiver)) == 0:
            return []
        buffer = self.resp_buffer(state, receiver)
        index = self._first_from(buffer, sender)
        if index is None:
            return []
        post = self._with_resp_buffer(
            state,
            receiver,
            buffer[: index + 1] + buffer[index:],
            _spend(state.val, (DUP, sender, receiver)),
        )
        return [Transition(self._fault_action(DUP, sender, receiver), post)]

    def _fault_skew(self, state: ServiceState, sender, receiver) -> list[Transition]:
        if _remaining(state.val, (SKEW, sender, receiver)) == 0:
            return []
        buffer = self.resp_buffer(state, receiver)
        index = self._first_from(buffer, sender)
        if index is None:
            return []
        # Delay as far as per-pair FIFO allows: just before the next
        # message from the same sender (or the end of the buffer).
        limit = len(buffer)
        for later in range(index + 1, len(buffer)):
            if buffer[later][0] == "deliver" and buffer[later][1] == sender:
                limit = later
                break
        target_position = limit - 1
        if target_position <= index:
            return []  # delaying would change nothing
        entries = list(buffer)
        entry = entries.pop(index)
        entries.insert(target_position, entry)
        post = self._with_resp_buffer(
            state,
            receiver,
            tuple(entries),
            _spend(state.val, (SKEW, sender, receiver)),
        )
        return [Transition(self._fault_action(SKEW, sender, receiver), post)]

    def _fault_reorder(self, state: ServiceState, receiver, slot) -> list[Transition]:
        if _remaining(state.val, (REORDER, receiver)) == 0:
            return []
        buffer = self.resp_buffer(state, receiver)
        if slot + 1 >= len(buffer):
            return []
        first, second = buffer[slot], buffer[slot + 1]
        if first[1] == second[1]:
            return []  # same sender: swapping would break per-pair FIFO
        entries = list(buffer)
        entries[slot], entries[slot + 1] = second, first
        post = self._with_resp_buffer(
            state,
            receiver,
            tuple(entries),
            _spend(state.val, (REORDER, receiver)),
        )
        return [Transition(self._fault_action(REORDER, receiver, slot), post)]

    def _fault_partition(self, state: ServiceState, cut_index) -> list[Transition]:
        if _remaining(state.val, (PART,)) == 0:
            return []
        if _active_cut_index(state.val) is not None:
            return []  # one cut at a time; heal first
        val = _normalize(_spend(state.val, (PART,)) + ((CUT, cut_index),))
        post = ServiceState(
            val=val,
            inv_buffers=state.inv_buffers,
            resp_buffers=state.resp_buffers,
            failed=state.failed,
        )
        return [Transition(self._fault_action(PART, cut_index), post)]

    def _fault_heal(self, state: ServiceState) -> list[Transition]:
        active = _active_cut_index(state.val)
        if active is None:
            return []
        val = _normalize(tuple(e for e in state.val if e[0] != CUT))
        post = ServiceState(
            val=val,
            inv_buffers=state.inv_buffers,
            resp_buffers=state.resp_buffers,
            failed=state.failed,
        )
        return [Transition(self._fault_action("heal"), post)]


class FaultyChannel(FaultyNetwork):
    """A single directed FIFO channel with a fault adversary.

    The faulty counterpart of :class:`~repro.services.network.Channel`:
    two endpoints, strict target checking (sends to unknown targets are
    rejected, not dropped — the endpoint set of a channel is static),
    and the full :class:`FaultBudget` machinery on the one link.
    """

    def __init__(
        self,
        sender: Hashable,
        receiver: Hashable,
        messages: Sequence,
        resilience: int = 1,
        budget: FaultBudget | None = None,
        name: str | None = None,
    ) -> None:
        super().__init__(
            service_id=channel_id(sender, receiver),
            endpoints=(sender, receiver),
            messages=messages,
            resilience=resilience,
            budget=budget,
            name=name if name is not None else f"chan[{sender}->{receiver}]",
            strict=True,
        )
