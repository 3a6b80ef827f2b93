"""Event primitives for the simulation kernel.

Events follow the SimPy model: an event is created *pending*, may be
*triggered* with a value (success) or an exception (failure), and once
processed by the environment it invokes its registered callbacks.
Processes are events themselves, so one process can wait for another.

Hot-path notes (see docs/kernel.md):

* Every class here carries ``__slots__`` — at 100k+ concurrent client
  processes the per-instance ``__dict__`` was a third of the kernel's
  heap and a measurable share of its attribute-lookup time.  External
  subclasses without ``__slots__`` still work; they simply get a dict.
* :meth:`Process._resume` is the single hottest Python frame in the
  simulator; attribute chases are hoisted into locals.  The bound
  resume callback *is* cached (``_resume_cb``) to save one bound-method
  allocation per resume — a reference cycle, but one that is broken by
  clearing the slot the moment the generator terminates, so dead
  processes stay refcount-collectable instead of accumulating as
  cyclic garbage (at 100k processes, full collections over that
  garbage would dominate the run).
* Unsubscription on interrupt is O(1): a process remembers the index at
  which it subscribed (``_target_index``) and tombstones that slot to
  ``None`` instead of ``list.remove`` scanning the callback list.  The
  environment's dispatch loop skips ``None`` entries.
* A fired :class:`Condition` detaches from its losers: it swaps its
  ``_check`` subscription on every still-pending member for
  :func:`_defuse_late`, which holds no reference to the condition.  A
  raced watchdog (``call | timer``) therefore no longer pins the
  condition, its value and the finished call until its own deadline.
  The swap is in place (lists stay append-only, so interrupt tombstone
  indices stay valid).  Detaching alone leaves the loser in the queue,
  where it would still run as one kernel step at its deadline; the
  site that raced it removes it with :meth:`Timeout.cancel`.  That
  drops one step per decided race and moves the event hash, but no
  other event's time, priority or eid, so no op's outcome.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.core import Environment

PENDING = object()
"""Sentinel marking an event whose value has not been set yet."""

_NO_CALLBACKS: tuple = ()
"""Shared empty-callbacks marker: a pending event with no subscribers.

Events are created by the million and the overwhelmingly common cases
are *zero* subscribers (armed watchdog timeouts) or *exactly one* (the
process that yielded on the event), so ``Event.callbacks`` uses a
compact tagged representation instead of always allocating a list:

* this shared empty tuple — pending, no subscribers (no allocation);
* a bare callable — pending, exactly one subscriber (no allocation);
* a list — pending, two or more subscribers (may contain ``None``
  tombstones left by O(1) interrupt unsubscription);
* ``None`` — already processed.

The kernel's subscription sites (``Process._resume``, ``Condition``,
``Environment.run``) upgrade the representation in place; external
code must not assume ``callbacks`` is a list.
"""


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0] if self.args else None


class Event:
    """An event that may happen at some point in simulated time."""

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Any = _NO_CALLBACKS
        self._value: Any = PENDING
        self._ok = True
        self._defused = False

    def __repr__(self) -> str:
        status = "pending" if self._value is PENDING else repr(self._value)
        return f"<{type(self).__name__} {status}>"

    @property
    def triggered(self) -> bool:
        """True if the event has a value (it has been scheduled)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful when triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The triggered value; raises if the event is still pending."""
        if self._value is PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def defused(self) -> None:
        """Mark a failed event as handled so it will not crash the run."""
        self._defused = True

    # -- composition -------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return AnyOf(self.env, [self, other])


class Timeout(Event):
    """An event that triggers after a fixed delay.

    A timer that lost a race can leave the queue early with
    :meth:`cancel`; it keeps its queue key (fire time and eid) for that.
    """

    __slots__ = ("_at", "_eid")

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Timeouts are the bulk of all events; the base ``__init__``,
        # ``Environment.schedule`` *and* ``CalendarQueue.push`` are
        # inlined here to save three frames on the hottest allocation
        # path.  The eid counter and the push routing must stay
        # byte-identical to ``schedule`` (priority is PRIORITY_NORMAL).
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._value = value
        self._ok = True
        self._defused = False
        eid = env._eid_next
        env._eid_next = eid + 1
        queue = env._queue
        t = env._now + delay
        self._at = t
        self._eid = eid
        idx = int(t * queue._inv_width)
        if idx <= queue._cur_idx:
            heappush(queue._over, (t, 1, eid, self))
        elif idx < queue._far_limit:
            ring = queue._ring
            slot = idx & queue._mask
            bucket = ring[slot]
            if bucket is None:
                ring[slot] = [(t, 1, eid, self)]
            else:
                bucket.append((t, 1, eid, self))
            queue._ring_count += 1
        else:
            heappush(queue._far, (t, 1, eid, self))

    def cancel(self) -> None:
        """Take this pending timer out of the queue; it never fires.

        For the timer of a decided race (``call | timer`` where the
        call won): only the code that created the timer knows nothing
        will wait on it later, so cancelling is explicit, never done by
        the condition.  The timer is not a kernel step and the tracer
        never sees it.  Every other event keeps its time, priority and
        eid, so their relative order is unchanged.  A no-op once the
        timer has fired or been cancelled; raises ``RuntimeError`` while
        a process or an undecided condition still waits on it.
        """
        callbacks = self.callbacks
        if callbacks is None:
            return
        if callbacks is not _NO_CALLBACKS and callbacks is not _defuse_late:
            raise RuntimeError(f"cannot cancel {self!r}: something waits on it")
        self.callbacks = None
        self.env._queue.remove(self._at, 1, self._eid, self)


class Initialize(Event):
    """Internal event that starts a new process on the next step."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        # The process is the sole subscriber (bare-callable form);
        # Process.__init__ records _target_index = 0 to match.
        self.callbacks = process._resume_cb
        self._value = None
        self._ok = True
        self._defused = False
        env.schedule(self, 0)  # PRIORITY_URGENT


class Process(Event):
    """Wraps a generator so it can be scheduled by the environment.

    The generator yields :class:`Event` instances; each time a yielded
    event is processed the generator is resumed with the event's value
    (or the event's exception is thrown into it).
    """

    __slots__ = ("_generator", "_target", "_target_index", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = _NO_CALLBACKS
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self._target_index = 0
        # The cached bound resume method is a deliberate reference
        # cycle (process -> bound method -> process) that saves one
        # bound-method allocation per resume; it is broken by clearing
        # the slot the moment the generator terminates, so *dead*
        # processes remain refcount-collectable and never accumulate as
        # cyclic garbage (see docs/kernel.md).
        self._resume_cb = self._resume
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True until the wrapped generator exits."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self is self.env.active_process:
            raise RuntimeError("a process is not allowed to interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        # Jump the queue: deliver the interrupt before normal events.
        interrupt_event.callbacks = self._resume_interrupt
        self.env.schedule(interrupt_event, priority=0)

    def _resume_interrupt(self, event: Event) -> None:
        # The process may have ended between scheduling and delivery.
        if self._value is not PENDING:
            return
        target = self._target
        if target is not None and self.callbacks is not None:
            # Unsubscribe from the event we were waiting for in O(1).
            # Bare-callable form: drop back to the no-subscriber
            # marker.  List form: tombstone the recorded subscription
            # slot (lists are append-only, so the index recorded at
            # subscription time still addresses our entry).  Every
            # subscription installs the one cached ``_resume_cb``
            # object, so identity checks suffice and make a second
            # interrupt a no-op.
            callbacks = target.callbacks
            if type(callbacks) is list:
                index = self._target_index
                if index < len(callbacks) and callbacks[index] is self._resume_cb:
                    callbacks[index] = None
            elif callbacks is self._resume_cb:
                target.callbacks = _NO_CALLBACKS
        self._resume(event)

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_proc = self
        generator = self._generator
        send = generator.send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    next_event = generator.throw(type(exc), exc, None)
            except StopIteration as stop:
                self._ok = True
                self._value = getattr(stop, "value", None)
                self._resume_cb = None  # break the cached-callback cycle
                env.schedule(self)
                break
            except BaseException as exc:  # noqa: BLE001 - failure propagates
                self._ok = False
                self._value = exc
                self._resume_cb = None  # break the cached-callback cycle
                env.schedule(self)
                break

            try:
                callbacks = next_event.callbacks
            except AttributeError:
                if next_event is None:
                    # ``yield None``: yield control, resume immediately.
                    event = Event(env)
                    event.succeed()
                    continue
                raise RuntimeError(
                    f"process yielded a non-event: {next_event!r}"
                ) from None
            event = next_event

            if callbacks is not None:
                # Event still pending: wait for it, remembering where we
                # subscribed so an interrupt can unsubscribe in O(1).
                if callbacks is _NO_CALLBACKS:
                    event.callbacks = self._resume_cb  # sole subscriber
                    self._target_index = 0
                elif type(callbacks) is list:
                    self._target_index = len(callbacks)
                    callbacks.append(self._resume_cb)
                else:  # one existing subscriber: upgrade to a list
                    event.callbacks = [callbacks, self._resume_cb]
                    self._target_index = 1
                self._target = event
                break
            # Event already processed: loop and resume immediately with
            # its value, without another trip through the queue.
            if not event._ok and not event._defused:
                event._defused = True

        env._active_proc = None


class ConditionValue:
    """Ordered mapping of events to values for triggered conditions.

    Preserves trigger order in ``events`` while answering membership
    and ``[]`` lookups from a parallel identity set in O(1) (events
    hash by identity; none of them define ``__eq__``).
    """

    __slots__ = ("events", "_present")

    def __init__(self) -> None:
        self.events: list = []
        self._present: set = set()

    def add(self, event: Event) -> None:
        """Record ``event`` once, keeping insertion order."""
        if event not in self._present:
            self._present.add(event)
            self.events.append(event)

    def __getitem__(self, key: Event) -> Any:
        if key not in self._present:
            raise KeyError(repr(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self._present

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"

    def keys(self) -> Iterable[Event]:
        return list(self.events)

    def values(self) -> Iterable[Any]:
        return [event._value for event in self.events]

    def items(self) -> Iterable:
        return [(event, event._value) for event in self.events]

    def todict(self) -> dict:
        return {event: event._value for event in self.events}


class Condition(Event):
    """Waits for a boolean combination of events."""

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list, int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._count = 0

        # Copy and validate in one pass (all members are validated
        # before any subscription happens, so a mixed-environment error
        # leaves no dangling callbacks behind).
        members: list = []
        append = members.append
        for event in events:
            if event.env is not env:
                raise ValueError("events from different environments")
            append(event)
        self._events = members

        if not members:
            self.succeed(ConditionValue())
            return

        check = self._check  # one bound method for every subscription
        for event in members:
            callbacks = event.callbacks
            if callbacks is None:
                check(event)
                if self._value is not PENDING:
                    # Fired by an already-processed member: the rest
                    # subscribe as losers straight away.
                    check = _defuse_late
            elif callbacks is _NO_CALLBACKS:
                event.callbacks = check  # sole subscriber
            elif type(callbacks) is list:
                callbacks.append(check)
            else:  # one existing subscriber: upgrade to a list
                event.callbacks = [callbacks, check]

    def _collect(self, value: ConditionValue) -> None:
        add = value.add
        for event in self._events:
            if event.callbacks is None:
                add(event)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            # Already fired, but this member's callbacks were taken for
            # dispatch before the detach (it is listed twice, or the
            # condition was triggered directly).
            _defuse_late(event)
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._detach()
        elif self._evaluate(self._events, self._count):
            value = ConditionValue()
            self._collect(value)
            self.succeed(value)
            self._detach()

    def _detach(self) -> None:
        """Swap this condition's subscription on every still-pending
        member for :func:`_defuse_late`.

        A losing member (typically a raced watchdog timer) otherwise
        holds the bound ``_check`` until its own deadline, and with it
        this condition, its value and every finished member.  The swap
        is in place: lists stay append-only, so the indices processes
        recorded for O(1) interrupt unsubscription stay valid.  The
        member still dispatches a callback when it fires, so the event
        sequence is unchanged.
        """
        mine = self._check  # equal (not identical) to the installed one
        for event in self._events:
            callbacks = event.callbacks
            if type(callbacks) is list:
                for index, callback in enumerate(callbacks):
                    if callback == mine:
                        callbacks[index] = _defuse_late
            elif callbacks == mine:
                event.callbacks = _defuse_late


def _defuse_late(event: Event) -> None:
    """Callback left on a member that lost a condition's race.

    The condition already fired, so a late failure of this member must
    not crash the simulation.  It holds no reference to the condition.
    """
    if not event._ok:
        event._defused = True


class AllOf(Condition):
    """Triggered once every given event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, lambda events, count: count >= len(events), events)


class AnyOf(Condition):
    """Triggered once any of the given events has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, lambda events, count: count >= 1, events)
