"""The simulation environment: clock, event queue, and run loop.

The event queue is a plain ``heapq`` list of ``[time, priority, eid,
event]`` entries: events run in time order, then priority, then
insertion order (``eid`` is unique, so comparisons never reach the
event).  A cancelled timer's entry is emptied (its event set to
``None``) and skipped when it reaches the head; the heap is compacted
once emptied entries are an eighth of it (see docs/kernel.md).

Hooks
-----
``tracer``, ``metrics`` and ``chaos`` are plain attributes; ``None``
means off.  An attached tracer needs an ``on_step`` callable: the run
loop calls it for every event (the determinism hash and step counters
depend on it).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Dict, Generator, List, Optional

from repro.sim.events import Event, Process, Timeout

#: Scheduling priorities.  Lower runs first at equal time.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class StopSimulation(Exception):
    """Raised internally to stop the run loop when the until-event fires."""


class EmptySchedule(Exception):
    """Raised internally when the event queue runs dry."""


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float; this repository's convention is **milliseconds**.
    The environment is fully deterministic: ties in time are broken by
    priority then insertion order.
    """

    # Slotted for attribute-lookup speed on the hot paths (schedule,
    # the run loop, Timeout's inlined push).
    __slots__ = (
        "_now", "_queue", "_dead", "_eid_next", "_steps", "_active_proc",
        "tracer", "metrics", "chaos", "_ids", "__weakref__",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: The event heap of ``[time, priority, eid, event]`` entries.
        self._queue: List[list] = []
        #: Entries in the heap emptied by :meth:`Timeout.cancel`.
        self._dead = 0
        self._eid_next = 0
        self._steps = 0
        self._active_proc: Optional[Process] = None
        #: Optional :class:`repro.trace.Tracer` (``None`` = tracing off).
        self.tracer: Optional[Any] = None
        #: Optional :class:`repro.telemetry.MetricsRegistry`.
        self.metrics: Optional[Any] = None
        #: Optional :class:`repro.chaos.ChaosEngine`.
        self.chaos: Optional[Any] = None
        self._ids: Dict[str, int] = {}

    @property
    def now(self) -> float:
        """Current simulated time (milliseconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    @property
    def steps(self) -> int:
        """Total events executed by :meth:`step`/:meth:`run` so far."""
        return self._steps

    def next_id(self, kind: str) -> int:
        """The next id of ``kind`` in this run: 1, 2, … per kind.

        Clients, instances, connections and requests are numbered here,
        so a run's ids (and the RNG streams named after them) do not
        depend on what else ran in the same process.
        """
        n = self._ids.get(kind, 0) + 1
        self._ids[kind] = n
        return n

    # -- event factories ---------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float) -> Timeout:
        """Create an event that triggers after ``delay`` time units."""
        return Timeout(self, delay)

    def process(self, generator: Generator) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator)

    # -- scheduling ---------------------------------------------------
    def schedule(
        self,
        event: Event,
        priority: int = PRIORITY_NORMAL,
        delay: float = 0.0,
    ) -> None:
        """Queue ``event`` to be processed after ``delay``."""
        eid = self._eid_next
        self._eid_next = eid + 1
        heappush(self._queue, [self._now + delay, priority, eid, event])

    def _unschedule(self, entry: list) -> None:
        """Empty a pending heap entry so it is skipped, not run.

        The heap is compacted in place (the run loop holds the list)
        once emptied entries are an eighth of it.  Half would bound the
        heap as well, but emptied entries that linger survive young
        collections: on ``read-hot`` they cost an extra full collection
        per window and ~12% of its CPU time.
        """
        entry[3] = None
        dead = self._dead + 1
        queue = self._queue
        if 8 * dead >= len(queue):
            queue[:] = [item for item in queue if item[3] is not None]
            heapify(queue)
            dead = 0
        self._dead = dead

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        queue = self._queue
        while queue:
            if queue[0][3] is not None:
                return queue[0][0]
            heappop(queue)
            self._dead -= 1
        return float("inf")

    def step(self) -> None:
        """Process the next event in the queue."""
        queue = self._queue
        while True:
            if not queue:
                raise EmptySchedule()
            entry = heappop(queue)
            when, prio, eid, event = entry
            if event is not None:
                break
            self._dead -= 1
        # A Timeout holds its entry (for cancel): break that cycle.
        entry[3] = None

        self._now = when
        self._steps += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.on_step(when, prio, eid, event)
        callbacks = event.callbacks
        event.callbacks = None
        cls = callbacks.__class__
        if cls is tuple:  # no subscribers
            pass
        elif cls is list:
            for callback in callbacks:
                if callback is not None:  # tombstoned by an interrupt
                    callback(event)
        else:  # bare callable: exactly one subscriber
            callbacks(event)

        if not event._ok and not event._defused:
            # An unhandled failure crashes the simulation, mirroring an
            # uncaught exception in real code.
            exc = event._value
            raise exc

    def run(self, until: Any = None) -> Any:
        """Run until ``until`` (an event, a time, or queue exhaustion).

        Returns the value of the until-event, if one was given.
        """
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
            else:
                at = float(until)
                if at <= self._now:
                    raise ValueError(
                        f"until ({at}) must be in the future (now={self._now})"
                    )
                stop_event = Event(self)
                # Urgent priority: stop before same-time normal events run.
                self.schedule(stop_event, priority=PRIORITY_URGENT, delay=at - self._now)
                stop_event._ok = True
                stop_event._value = None

            callbacks = stop_event.callbacks
            if callbacks is None:
                raise ValueError(f"until event {stop_event!r} already processed")
            if type(callbacks) is tuple:  # no subscribers yet
                stop_event.callbacks = _stop_callback
            elif type(callbacks) is list:
                callbacks.append(_stop_callback)
            else:  # one existing subscriber: upgrade to a list
                stop_event.callbacks = [callbacks, _stop_callback]

        # The body of :meth:`step` inlined with attribute chases hoisted
        # into locals.  Compaction replaces the heap's contents in
        # place, so the local ``queue`` stays the live heap.
        queue = self._queue
        steps = 0
        try:
            while queue:
                entry = heappop(queue)
                when, prio, eid, event = entry
                if event is None:  # cancelled
                    self._dead -= 1
                    continue
                entry[3] = None  # see step()
                steps += 1
                self._now = when
                tracer = self.tracer
                if tracer is not None:
                    tracer.on_step(when, prio, eid, event)
                callbacks = event.callbacks
                event.callbacks = None
                cls = callbacks.__class__
                if cls is tuple:  # no subscribers (e.g. watchdog timers)
                    pass
                elif cls is list:
                    for callback in callbacks:
                        if callback is not None:  # tombstoned by interrupt
                            callback(event)
                else:  # bare callable: exactly one subscriber
                    callbacks(event)
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            return stop.args[0]
        finally:
            self._steps += steps

        if stop_event is not None and not stop_event.triggered:
            raise RuntimeError(
                f"no scheduled events left but until={stop_event!r} pending"
            )
        return None


def _stop_callback(event: Event) -> None:
    if event._ok:
        raise StopSimulation(event._value)
    raise event._value
