"""The simulation environment: clock, event queue, and run loop.

The event queue is a :class:`repro.sim.calendar.CalendarQueue` — pop
order is identical to the former global ``heapq`` (time, then priority,
then insertion order), but push/pop cost tracks local event density
instead of the global pending count, which is what makes 100k+ client
runs feasible (see docs/kernel.md).

Instrumentation fast path
-------------------------
``tracer``, ``metrics`` and ``chaos`` read and assign exactly as
before (``env.chaos = engine`` / ``env.tracer = None``), but they are
properties whose setters precompute two plain attributes:

* ``instrumented`` — True iff *any* of the three subsystems is
  attached.  Hot instrumentation sites check this single flag first
  and skip the three per-subsystem ``is None`` checks when the
  simulation runs bare (the common case for benchmarks).
* ``_on_step`` — the tracer's bound ``on_step`` hook or ``None``; the
  run loop reads one attribute per step instead of two.

Attaching a tracer requires an ``on_step`` callable (the determinism
hash and step counters depend on it being invoked for every event).
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Dict, Generator, Optional

from repro.sim.calendar import CalendarQueue
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
    # the run loop, Timeout's inlined push); ``__dict__`` stays so
    # external code can still hang arbitrary attributes off an env.
    __slots__ = (
        "_now", "_queue", "_eid_next", "_steps", "_active_proc",
        "_tracer", "_metrics", "_chaos", "_on_step", "instrumented",
        "_ids", "__dict__", "__weakref__",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue = CalendarQueue(start=self._now)
        self._eid_next = 0
        self._steps = 0
        self._active_proc: Optional[Process] = None
        self._tracer: Optional[Any] = None
        self._metrics: Optional[Any] = None
        self._chaos: Optional[Any] = None
        self._on_step: Optional[Any] = None
        #: True iff a tracer, metrics registry, or chaos engine is
        #: attached.  Plain attribute, recomputed by the property
        #: setters below; hot paths branch on it before touching the
        #: individual subsystems.
        self.instrumented = False
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

    # -- instrumentation attachment points ----------------------------
    # Reading/assigning these looks exactly like the plain attributes
    # they used to be; the setters keep ``instrumented``/``_on_step``
    # coherent so the run loop and instrumentation sites stay cheap.
    @property
    def tracer(self) -> Optional[Any]:
        """Optional :class:`repro.trace.Tracer` (``None`` = tracing off)."""
        return self._tracer

    @tracer.setter
    def tracer(self, value: Optional[Any]) -> None:
        self._tracer = value
        self._on_step = None if value is None else value.on_step
        self.instrumented = (
            value is not None
            or self._metrics is not None
            or self._chaos is not None
        )

    @property
    def metrics(self) -> Optional[Any]:
        """Optional :class:`repro.telemetry.MetricsRegistry`."""
        return self._metrics

    @metrics.setter
    def metrics(self, value: Optional[Any]) -> None:
        self._metrics = value
        self.instrumented = (
            value is not None
            or self._tracer is not None
            or self._chaos is not None
        )

    @property
    def chaos(self) -> Optional[Any]:
        """Optional :class:`repro.chaos.ChaosEngine`.

        With no engine attached the simulation is byte-identical to a
        build without the chaos subsystem.
        """
        return self._chaos

    @chaos.setter
    def chaos(self, value: Optional[Any]) -> None:
        self._chaos = value
        self.instrumented = (
            value is not None
            or self._tracer is not None
            or self._metrics is not None
        )

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

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` time units."""
        return Timeout(self, delay, value)

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
        self._queue.push(self._now + delay, priority, eid, event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue.peek()

    def step(self) -> None:
        """Process the next event in the queue."""
        entry = self._queue.pop()
        if entry is None:
            raise EmptySchedule()
        when, prio, eid, event = entry

        self._now = when
        self._steps += 1
        on_step = self._on_step
        if on_step is not None:
            on_step(when, prio, eid, event)
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
        # into locals — including :meth:`CalendarQueue.pop` itself.  The
        # queue's partitions (``_cur``/``_over``) and its ``_pops``
        # resize counter live in locals across iterations: pushes from
        # callbacks mutate the same list objects, and the only code
        # that *replaces* them (``_refill``/``_rescale``) is re-read
        # after the two calls below that can reach it.  A re-entrant
        # ``env.step()``/``env.peek()`` from a callback self-heals: it
        # can only leave the locals stale-*empty* (``_rescale`` clears
        # the lists it retires), which routes the next iteration
        # through ``refill()`` and a fresh re-read.  ``_pops`` is
        # written back on exit so subsequent ``step()`` calls stay
        # coherent.
        queue = self._queue
        refill = queue._refill
        check_pops = queue._CHECK_POPS
        cur = queue._cur
        over = queue._over
        # ``steps`` doubles as the pop counter: the next width check
        # fires when it crosses ``next_check`` (seeded from the
        # queue's persisted ``_pops`` so step()/run() mixing keeps the
        # same cadence).
        next_check = check_pops - queue._pops
        steps = 0
        try:
            while True:
                if over:
                    if cur and cur[-1] < over[0]:
                        entry = cur.pop()
                    else:
                        entry = heappop(over)
                elif cur:
                    entry = cur.pop()
                else:
                    if not refill():
                        break
                    cur = queue._cur
                    over = queue._over
                    continue
                steps += 1
                if steps >= next_check:
                    next_check = steps + check_pops
                    queue._auto_resize(entry[0])
                    cur = queue._cur
                    over = queue._over
                when, prio, eid, event = entry
                self._now = when
                on_step = self._on_step
                if on_step is not None:
                    on_step(when, prio, eid, event)
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
            queue._pops = check_pops - (next_check - steps)

        if stop_event is not None and not stop_event.triggered:
            raise RuntimeError(
                f"no scheduled events left but until={stop_event!r} pending"
            )
        return None


def _stop_callback(event: Event) -> None:
    if event._ok:
        raise StopSimulation(event._value)
    raise event._value
