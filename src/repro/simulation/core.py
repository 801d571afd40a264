"""Event loop and virtual clock for the DES kernel."""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Any, Generator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.simulation.events import Event, Process


class SimulationError(Exception):
    """Raised for illegal kernel operations (negative delays, reuse...)."""


class StopSimulation(Exception):
    """Internal signal used by :meth:`Environment.run` with an until-event."""


class Environment:
    """A discrete-event simulation environment.

    The environment owns the virtual clock and the pending-event heap.
    Processes are plain generator functions that yield
    :class:`~repro.simulation.events.Event` instances; the environment
    resumes them when the yielded event fires.

    Example
    -------
    >>> env = Environment()
    >>> log = []
    >>> def proc(env):
    ...     yield env.timeout(3)
    ...     log.append(env.now)
    >>> _ = env.process(proc(env))
    >>> env.run()
    >>> log
    [3]
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, "Event"]] = []
        self._eid = itertools.count()
        self._active_process: Optional["Process"] = None

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def active_process(self) -> Optional["Process"]:
        """The process currently being resumed (or ``None``)."""
        return self._active_process

    # -- event construction helpers -------------------------------------

    def event(self) -> "Event":
        """Create a fresh, untriggered event bound to this environment."""
        from repro.simulation.events import Event

        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> "Event":
        """Create an event that fires ``delay`` time units from now."""
        from repro.simulation.events import Timeout

        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> "Process":
        """Start a new process running ``generator`` and return it."""
        from repro.simulation.events import Process

        return Process(self, generator)

    # -- scheduling ------------------------------------------------------

    def schedule(self, event: "Event", delay: float = 0.0, priority: int = 1) -> None:
        """Place a triggered event on the heap, ``delay`` units from now.

        ``priority`` breaks ties at equal times: lower runs first.  The
        kernel uses priority 0 for process resumptions that must precede
        ordinary events scheduled at the same instant (e.g. interrupts).
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        heapq.heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process the single next event.

        Raises :class:`SimulationError` when the queue is empty.
        """
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        when, _prio, _eid, event = heapq.heappop(self._queue)
        self._now = when
        event._run_callbacks()

    def run(self, until: Optional[float] = None) -> Any:
        """Run until the schedule drains, time ``until`` passes, or an
        until-event fires.

        ``until`` may be a number (stop when the clock would pass it) or an
        :class:`~repro.simulation.events.Event` (stop when it fires and
        return its value; raise if the schedule drains first).
        """
        from repro.simulation.events import Event

        until_event: Optional[Event] = None
        until_time = float("inf")
        if until is None:
            pass
        elif isinstance(until, Event):
            until_event = until
            if until_event.triggered and until_event.processed:
                return until_event.value
            until_event.callbacks.append(self._stop_on_event)
        else:
            until_time = float(until)
            if until_time < self._now:
                raise SimulationError(
                    f"until={until_time} lies in the past (now={self._now})"
                )

        try:
            while self._queue:
                if self._queue[0][0] > until_time:
                    self._now = until_time
                    return None
                self.step()
        except StopSimulation as stop:
            return stop.args[0]

        if until_event is not None:
            raise SimulationError("schedule drained before the until-event fired")
        if until_time != float("inf"):
            self._now = until_time
        return None

    @staticmethod
    def _stop_on_event(event: "Event") -> None:
        if event.failed:
            raise event.value
        raise StopSimulation(event.value)


def ensure_generator(candidate: Any) -> Generator:
    """Validate that ``candidate`` is a generator; helpful error otherwise."""
    if not hasattr(candidate, "send") or not hasattr(candidate, "throw"):
        raise SimulationError(
            "process() expects a generator (did you forget to call the "
            f"generator function?): {candidate!r}"
        )
    return candidate
