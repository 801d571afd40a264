"""Event loop, virtual clock and processes for the fluid-flow replay.

A small, dependency-free discrete-event kernel in the style of SimPy:
:class:`Environment` owns the clock and the pending-event heap, and
processes are Python generators that ``yield`` :class:`Event` instances
(a :class:`Timeout`, a flow's ``done`` event, another :class:`Process`).
The perf model's jobs, macro-flows, samplers and the flow network's
completion timer all run on it, so a replay is deterministic virtual time.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, List, Optional

PENDING = object()


class SimulationError(Exception):
    """Raised for illegal kernel operations (negative delays, reuse...)."""


class StopSimulation(Exception):
    """Internal signal used by :meth:`Environment.run` with an until-event."""


class Environment:
    """A discrete-event simulation environment.

    The environment owns the virtual clock and the pending-event heap.
    Processes are plain generator functions that yield :class:`Event`
    instances; the environment resumes them when the yielded event fires.

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

    # -- event construction helpers -------------------------------------

    def event(self) -> "Event":
        """Create a fresh, untriggered event bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> "Event":
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> "Process":
        """Start a new process running ``generator`` and return it."""
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
        :class:`Event` (stop when it fires and return its value; raise if
        the schedule drains first).
        """
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


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A one-shot event that processes can wait on.

    Lifecycle: *untriggered* -> :meth:`succeed`/:meth:`fail` (triggered,
    scheduled on the heap) -> callbacks run (*processed*).
    """

    def __init__(self, env: Environment):
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._processed = False
        # Whether a process waiting on this event should have the failure
        # re-raised even if nobody explicitly waits (defused by waiting).
        self._defused = False

    # -- state -----------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def failed(self) -> bool:
        return self._ok is False

    @property
    def value(self) -> Any:
        if self._value is PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def _run_callbacks(self) -> None:
        if self._processed:
            return
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    def __init__(self, env: Environment, delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay)


class Initialize(Event):
    """Kernel-internal event that starts a freshly created process."""

    def __init__(self, env: Environment, process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env.schedule(self, priority=0)


class Process(Event):
    """A running process; also an event that fires when the process ends."""

    def __init__(self, env: Environment, generator: Generator):
        super().__init__(env)
        self._generator = ensure_generator(generator)
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self is self.env._active_process:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._resume)
        self.env.schedule(interrupt_event, priority=0)

    def _resume(self, event: Event) -> None:
        # A stale wake-up: the process was interrupted away from this event.
        if self._target is not None and event is not self._target:
            if not self.is_alive:
                return
        self.env._active_process = self
        try:
            while True:
                try:
                    if event._ok:
                        next_target = self._generator.send(event._value)
                    else:
                        event._defused = True
                        next_target = self._generator.throw(event._value)
                except StopIteration as stop:
                    self._target = None
                    self._ok = True
                    self._value = getattr(stop, "value", None)
                    self.env.schedule(self)
                    break
                except BaseException as error:
                    self._target = None
                    self._ok = False
                    # Keep the generator's frames, drop this one: stored
                    # whole, the traceback ties the process to its own
                    # ``_resume`` frame (a cycle) and through ``f_back``
                    # pins every caller of ``run`` until a cyclic GC.
                    self._value = error.with_traceback(
                        error.__traceback__.tb_next
                    )
                    self._defused = False
                    self.env.schedule(self)
                    break

                if not isinstance(next_target, Event):
                    error = SimulationError(
                        f"process yielded a non-event: {next_target!r}"
                    )
                    event = Event(self.env)
                    event._ok = False
                    event._value = error
                    continue

                if next_target.processed:
                    # Already fired: loop around immediately with its value.
                    event = next_target
                    continue

                self._target = next_target
                next_target.callbacks.append(self._resume)
                break
        finally:
            self.env._active_process = None
            if self._target is not None and event is self._target:
                self._target = None
