"""Events, timeouts, processes and interrupts for the DES kernel."""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from repro.simulation.core import Environment, SimulationError, ensure_generator

PENDING = object()


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

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of ``event`` onto this event (callback helper)."""
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

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

    # -- composition -----------------------------------------------------

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])


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

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"{self!r} has terminated; cannot interrupt")
        if self is self.env.active_process:
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


class Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf` composite events."""

    def __init__(self, env: Environment, events: List[Event]):
        super().__init__(env)
        self._events = events
        self._pending = 0
        for event in events:
            if event.env is not env:
                raise SimulationError("events from mixed environments")
        for event in events:
            if event.processed:
                self._check(event)
            else:
                self._pending += 1
                event.callbacks.append(self._check)
        if not events and not self.triggered:
            self.succeed(dict())

    def _satisfied(self, fired: int, total: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event.failed:
            event._defused = True
            self.fail(event._value)
            return
        # Count events that have actually fired (callbacks run) -- a
        # Timeout is "triggered" from creation but fires later.
        fired = sum(1 for ev in self._events if ev.processed and ev.ok)
        if self._satisfied(fired, len(self._events)):
            self.succeed(
                {ev: ev._value for ev in self._events if ev.processed and ev.ok}
            )


class AnyOf(Condition):
    """Fires when any constituent event fires."""

    def _satisfied(self, fired: int, total: int) -> bool:
        return fired >= 1 or total == 0


class AllOf(Condition):
    """Fires when all constituent events have fired."""

    def _satisfied(self, fired: int, total: int) -> bool:
        return fired == total
