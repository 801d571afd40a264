"""Unit tests for the perf model's event kernel: environment, events,
processes."""

import pytest

from repro.perfmodel.kernel import Environment, Interrupt, SimulationError


class TestEnvironment:
    def test_clock_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_clock_starts_at_initial_time(self):
        assert Environment(5.0).now == 5.0

    def test_run_empty_schedule_is_noop(self):
        env = Environment()
        env.run()
        assert env.now == 0.0

    def test_run_until_time_advances_clock(self):
        env = Environment()
        env.timeout(10)
        env.run(until=4)
        assert env.now == 4

    def test_run_until_past_time_raises(self):
        env = Environment(10)
        with pytest.raises(SimulationError):
            env.run(until=5)

    def test_step_empty_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_events_fire_in_time_order(self):
        env = Environment()
        fired = []

        def proc(env, delay, tag):
            yield env.timeout(delay)
            fired.append(tag)

        env.process(proc(env, 3, "c"))
        env.process(proc(env, 1, "a"))
        env.process(proc(env, 2, "b"))
        env.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_fifo(self):
        env = Environment()
        fired = []

        def proc(env, tag):
            yield env.timeout(1)
            fired.append(tag)

        for tag in ("x", "y", "z"):
            env.process(proc(env, tag))
        env.run()
        assert fired == ["x", "y", "z"]

    def test_run_until_event_returns_value(self):
        env = Environment()

        def proc(env, event):
            yield env.timeout(2)
            event.succeed("payload")

        event = env.event()
        env.process(proc(env, event))
        assert env.run(until=event) == "payload"
        assert env.now == 2

    def test_run_until_never_fired_event_raises(self):
        env = Environment()
        event = env.event()
        env.timeout(1)
        with pytest.raises(SimulationError):
            env.run(until=event)


class TestEvent:
    def test_succeed_delivers_value(self):
        env = Environment()
        results = []

        def proc(env, event):
            value = yield event
            results.append(value)

        event = env.event()
        env.process(proc(env, event))
        event.succeed(42)
        env.run()
        assert results == [42]

    def test_double_succeed_raises(self):
        env = Environment()
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.event().fail("not an exception")  # type: ignore[arg-type]

    def test_failed_event_raises_in_process(self):
        env = Environment()
        caught = []

        def proc(env, event):
            try:
                yield event
            except ValueError as error:
                caught.append(str(error))

        event = env.event()
        env.process(proc(env, event))
        event.fail(ValueError("boom"))
        env.run()
        assert caught == ["boom"]

    def test_value_before_trigger_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_timeout_negative_delay_raises(self):
        env = Environment()
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_timeout_carries_value(self):
        env = Environment()
        seen = []

        def proc(env):
            value = yield env.timeout(1, value="tick")
            seen.append(value)

        env.process(proc(env))
        env.run()
        assert seen == ["tick"]


class TestProcess:
    def test_process_return_value_becomes_event_value(self):
        env = Environment()

        def child(env):
            yield env.timeout(1)
            return "done"

        def parent(env, out):
            result = yield env.process(child(env))
            out.append(result)

        out = []
        env.process(parent(env, out))
        env.run()
        assert out == ["done"]

    def test_process_requires_generator(self):
        env = Environment()

        def not_a_generator(env):
            return 42

        with pytest.raises(SimulationError):
            env.process(not_a_generator(env))  # type: ignore[arg-type]

    def test_yield_non_event_fails_process(self):
        env = Environment()

        def proc(env):
            yield 42  # type: ignore[misc]

        process = env.process(proc(env))
        env.run()
        assert process.failed

    def test_interrupt_raises_in_process(self):
        env = Environment()
        log = []

        def victim(env):
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                log.append((env.now, interrupt.cause))

        def attacker(env, victim_process):
            yield env.timeout(5)
            victim_process.interrupt("stop it")

        victim_process = env.process(victim(env))
        env.process(attacker(env, victim_process))
        env.run()
        assert log == [(5, "stop it")]

    def test_interrupt_dead_process_raises(self):
        env = Environment()

        def quick(env):
            yield env.timeout(1)

        process = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_is_alive_transitions(self):
        env = Environment()

        def proc(env):
            yield env.timeout(1)

        process = env.process(proc(env))
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_already_processed_event_resumes_immediately(self):
        env = Environment()
        seen = []

        def proc(env, event):
            yield env.timeout(3)
            value = yield event  # fired long ago
            seen.append((env.now, value))

        event = env.event()
        event.succeed("early")
        env.process(proc(env, event))
        env.run()
        assert seen == [(3, "early")]

