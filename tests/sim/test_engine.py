"""Tests for the simulation engine's run loop."""

import pytest

from repro.common.errors import SimulationError
from repro.sim import Environment


def test_time_starts_at_zero():
    assert Environment().now == 0.0


def test_run_until_time_advances_clock():
    env = Environment()
    env.run(until=10.0)
    assert env.now == 10.0


def test_run_until_past_raises():
    env = Environment(initial_time=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_timeouts_fire_in_order():
    env = Environment()
    fired = []
    for delay in (3.0, 1.0, 2.0):
        event = env.timeout(delay, value=delay)
        event.callbacks.append(lambda e: fired.append((env.now, e.value)))
    env.run()
    assert fired == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]


def test_simultaneous_events_fifo():
    env = Environment()
    fired = []
    for tag in ("first", "second", "third"):
        event = env.timeout(1.0, value=tag)
        event.callbacks.append(lambda e: fired.append(e.value))
    env.run()
    assert fired == ["first", "second", "third"]


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(2.0)
        return "done"

    process = env.process(proc())
    assert env.run(until=process) == "done"
    assert env.now == 2.0


def test_run_until_event_propagates_failure():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    process = env.process(proc())
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=process)


def test_run_out_of_events_before_until_event_raises():
    env = Environment()
    never = env.event()
    env.timeout(1.0)
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_unhandled_process_failure_crashes_run():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise ValueError("unhandled")

    env.process(proc())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_step_on_empty_schedule_raises():
    with pytest.raises(SimulationError):
        Environment().step()


def test_negative_schedule_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.schedule(env.event(), delay=-1.0)


def test_events_processed_counter():
    env = Environment()
    env.timeout(1.0)
    env.timeout(2.0)
    env.run()
    assert env.events_processed == 2


def test_determinism_same_program_same_trace():
    def run_once():
        env = Environment()
        trace = []

        def worker(name, delay):
            yield env.timeout(delay)
            trace.append((env.now, name))

        for i in range(10):
            env.process(worker(f"w{i}", (i * 7) % 5 + 0.5))
        env.run()
        return trace

    assert run_once() == run_once()


class _Held:
    """Something a suspended process holds in its frame (weakly referenceable)."""


def test_close_frees_suspended_processes_without_the_collector():
    import gc
    import weakref

    from repro.sim.resources import Resource, Store

    env = Environment()
    store = Store(env)
    pool = Resource(env, 1)
    released = []

    def waiter(held):
        with (yield pool.request()):
            try:
                yield store.get()  # never satisfied
            finally:
                released.append(held is not None)

    held = _Held()
    ref = weakref.ref(held)
    process = env.process(waiter(held))
    env.process(waiter(_Held()))  # queued behind the first on the pool
    env.timeout(5.0)  # still scheduled when the run is abandoned
    env.run(until=1.0)
    del held
    gc.disable()
    try:
        env.close()
        assert ref() is None  # the frame went with the generator: no cycle kept it
    finally:
        gc.enable()
    assert released == [True]  # finally blocks ran; the queued one never started
    assert process.is_alive and process.target is None
    assert env.peek() == float("inf")
    assert store.waiting_getters == 1  # the store is the caller's; it merely holds the event
    env.close()  # idempotent


def test_granted_request_value_is_the_request_without_holding_itself():
    import gc

    from repro.sim.resources import Resource

    env = Environment()
    pool = Resource(env, 1)
    granted = []

    def user():
        request = pool.request()
        granted.append((yield request) is request)
        pool.release(request)
        granted.append(request not in gc.get_referents(request))

    env.process(user())
    env.run()
    assert granted == [True, True]
