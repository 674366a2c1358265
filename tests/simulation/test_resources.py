"""Unit tests for FIFO resources."""

import pytest

from repro.simulation import (Environment, Resource, ScheduleInPastError,
                              SimulationError)


def test_capacity_validation(env):
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_immediate_grant_when_free(env):
    res = Resource(env)

    def worker():
        req = res.request()
        yield req
        assert res.in_use == 1
        res.release(req)
        return env.now

    assert env.run(env.process(worker())) == 0.0


def test_mutual_exclusion_serializes(env):
    res = Resource(env)
    log = []

    def worker(name):
        yield from res.use(1.0)
        log.append((env.now, name))

    env.process(worker("a"))
    env.process(worker("b"))
    env.process(worker("c"))
    env.run()
    assert log == [(1.0, "a"), (2.0, "b"), (3.0, "c")]


def test_capacity_two_overlaps(env):
    res = Resource(env, capacity=2)
    log = []

    def worker(name):
        yield from res.use(1.0)
        log.append((env.now, name))

    for n in "abcd":
        env.process(worker(n))
    env.run()
    assert log == [(1.0, "a"), (1.0, "b"), (2.0, "c"), (2.0, "d")]


def test_fifo_grant_order(env):
    res = Resource(env)
    order = []

    def worker(name, think):
        yield env.timeout(think)
        req = res.request()
        yield req
        order.append(name)
        yield env.timeout(1.0)
        res.release(req)

    env.process(worker("first", 0.0))
    env.process(worker("second", 0.1))
    env.process(worker("third", 0.2))
    env.run()
    assert order == ["first", "second", "third"]


def test_release_wakes_waiter(env):
    res = Resource(env)
    log = []

    def holder():
        req = res.request()
        yield req
        yield env.timeout(5.0)
        res.release(req)

    def waiter():
        yield env.timeout(1.0)
        req = res.request()
        yield req
        log.append(env.now)
        res.release(req)

    env.process(holder())
    env.process(waiter())
    env.run()
    assert log == [5.0]


def test_release_unknown_request_raises(env):
    res = Resource(env)
    other = Environment()
    foreign = Resource(other).request()
    with pytest.raises(SimulationError):
        res.release(foreign)


def test_cancel_queued_request(env):
    res = Resource(env)

    def holder():
        yield from res.use(2.0)

    def canceller():
        yield env.timeout(0.5)
        req = res.request()
        res.release(req)  # cancel while queued
        assert res.queue_length == 0

    env.process(holder())
    env.process(canceller())
    env.run()


def test_wait_time_statistics(env):
    res = Resource(env)

    def worker():
        yield from res.use(1.0)

    env.process(worker())
    env.process(worker())
    env.run()
    assert res.total_requests == 2
    assert res.total_wait_time == pytest.approx(1.0)


def test_use_releases_on_completion(env):
    res = Resource(env)

    def worker():
        yield from res.use(1.0)

    env.run(env.process(worker()))
    assert res.in_use == 0
    assert res.queue_length == 0


def test_use_releases_when_stopped_while_queued(env):
    """A process stopped while queued in ``use()`` must not keep a grant."""
    res = Resource(env)

    def holder():
        yield from res.use(5.0)

    def waiter():
        yield env.timeout(1.0)
        yield from res.use(1.0)

    def stopper(proc):
        yield env.timeout(2.0)
        proc.stop()

    env.process(holder())
    env.process(stopper(env.process(waiter())))
    env.run()
    assert res.in_use == 0
    assert res.queue_length == 0


def test_use_releases_when_stopped_while_holding(env):
    res = Resource(env)

    def worker():
        yield from res.use(5.0)

    def stopper(proc):
        yield env.timeout(2.0)
        proc.stop()
        assert res.in_use == 1

    env.process(stopper(env.process(worker())))
    env.run(until=3.0)
    assert res.in_use == 0


# -- request(delay): the hold is scheduled at the grant -----------------

def _hold(env, res, delay, log, name, at=0.0):
    """Request at ``at``, log the time the request fires, release."""
    yield env.timeout(at)
    req = res.request(delay)
    yield req
    log.append((env.now, name))
    res.release(req)


def test_delayed_request_fires_after_free_grant(env):
    res = Resource(env)
    req = res.request(2.0)
    assert res.in_use == 1  # granted inside request()
    env.run()
    assert req.processed
    assert env.now == 2.0
    assert res.in_use == 1  # the caller still holds until it releases
    res.release(req)
    assert res.in_use == 0


def test_delayed_request_fires_after_queued_grant(env):
    res = Resource(env)
    log = []
    env.process(_hold(env, res, 3.0, log, "holder"))
    env.process(_hold(env, res, 2.0, log, "queued", at=1.0))
    env.run()
    # Granted at 3.0 by the holder's release, then held for 2.0.
    assert log == [(3.0, "holder"), (5.0, "queued")]


def test_fifo_order_across_mixed_delays(env):
    res = Resource(env)
    log = []
    env.process(_hold(env, res, 1.0, log, "holder"))
    env.process(_hold(env, res, 5.0, log, "a", at=0.1))
    env.process(_hold(env, res, 0.5, log, "b", at=0.2))
    env.process(_hold(env, res, 2.0, log, "c", at=0.3))
    env.run()
    # A short hold queued later does not overtake a long one queued
    # earlier: grants follow request order, holds follow grants.
    assert log == [(1.0, "holder"), (6.0, "a"), (6.5, "b"), (8.5, "c")]


def test_release_cancels_queued_delayed_request(env):
    res = Resource(env)
    held = res.request(2.0)
    queued = res.request(1.0)
    assert res.queue_length == 1
    res.release(queued)
    assert res.queue_length == 0
    env.run()
    res.release(held)
    env.run()
    assert not queued.triggered  # never granted, never fired
    assert res.in_use == 0
    assert env.now == 2.0


def test_wait_time_counts_queued_delayed_requests(env):
    res = Resource(env)
    log = []
    env.process(_hold(env, res, 2.0, log, "holder"))
    env.process(_hold(env, res, 1.0, log, "queued", at=0.5))
    env.run()
    assert log == [(2.0, "holder"), (3.0, "queued")]
    assert res.total_requests == 2
    assert res.total_wait_time == pytest.approx(1.5)  # queued 0.5 -> 2.0


def test_negative_delay_rejected(env):
    with pytest.raises(ScheduleInPastError):
        Resource(env).request(-1.0)


# -- wait accounting -------------------------------------------------------

def test_cancelled_queued_request_adds_no_wait(env):
    res = Resource(env)
    held = res.request(2.0)

    def canceller():
        yield env.timeout(0.5)
        queued = res.request(1.0)
        yield env.timeout(1.0)
        res.release(queued)  # cancelled after queueing 1.0 s

    env.process(canceller())
    env.run()
    res.release(held)
    assert res.total_requests == 2
    assert res.total_wait_time == 0.0


def test_contended_fifo_wait_time_is_hand_computed(env):
    res = Resource(env)
    log = []
    env.process(_hold(env, res, 2.0, log, "holder"))
    env.process(_hold(env, res, 1.0, log, "a", at=0.5))
    env.process(_hold(env, res, 1.0, log, "b", at=0.7))
    env.process(_hold(env, res, 0.5, log, "c", at=1.0))
    env.run()
    assert log == [(2.0, "holder"), (3.0, "a"), (4.0, "b"), (4.5, "c")]
    # a waits 0.5 -> 2.0, b 0.7 -> 3.0, c 1.0 -> 4.0.
    assert res.total_wait_time == pytest.approx(1.5 + 2.3 + 3.0)


def test_double_release_raises(env):
    res = Resource(env)
    held = res.request(1.0)
    queued = res.request(1.0)
    res.release(queued)
    with pytest.raises(SimulationError):
        res.release(queued)
    env.run()
    res.release(held)
    with pytest.raises(SimulationError):
        res.release(held)
