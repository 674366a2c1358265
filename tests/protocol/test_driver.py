"""The shared command interpreter, driven through a scripted fake port.

:func:`repro.protocol.driver.drive` runs under two trampolines — the
blocking one of the thread and process backends and the asyncio one of
the socket backend.  Both must make the same port calls in the same
order for the same script of answers.
"""

from __future__ import annotations

import asyncio

from repro.message.messages import ProfileMsg, Tag
from repro.protocol import (
    AwaitMessage,
    ComputeDone,
    MessageReceived,
    PeerDead,
    TimerFired,
)
from repro.protocol.driver import drive_blocking
from repro.backend.socket import drive_async
from repro.runtime.options import FaultToleranceConfig

from .conftest import make_worker

FT = FaultToleranceConfig(enabled=True, request_timeout=0.05, backoff=2.0,
                          max_retries=2)


def _profile(src: int) -> ProfileMsg:
    return ProfileMsg(src=src, dst=0, epoch=0, group=0, remaining_work=0.0,
                      remaining_count=0, rate=1.0)


#: The answers to the driver's blocking calls, in order.
SCRIPT = (
    ComputeDone("interrupted"),          # compute stopped by a peer
    TimerFired(),                        # gather times out: resend
    MessageReceived(_profile(2)),        # node 2 answers
    PeerDead(2),                         # irrelevant death: no commands
    MessageReceived(_profile(1)),        # node 1 answers; plan says done
)


class FakePort:
    """Answers from :data:`SCRIPT`; records every port call."""

    def __init__(self) -> None:
        self.answers = list(SCRIPT)
        self.calls: list[tuple] = []

    def send(self, msg):
        self.calls.append(("send", msg))

    def record_sync(self, group, epoch, plan):
        self.calls.append(("record_sync", group, epoch, plan.reason))

    def declare_dead(self, peer):
        self.calls.append(("declare_dead", peer))

    def emit(self, name, args):
        self.calls.append(("emit", name))

    def finish(self, reason):
        self.calls.append(("finish", reason))

    def compute(self):
        self.calls.append(("compute",))
        return self.answers.pop(0)

    def wait(self, spec):
        self.calls.append(("wait", spec))
        return self.answers.pop(0)


class AsyncFakePort(FakePort):
    """The same port with coroutine blocking calls, as on sockets."""

    async def compute(self):
        return FakePort.compute(self)

    async def wait(self, spec):
        return FakePort.wait(self, spec)

    async def drain(self):
        pass

    async def bye(self):
        pass


def _run_both(table):
    # Node 0 of a distributed three-node group, nothing left to compute.
    def worker():
        return make_worker(0, (0, 1, 2), centralized=False, table=table,
                           ft=FT)

    blocking, asynchronous = FakePort(), AsyncFakePort()
    assert drive_blocking(worker(), blocking) == "done"
    assert asyncio.run(drive_async(worker(), asynchronous)) == "done"
    return blocking, asynchronous


def test_both_trampolines_make_the_same_port_calls(table):
    blocking, asynchronous = _run_both(table)
    assert blocking.calls == asynchronous.calls
    assert blocking.answers == asynchronous.answers == []


def test_script_walks_interrupt_timeout_and_rearm(table):
    calls, _ = _run_both(table)
    kinds = [c[0] for c in calls.calls]
    assert kinds == ["compute", "send", "send", "wait",  # profiles out
                     "send", "send", "wait",             # timeout: resend
                     "wait",                             # node 2 answered
                     "wait",                             # PeerDead: re-arm
                     "record_sync", "finish"]
    waits = [c[1] for c in calls.calls if c[0] == "wait"]
    assert all(isinstance(w, AwaitMessage) and w.tags == (Tag.PROFILE,)
               for w in waits)
    assert waits[0].srcs == waits[1].srcs == (1, 2)
    # The death returned no commands: the very same wait is yielded again.
    assert waits[2].srcs == (1,)
    assert waits[3] is waits[2]
    resends = [c[1] for c in calls.calls[4:6]]
    assert [(m.dst, m.kind) for m in resends] == [(1, "resend-profile"),
                                                  (2, "resend-profile")]
    assert calls.calls[-1] == ("finish", "done")
