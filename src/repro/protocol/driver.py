"""The one interpreter of protocol commands, shared by the real backends.

:func:`drive` walks a protocol object's command batches — a
:class:`~repro.protocol.worker.WorkerProtocol` or a
:class:`~repro.protocol.balancer.BalancerProtocol` — and turns them into
effects through a small *port* object.  It is a generator and does no
I/O of its own: it yields at the only two points where a participant
blocks, and whoever runs it answers each yield with the next protocol
event.  :func:`drive_blocking` is that runner for threads and
processes; the socket backend runs the same generator from asyncio.

Port contract
-------------
Non-blocking effects, applied in command order:

* ``send(msg)`` for :class:`~.commands.Send`;
* ``record_sync(group, epoch, plan)`` for :class:`~.commands.RecordSync`;
* ``declare_dead(peer)`` for :class:`~.commands.DeclareDead`;
* ``emit(name, args)`` for :class:`~.commands.Emit`;
* ``finish(reason)`` for :class:`~.commands.Done`, after which the
  generator returns ``reason``.

:class:`~.commands.Charge` is dropped: on a real backend the planning
computation costs real time.

Blocking points, each yielded as the command itself:

* :class:`~.commands.StartCompute`, answered with
  :class:`~.events.ComputeDone` or :class:`~.events.LeaveRequested`;
* the batch's :class:`~.commands.AwaitMessage`, answered with
  :class:`~.events.MessageReceived`, :class:`~.events.TimerFired`,
  :class:`~.events.PeerDead`, :class:`~.events.PeerJoined` or
  :class:`~.events.PeerLeft`.

Membership events may pre-empt a wait in whatever order the backend's
mailbox prefers.  When one produces no commands (the peer did not
matter to the current phase), the previous wait is yielded again.
"""

from __future__ import annotations

from typing import Generator, Optional

from .commands import (
    AwaitMessage,
    Charge,
    Command,
    DeclareDead,
    Done,
    Emit,
    RecordSync,
    Send,
    StartCompute,
)
from .errors import ProtocolError
from .events import ProtocolEvent, Start

__all__ = ["drive", "drive_blocking"]


def drive(proto, port) -> Generator[Command, ProtocolEvent, str]:
    """Interpret ``proto``'s commands against ``port`` (see module doc)."""
    wait: Optional[AwaitMessage] = None
    event: ProtocolEvent = Start()
    while True:
        answered: Optional[ProtocolEvent] = None
        for cmd in proto.on_event(event):
            if isinstance(cmd, Send):
                port.send(cmd.msg)
            elif isinstance(cmd, StartCompute):
                answered = yield cmd
            elif isinstance(cmd, AwaitMessage):
                wait = cmd
            elif isinstance(cmd, RecordSync):
                port.record_sync(cmd.group, cmd.epoch, cmd.plan)
            elif isinstance(cmd, DeclareDead):
                port.declare_dead(cmd.peer)
            elif isinstance(cmd, Emit):
                port.emit(cmd.name, cmd.args())
            elif isinstance(cmd, Done):
                port.finish(cmd.reason)
                return cmd.reason
            elif not isinstance(cmd, Charge):
                raise ProtocolError(f"unhandled command {cmd!r}")
        if answered is None:
            if wait is None:
                raise ProtocolError(
                    "protocol yielded neither wait nor compute")
            answered = yield wait
        event = answered


def drive_blocking(proto, port) -> str:
    """Run :func:`drive` to the end on the calling thread.

    Each yield is answered by the port's blocking calls: ``compute()``
    for :class:`~.commands.StartCompute`, ``wait(spec)`` for an
    :class:`~.commands.AwaitMessage`.  Returns the ``Done`` reason.
    """
    steps = drive(proto, port)
    event = None
    try:
        while True:
            request = steps.send(event)
            event = (port.compute() if isinstance(request, StartCompute)
                     else port.wait(request))
    except StopIteration as stop:
        return stop.value
