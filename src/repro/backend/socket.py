"""Real-TCP execution backend: the DLB protocol over sockets.

``SocketBackend`` runs the same pure state machines as every other
backend — :class:`~repro.protocol.worker.WorkerProtocol` in each worker,
:class:`~repro.protocol.balancer.BalancerProtocol` for the centralized
strategies — but its participants are genuine network peers: asyncio
TCP clients connected to a hub, exchanging the length-prefixed JSON
frames of :mod:`repro.message.frames` (documented byte-for-byte in
``docs/WIRE_PROTOCOL.md``).

Topology is a star.  The **hub** owns the listening socket, assigns
node ids at registration (HELLO/WELCOME), routes every worker↔worker
protocol message (MSG frames), hosts the balancer state machine
in-process for the centralized strategies, probes idle peers
(PING/PONG via :class:`~repro.faults.liveness.HeartbeatMonitor`), and
collects the run statistics from each worker's STAT stream.  A
**worker** is a small asyncio client: a reader task that sorts frames
into a mailbox, and a driver that pumps the protocol exactly like the
thread/process backends — compute is a wall-clock delay at iteration
granularity (the socket backend measures *protocol behavior over a
real transport*, not CPU speedup; see the backend map in
``docs/ARCHITECTURE.md``).

Elastic membership
------------------
Beyond the fixed rosters of the other backends, peers may come and go:

* **join** — a worker registering after the initial roster is admitted
  mid-run.  Centralized: the balancer's quorum grows immediately and
  the joiner's natural flow (empty assignment → "finished" → interrupt
  + profile) *is* the paper's §3.1 receiver-initiated sync, so the very
  next plan reshapes the iterations onto the new member set.
  Distributed: the hub broadcasts an epoch-fenced MEMBER announcement
  (effective epoch = latest profile epoch seen + 2) and existing
  members admit the joiner once their own epoch reaches the fence —
  per-stream TCP ordering guarantees nobody can complete the fenced
  epoch's gather without having seen the announcement first.
* **leave** — a planned departure (CTRL ``leave`` or the CLI's
  ``--leave-after``).  Honored at an iteration boundary: the worker
  ships everything still assigned back to the hub in a LEAVE frame and
  exits; the hub re-grants those ranges to a surviving group member
  (GRANT frame, applied at the receiver's next iteration boundary) and
  announces the departure as a *planned* DEATH.
* **crash** — a scheduled fail-stop (fault plan or CTRL ``die``) aborts
  the TCP connection; the hub's failure detector (EOF/reset, or
  heartbeat silence) broadcasts an *unplanned* DEATH and the hardened
  protocol reshapes exactly as on the process backend.

Exactly-once is preserved across all three: grants are issued at most
once, leaves happen only between iterations, and at completion the hub
salvages any coverage gap (crash orphans, grants dropped by a retiring
receiver) by re-executing it and crediting the lowest finished
survivor, then audits the merged coverage ledger.

The features this backend refuses (:class:`BackendError`) are listed in
:data:`~repro.backend.base.CAPABILITIES`.
"""

from __future__ import annotations

import asyncio
import os
import time
import traceback
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from ..apps.workload import LoopSpec, WorkTable
from ..core.redistribution import movement_estimator
from ..core.strategies.base import StrategySpec
from ..faults.liveness import HeartbeatMonitor
from ..faults.plan import FaultPlan
from ..machine.cluster import ClusterSpec, build_groups
from ..message.frames import (
    PROTOCOL_VERSION,
    FrameDecoder,
    FrameError,
    FrameType,
    encode_frame,
    ft_from_wire,
    ft_to_wire,
    message_from_wire,
    message_to_wire,
    policy_from_wire,
    policy_to_wire,
)
from ..message.messages import ControlMsg, Message, Tag
from ..obs.metrics import CounterDict, MetricsRegistry
from ..obs.trace import NULL_RECORDER, TraceRecorder
from ..protocol import (
    AwaitMessage,
    BalancerProtocol,
    Charge,
    ComputeDone,
    Done,
    Emit,
    LeaveRequested,
    MessageReceived,
    PeerDead,
    PeerJoined,
    PeerLeft,
    RecordSync,
    Send,
    Start,
    StartCompute,
    TimerFired,
    WorkerProtocol,
)
from ..protocol.driver import drive
from ..runtime.assignment import (
    Assignment,
    CoverageError,
    coverage_gaps,
    equal_block_partition,
    verify_coverage,
)
from ..runtime.options import FaultToleranceConfig, RunOptions
from ..runtime.stats import LoopRunStats, SyncRecord, environment_fingerprint
from .base import (
    BackendError,
    ExecutionBackend,
    StrategyLike,
    check_run,
    join_or_terminate,
    mp_context,
)

__all__ = ["SocketBackend", "JoinEvent", "LeaveEvent", "KillEvent",
           "run_worker"]

Range = tuple[int, int]

#: Safety net on every blocking wait, as in the thread/process backends.
WATCHDOG_SECONDS = 120.0

#: Exit code of a fail-stopped worker subprocess (same value as the
#: process backend's, so tooling treats scheduled crashes uniformly).
CRASH_EXIT_CODE = 17

#: Hub poll granularity (completion monitor, liveness loop).
POLL_SECONDS = 0.02

#: Grace between coverage completion and dismissing stragglers, and for
#: a terminal worker's last frames to drain.
DRAIN_GRACE_SECONDS = 2.0

#: Distributed join fence: the announcement becomes effective this many
#: epochs past the newest profile the hub has routed, so no member can
#: complete the fenced gather without having seen the MEMBER frame.
JOIN_EPOCH_SLACK = 2


# ---------------------------------------------------------------------------
# Script events (test/orchestration hooks fired by executed-iteration count).
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class JoinEvent:
    """Spawn one extra worker once ``after_iterations`` have executed."""

    after_iterations: int


@dataclass(frozen=True)
class LeaveEvent:
    """Ask ``node`` to depart (planned) after ``after_iterations``."""

    node: int
    after_iterations: int


@dataclass(frozen=True)
class KillEvent:
    """Fail-stop ``node`` (connection aborted) after ``after_iterations``.

    Unlike :class:`~repro.faults.plan.CrashFault` this may target node
    0: over sockets the balancer lives at the hub, not on a worker, so
    the paper's reliable-master assumption pins the *hub*, not node 0.
    """

    node: int
    after_iterations: int


class _AbruptStop(Exception):
    """Internal: a scheduled fail-stop fired on this worker."""


class _Dismissed(Exception):
    """Internal: the hub ended the run (BYE) while this worker waited."""


def _pairs(value) -> tuple[Range, ...]:
    return tuple((int(s), int(e)) for s, e in value or ())


# ---------------------------------------------------------------------------
# Worker client.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _ClientConfig:
    """One worker's run configuration, as decoded from WELCOME."""

    node: int
    members: tuple[int, ...]
    group: int
    centralized: bool
    lb_host: int
    policy: object
    table: WorkTable
    mean_iteration_time: float
    dc_bytes: int
    movement: Optional[tuple[float, float]]
    ft: FaultToleranceConfig
    profile_window_reset: bool
    ranges: tuple[Range, ...]
    is_dlb: bool
    epoch: int
    time_scale: float
    crash_at: Optional[float]
    leave_after: Optional[int]
    trace_events: bool


def _config_from_welcome(body: dict,
                         leave_after: Optional[int]) -> _ClientConfig:
    run = body["run"]
    it = run["iteration_time"]
    table = (WorkTable(float(it), int(run["n_iterations"]))
             if not isinstance(it, list) else WorkTable(it))
    movement = tuple(run["movement"]) if run.get("movement") else None
    return _ClientConfig(
        node=int(body["node"]),
        members=tuple(int(m) for m in run["members"]),
        group=int(run["group"]),
        centralized=bool(run["centralized"]),
        lb_host=int(run["lb_host"]),
        policy=policy_from_wire(run["policy"]),
        table=table,
        mean_iteration_time=float(run["mean_iteration_time"]),
        dc_bytes=int(run["dc_bytes"]),
        movement=movement,
        ft=ft_from_wire(run["ft"]),
        profile_window_reset=bool(run["profile_window_reset"]),
        ranges=_pairs(run["ranges"]),
        is_dlb=bool(run["is_dlb"]),
        epoch=int(run["epoch"]),
        time_scale=float(run["time_scale"]),
        crash_at=run.get("crash_at"),
        leave_after=leave_after,
        # Absent from a pre-tracing hub's WELCOME: default off.
        trace_events=bool(run.get("trace_events", False)))


class _ClientReporter:
    """Worker-side sink: writes frames, counts both measurement layers.

    ``messages``/``bytes``/``by_tag`` are the *modeled* counters (the
    paper's message economy, identical across backends); ``frames`` is
    the *transport* layer — bytes actually written per frame type,
    length prefix included.
    """

    def __init__(self, writer: asyncio.StreamWriter, me: int) -> None:
        self.writer = writer
        self.me = me
        self.messages = 0
        self.bytes = 0
        self.by_tag = CounterDict()
        self.retries = 0
        self.frames = CounterDict()
        self.executed_total = 0
        self.t0 = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self.t0

    def write(self, ftype: FrameType, body: Optional[dict] = None) -> None:
        data = encode_frame(ftype, body)
        self.frames.inc(ftype.name, len(data))
        if not self.writer.is_closing():
            self.writer.write(data)

    def send(self, msg: Message) -> None:
        self.messages += 1
        self.bytes += msg.nbytes
        self.by_tag.inc(msg.tag.value)
        self.write(FrameType.MSG, message_to_wire(msg))

    def send_leave(self, msg: ControlMsg) -> None:
        """The protocol's ``leave`` control rides a LEAVE frame."""
        self.messages += 1
        self.bytes += msg.nbytes
        self.by_tag.inc(msg.tag.value)
        self.write(FrameType.LEAVE, {
            "node": self.me,
            "ranges": [[s, e] for s, e in (msg.payload or ())]})

    # -- stats stream ----------------------------------------------------
    def executed(self, ranges: Sequence[Range]) -> None:
        self.executed_total += sum(e - s for s, e in ranges)
        self.write(FrameType.STAT,
                   {"k": "exec", "ranges": [[s, e] for s, e in ranges]})

    def finish(self, reason: str) -> None:
        self.write(FrameType.STAT, {
            "k": "finish", "reason": reason,
            "counters": {"messages": self.messages, "bytes": self.bytes,
                         "by_tag": dict(self.by_tag),
                         "retries": self.retries,
                         "frames": dict(self.frames)}})

    def error(self, text: str) -> None:
        self.write(FrameType.STAT, {"k": "error", "text": text})

    async def drain(self) -> None:
        try:
            await self.writer.drain()
        except (ConnectionError, OSError) as exc:
            raise _Dismissed() from exc


class _ClientMailbox:
    """Worker-side inbox: the reader task sorts frames in here.

    Protocol messages buffer until an :class:`AwaitMessage` matches;
    INTERRUPTs fold into per-epoch flags polled at iteration boundaries
    (the same contract as the other backends' mailboxes); DEATH notices
    pre-empt any wait; MEMBER announcements and GRANTs apply at epoch /
    iteration boundaries; resend requests are answered from the
    protocol caches without waking the driver's state machine.
    """

    def __init__(self) -> None:
        self.buffer: list[Message] = []
        self.interrupts: set[int] = set()
        self.notices: list[tuple[str, int]] = []   # ("dead"|"left", node)
        self.requests: list[ControlMsg] = []
        self.grants: list[tuple[Range, ...]] = []
        self.admits: list[tuple[int, int]] = []    # (node, effective epoch)
        self.leave = False
        self.die = False
        self.closed = False
        self.error_text: Optional[str] = None
        self.bye = asyncio.Event()
        self.wake = asyncio.Event()
        self.answer: Optional[Callable[[ControlMsg], None]] = None
        self.crash_due: Optional[Callable[[], bool]] = None

    # -- interrupt flags -------------------------------------------------
    def has_interrupt(self, epoch: int) -> bool:
        return epoch in self.interrupts

    def drain_interrupts(self, up_to_epoch: int) -> None:
        self.interrupts = {e for e in self.interrupts if e > up_to_epoch}

    # -- elastic bookkeeping ---------------------------------------------
    def pop_due_admit(self, epoch: int) -> Optional[int]:
        for i, (node, eff) in enumerate(self.admits):
            if epoch >= eff:
                self.admits.pop(i)
                return node
        return None

    def check_stop(self) -> None:
        if self.die or (self.crash_due is not None and self.crash_due()):
            raise _AbruptStop()

    # -- filtered receive ------------------------------------------------
    async def get(self, spec: AwaitMessage):
        """Next notice tuple or matching message; ``None`` on timeout."""
        deadline = time.perf_counter() + (
            spec.timeout if spec.timeout is not None else WATCHDOG_SECONDS)
        while True:
            self.check_stop()
            while self.requests and self.answer is not None:
                self.answer(self.requests.pop(0))
            if self.notices:
                return self.notices.pop(0)
            for i, msg in enumerate(self.buffer):
                if spec.matches(msg):
                    return self.buffer.pop(i)
            if self.bye.is_set():
                raise _Dismissed()
            if self.closed:
                raise BackendError(
                    "connection to the hub lost" +
                    (f": {self.error_text}" if self.error_text else ""))
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                if spec.timeout is None:
                    raise BackendError(
                        f"watchdog: no message matching {spec} within "
                        f"{WATCHDOG_SECONDS}s — the hub or a peer likely "
                        "died; see the first reported error")
                return None
            self.wake.clear()
            try:
                await asyncio.wait_for(self.wake.wait(),
                                       min(remaining, 0.05))
            except asyncio.TimeoutError:
                pass


async def _client_reader(mbox: _ClientMailbox, reporter: _ClientReporter,
                         reader: asyncio.StreamReader, dec: FrameDecoder,
                         pending: list) -> None:
    """Sort incoming frames into the mailbox until EOF."""
    def dispatch(ftype: FrameType, body: dict) -> None:
        if ftype is FrameType.MSG:
            msg = message_from_wire(body)
            if msg.tag is Tag.INTERRUPT:
                mbox.interrupts.add(msg.epoch)
            elif (msg.tag is Tag.CONTROL
                  and msg.kind in ("resend-profile", "resend-work")):
                mbox.requests.append(msg)
            else:
                mbox.buffer.append(msg)
        elif ftype is FrameType.PING:
            reporter.write(FrameType.PONG, {"t": body.get("t")})
        elif ftype is FrameType.MEMBER:
            mbox.admits.append((int(body["node"]), int(body["epoch"])))
        elif ftype is FrameType.DEATH:
            mbox.notices.append(
                ("left" if body.get("planned") else "dead",
                 int(body["node"])))
        elif ftype is FrameType.GRANT:
            mbox.grants.append(_pairs(body.get("ranges")))
        elif ftype is FrameType.CTRL:
            op = body.get("op")
            if op == "leave":
                mbox.leave = True
            elif op == "die":
                mbox.die = True
        elif ftype is FrameType.BYE:
            mbox.bye.set()
        elif ftype is FrameType.ERR:
            mbox.error_text = body.get("text")
            mbox.bye.set()
        # Unknown-to-this-role frames are ignored (forward compatibility).

    try:
        for ftype, body in pending:
            dispatch(ftype, body)
        mbox.wake.set()
        while True:
            chunk = await reader.read(65536)
            if not chunk:
                break
            for ftype, body in dec.feed(chunk):
                dispatch(ftype, body)
            mbox.wake.set()
    except (ConnectionError, OSError, FrameError):
        pass
    finally:
        mbox.closed = True
        mbox.bye.set()
        mbox.wake.set()


async def _client_burn(seconds: float, mbox: _ClientMailbox) -> None:
    """Wall-clock compute stand-in, sliced so fail-stops land mid-burn."""
    end = time.perf_counter() + seconds
    while True:
        remaining = end - time.perf_counter()
        if remaining <= 0:
            return
        mbox.check_stop()
        await asyncio.sleep(min(remaining, 0.02))


async def _client_compute(proto: WorkerProtocol, cfg: _ClientConfig,
                          mbox: _ClientMailbox, reporter: _ClientReporter,
                          rec=NULL_RECORDER) -> str:
    """Run the assignment an iteration at a time; all the elastic hooks
    (admits, grants, leave, fail-stop) apply at iteration boundaries."""
    mbox.drain_interrupts(proto.epoch - 1)
    while True:
        mbox.check_stop()
        while True:
            joiner = mbox.pop_due_admit(proto.epoch)
            if joiner is None:
                break
            proto.on_event(PeerJoined(joiner))
        while mbox.grants:
            granted = mbox.grants.pop(0)
            if granted:
                proto.assignment.add(granted)
        if mbox.leave or (cfg.leave_after is not None
                          and reporter.executed_total >= cfg.leave_after):
            return "leave"
        if proto.assignment.empty:
            return "finished"
        if proto.is_dlb and mbox.has_interrupt(proto.epoch):
            return "interrupted"
        taken = proto.assignment.take_head(1)
        start, _end = taken[0]
        cost = proto.table.range_work(start, start + 1)
        t0 = time.perf_counter()
        await _client_burn(cost * cfg.time_scale, mbox)
        mbox.check_stop()  # fail-stop before the iteration is recorded
        t1 = time.perf_counter()
        proto.note_busy(t1 - t0)
        rec.complete("compute", t0 - reporter.t0, t1 - t0,
                     track=f"node{cfg.node}", iteration=start)
        proto.note_work(cost)
        reporter.executed(taken)
        await reporter.drain()


def _answer_resend(proto: WorkerProtocol, reporter: _ClientReporter,
                   req: ControlMsg) -> None:
    """Serve a peer's recovery request from the protocol caches."""
    if req.kind == "resend-profile":
        reply = proto.profile_reply(req.epoch, req.src)
        if reply is not None:
            reporter.send(reply)
    else:
        reply = proto.work_reply(req.src, req.epoch)
        if reply is None:
            # We never owed this parcel (plan divergence): say so, at
            # the requester's epoch so its timed receive consumes it.
            reporter.send(proto.stamp(ControlMsg, dst=req.src,
                                      epoch=req.epoch, kind="no-work"))
        else:
            reporter.send(reply)


class _ClientPort:
    """The driver port of one socket worker (see
    :mod:`repro.protocol.driver`); :func:`drive_async` awaits its
    blocking calls."""

    def __init__(self, proto: WorkerProtocol, cfg: _ClientConfig,
                 mbox: _ClientMailbox, reporter: _ClientReporter,
                 rec=NULL_RECORDER) -> None:
        self.proto = proto
        self.cfg = cfg
        self.mbox = mbox
        self.reporter = reporter
        self.rec = rec

    def send(self, msg: Message) -> None:
        if isinstance(msg, ControlMsg) and msg.kind == "leave":
            self.reporter.send_leave(msg)
        else:
            self.reporter.send(msg)

    def record_sync(self, group: int, epoch: int, plan) -> None:
        record = SyncRecord.from_plan(self.reporter.now(), group, epoch,
                                      plan)
        self.reporter.write(FrameType.STAT, {
            "k": "sync", "group": group, "epoch": epoch,
            "row": record.to_row()})

    def declare_dead(self, peer: int) -> None:
        self.reporter.write(FrameType.STAT, {"k": "declared", "peer": peer})

    def emit(self, name: str, args: dict) -> None:
        self.rec.event(name, track=f"node{self.proto.me}", **args)

    def finish(self, reason: str) -> None:
        if self.rec.enabled:
            # Ship the trace buffer ahead of the finish record so the hub
            # merges it before the peer turns terminal.
            self.reporter.write(FrameType.TRACE,
                                {"node": self.proto.me,
                                 **self.rec.to_payload()})
        self.reporter.finish(reason)

    async def compute(self):
        status = await _client_compute(self.proto, self.cfg, self.mbox,
                                       self.reporter, self.rec)
        return LeaveRequested() if status == "leave" \
            else ComputeDone(status)

    async def wait(self, spec: AwaitMessage):
        """Due admits first, then death/leave notices, then a message."""
        joiner = self.mbox.pop_due_admit(self.proto.epoch)
        if joiner is not None:
            return PeerJoined(joiner)
        got = await self.mbox.get(spec)
        if got is None:
            self.reporter.retries += 1
            return TimerFired()
        if isinstance(got, tuple):
            kind, who = got
            return PeerDead(who) if kind == "dead" else PeerLeft(who)
        return MessageReceived(got)

    async def drain(self) -> None:
        await self.reporter.drain()

    async def bye(self) -> None:
        try:
            await asyncio.wait_for(self.mbox.bye.wait(), WATCHDOG_SECONDS)
        except asyncio.TimeoutError:
            pass


async def drive_async(proto, port) -> str:
    """Run :func:`~repro.protocol.driver.drive` on the event loop.

    The asyncio twin of :func:`~repro.protocol.driver.drive_blocking`:
    it awaits ``port.compute()`` / ``port.wait(spec)``, drains the
    writer before every wait, and after ``Done`` waits for the hub's
    BYE.  Returns the ``Done`` reason.
    """
    steps = drive(proto, port)
    event = None
    try:
        while True:
            request = steps.send(event)
            if isinstance(request, StartCompute):
                event = await port.compute()
            else:
                await port.drain()
                event = await port.wait(request)
    except StopIteration as stop:
        reason = stop.value
    await port.drain()
    await port.bye()
    return reason


async def _connect(host: str, port: int, *, attempts: int = 40,
                   delay: float = 0.25):
    """Dial the hub, retrying while it is still coming up."""
    last: Optional[Exception] = None
    for _ in range(max(1, attempts)):
        try:
            return await asyncio.open_connection(host, port)
        except (ConnectionError, OSError) as exc:
            last = exc
            await asyncio.sleep(delay)
    raise BackendError(f"cannot reach hub at {host}:{port}: {last}")


async def _run_client(host: str, port: int, *,
                      leave_after: Optional[int] = None) -> str:
    """One worker, HELLO to BYE.  Returns the terminal reason."""
    reader, writer = await _connect(host, port)
    dec = FrameDecoder()
    try:
        writer.write(encode_frame(FrameType.HELLO, {"v": PROTOCOL_VERSION}))
        await writer.drain()
        pending: list = []
        while not pending:
            chunk = await reader.read(65536)
            if not chunk:
                raise BackendError("hub closed the connection before "
                                   "answering HELLO")
            pending = list(dec.feed(chunk))
        ftype, body = pending.pop(0)
        if ftype is FrameType.BYE:
            return "dismissed"
        if ftype is FrameType.ERR:
            raise BackendError(
                f"hub refused registration: {body.get('text')}")
        if ftype is not FrameType.WELCOME:
            raise BackendError(f"expected WELCOME, got {ftype.name}")
        cfg = _config_from_welcome(body, leave_after)

        reporter = _ClientReporter(writer, cfg.node)
        # HELLO went out before the reporter existed; count it by hand.
        hello_len = len(encode_frame(FrameType.HELLO,
                                     {"v": PROTOCOL_VERSION}))
        reporter.frames[FrameType.HELLO.name] = hello_len
        mbox = _ClientMailbox()
        proto = WorkerProtocol(
            cfg.node, cfg.members, group=cfg.group,
            centralized=cfg.centralized, lb_host=cfg.lb_host,
            policy=cfg.policy, table=cfg.table,
            mean_iteration_time=cfg.mean_iteration_time,
            dc_bytes=cfg.dc_bytes,
            movement_cost_fn=movement_estimator(
                cfg.movement, cfg.dc_bytes, cfg.mean_iteration_time),
            ft=cfg.ft, profile_window_reset=cfg.profile_window_reset,
            assignment=Assignment(cfg.ranges), is_dlb=cfg.is_dlb,
            initial_epoch=cfg.epoch)
        mbox.answer = lambda req: _answer_resend(proto, reporter, req)
        proto.emit_trace = cfg.trace_events
        rec = (TraceRecorder(clock=reporter.now) if cfg.trace_events
               else NULL_RECORDER)
        if cfg.crash_at is not None:
            t0 = time.perf_counter()
            mbox.crash_due = \
                lambda: time.perf_counter() - t0 >= cfg.crash_at
        reader_task = asyncio.create_task(
            _client_reader(mbox, reporter, reader, dec, pending))
        try:
            return await drive_async(
                proto, _ClientPort(proto, cfg, mbox, reporter, rec))
        except _AbruptStop:
            writer.transport.abort()
            return "crashed"
        except _Dismissed:
            return "dismissed"
        finally:
            reader_task.cancel()
            try:
                await reader_task
            except (asyncio.CancelledError, Exception):
                pass
    finally:
        try:
            writer.close()
        except Exception:  # pragma: no cover - transport already aborted
            pass


def run_worker(host: str, port: int, *,
               leave_after: Optional[int] = None) -> str:
    """Blocking entry point for ``python -m repro worker``."""
    return asyncio.run(_run_client(host, port, leave_after=leave_after))


def _worker_proc_entry(host: str, port: int) -> None:
    """Subprocess entry (module-level so spawn contexts can import it)."""
    try:
        status = asyncio.run(_run_client(host, port))
    except BaseException:
        traceback.print_exc()
        os._exit(1)
    if status == "crashed":
        os._exit(CRASH_EXIT_CODE)


# ---------------------------------------------------------------------------
# Hub.
# ---------------------------------------------------------------------------
class _Peer:
    """Hub-side connection state of one registered worker."""

    __slots__ = ("node", "writer", "group", "status")

    def __init__(self, node: int, writer: asyncio.StreamWriter,
                 group: int) -> None:
        self.node = node
        self.writer = writer
        self.group = group
        #: "active" | "finished" | "departed" | "crashed" | "dismissed"
        self.status = "active"


class _Hub:
    """Listener, router, registrar, failure detector, stats collector."""

    def __init__(self, *, loop_spec: LoopSpec, table: WorkTable,
                 spec: StrategySpec, options: RunOptions,
                 ft: FaultToleranceConfig, groups: list[list[int]],
                 parts: Sequence[Assignment], time_scale: float,
                 crash_at: dict[int, float],
                 script: Sequence[object], stats: LoopRunStats,
                 strict: bool, recorder=NULL_RECORDER) -> None:
        self.loop_spec = loop_spec
        self.table = table
        self.spec = spec
        self.options = options
        self.ft = ft
        self.time_scale = time_scale
        self.crash_at = dict(crash_at)
        self.script = list(script)
        self.stats = stats
        self.strict = strict
        self.recorder = recorder

        self.n = sum(len(g) for g in groups)
        self.group_members = {g: list(m) for g, m in enumerate(groups)}
        self.group_of = {node: g for g, members in enumerate(groups)
                         for node in members}
        self.centralized = bool(spec.is_dlb and spec.centralized)
        self.parts = [tuple(p.ranges) for p in parts]
        self.balancer: Optional[BalancerProtocol] = None
        if self.centralized:
            movement = None
            if options.policy.include_movement_cost:
                movement = (options.network.latency,
                            options.network.bandwidth)
            self.balancer = BalancerProtocol(
                0, [list(g) for g in groups], policy=options.policy,
                mean_iteration_time=table.total_work / table.n,
                movement_cost_fn=movement_estimator(
                    movement, 0, table.total_work / table.n),
                ft=ft)
            self.balancer.emit_trace = recorder.enabled
        self.bal_done = not self.centralized

        self.peers: dict[int, _Peer] = {}
        self.frames = CounterDict()
        self.expected_crashes: set[int] = set(self.crash_at)
        self.declared: set[int] = set()
        self.crashed: list[int] = []
        self.left: list[int] = []
        self.joined: list[int] = []
        self.group_profile_epoch: dict[int, int] = {}
        self.exec_total = 0
        self.errors: list[str] = []
        self.done = asyncio.Event()
        self.spawner: Optional[Callable[[], None]] = None
        self.monitor = HeartbeatMonitor.from_ft(ft) if ft.enabled else None
        self._fired: set[int] = set()
        self._next_initial = 0
        self._next_node = self.n
        self._server: Optional[asyncio.AbstractServer] = None
        self._t0 = time.perf_counter()

    # -- lifecycle -------------------------------------------------------
    async def start(self, host: str, port: int) -> int:
        self._server = await asyncio.start_server(self._serve_conn,
                                                  host, port)
        self._t0 = time.perf_counter()
        if self.recorder.enabled:
            # Clock rebinds before the first balancer event so every
            # hub-side trace timestamp is hub-relative seconds.
            self.recorder.set_clock(self.now)
        if self.balancer is not None:
            self._run_balancer_cmds(self.balancer.on_event(Start()))
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    def now(self) -> float:
        return time.perf_counter() - self._t0

    # -- frame output ----------------------------------------------------
    def _write(self, peer: _Peer, ftype: FrameType,
               body: Optional[dict] = None) -> None:
        if peer.writer.is_closing():
            return
        data = encode_frame(ftype, body)
        self.frames.inc(ftype.name, len(data))
        try:
            peer.writer.write(data)
        except (ConnectionError, RuntimeError, OSError):
            pass

    # -- registration ----------------------------------------------------
    def _welcome_body(self, node: int, gid: int,
                      ranges: tuple[Range, ...], epoch: int,
                      members: Sequence[int]) -> dict:
        movement = None
        if self.options.policy.include_movement_cost:
            movement = [self.options.network.latency,
                        self.options.network.bandwidth]
        it = self.loop_spec.iteration_time
        return {"v": PROTOCOL_VERSION, "node": node, "run": {
            "members": sorted(members),
            "group": gid,
            "centralized": self.centralized,
            "lb_host": 0,
            "policy": policy_to_wire(self.options.policy),
            "n_iterations": self.loop_spec.n_iterations,
            "iteration_time": (float(it) if not isinstance(it, tuple)
                               else list(it)),
            "dc_bytes": self.loop_spec.dc_bytes,
            "mean_iteration_time": self.table.total_work / self.table.n,
            "movement": movement,
            "ft": ft_to_wire(self.ft),
            "profile_window_reset": self.options.profile_window_reset,
            "ranges": [[s, e] for s, e in ranges],
            "is_dlb": bool(self.spec.is_dlb),
            "epoch": epoch,
            "time_scale": self.time_scale,
            "crash_at": self.crash_at.get(node),
            "trace_events": self.recorder.enabled}}

    def _active_members(self, gid: int) -> list[int]:
        out = []
        for node in self.group_members.get(gid, []):
            peer = self.peers.get(node)
            if peer is None:
                out.append(node)  # expected but not yet connected
            elif peer.status == "active":
                out.append(node)
        return out

    def _register(self, hello: dict):
        """Assign a node id; returns (node, gid, ranges, epoch) or an
        ERR/BYE marker string."""
        if int(hello.get("v", -1)) != PROTOCOL_VERSION:
            return "version"
        if self.done.is_set():
            return "over"
        if self._next_initial < self.n:
            node = self._next_initial
            self._next_initial += 1
            gid = self.group_of[node]
            return (node, gid, self.parts[node], 0,
                    self.group_members[gid])
        # Elastic join: new node id, group 0 by convention.
        node = self._next_node
        self._next_node += 1
        gid = 0
        if self.balancer is not None:
            try:
                self._run_balancer_cmds(
                    self.balancer.on_event(PeerJoined(node, gid)))
            except Exception:
                return "over"
            epoch = self.balancer.group_epoch.get(gid, 0)
            members = sorted(self.balancer.group_active[gid] | {node})
        else:
            epoch = self.group_profile_epoch.get(gid, 0) + JOIN_EPOCH_SLACK
            members = sorted(set(self._active_members(gid)) | {node})
            for other in self._active_members(gid):
                peer = self.peers.get(other)
                if peer is not None:
                    self._write(peer, FrameType.MEMBER,
                                {"node": node, "epoch": epoch})
        self.group_members.setdefault(gid, []).append(node)
        self.group_of[node] = gid
        self.joined.append(node)
        return (node, gid, (), epoch, members)

    async def _serve_conn(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        peer: Optional[_Peer] = None
        dec = FrameDecoder()
        try:
            pending: list = []
            while not pending:
                chunk = await reader.read(65536)
                if not chunk:
                    return
                pending = list(dec.feed(chunk))
            ftype, body = pending.pop(0)
            if ftype is not FrameType.HELLO:
                writer.write(encode_frame(
                    FrameType.ERR, {"text": f"expected HELLO, "
                                            f"got {ftype.name}"}))
                await writer.drain()
                return
            assigned = self._register(body)
            if assigned == "version":
                writer.write(encode_frame(FrameType.ERR, {
                    "text": f"protocol version {body.get('v')!r} "
                            f"unsupported (hub speaks "
                            f"{PROTOCOL_VERSION})"}))
                await writer.drain()
                return
            if assigned == "over":
                writer.write(encode_frame(FrameType.BYE))
                await writer.drain()
                return
            node, gid, ranges, epoch, members = assigned
            peer = _Peer(node, writer, gid)
            self.peers[node] = peer
            if self.monitor is not None:
                self.monitor.watch(node, time.perf_counter())
            self._write(peer, FrameType.WELCOME,
                        self._welcome_body(node, gid, tuple(ranges),
                                           epoch, members))
            for ftype, body in pending:  # pipelined after HELLO
                self._on_frame(peer, ftype, body)
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                for ftype, body in dec.feed(chunk):
                    self._on_frame(peer, ftype, body)
        except asyncio.CancelledError:
            # Event-loop teardown at run end: the run is already over,
            # so a cancelled handler is not a peer failure.
            return
        except (ConnectionError, OSError):
            pass
        except FrameError as exc:
            if peer is not None:
                self._write(peer, FrameType.ERR, {"text": str(exc)})
        finally:
            if peer is not None and peer.status == "active":
                # EOF/reset while active: the kernel's failure signal.
                self._mark_crashed(peer,
                                   expected=peer.node
                                   in self.expected_crashes)
            try:
                writer.close()
            except Exception:  # pragma: no cover
                pass

    # -- frame input -----------------------------------------------------
    def _on_frame(self, peer: _Peer, ftype: FrameType, body: dict) -> None:
        if self.monitor is not None:
            self.monitor.note_alive(peer.node, time.perf_counter())
        if ftype is FrameType.MSG:
            self._route(peer, body)
        elif ftype is FrameType.PONG:
            pass  # note_alive above is the whole point
        elif ftype is FrameType.LEAVE:
            self._on_leave(peer, body)
        elif ftype is FrameType.STAT:
            self._on_stat(peer, body)
        elif ftype is FrameType.TRACE:
            # Only sent when our WELCOME asked for it; merge the worker's
            # ring buffer into the hub's run-wide recorder.
            self.recorder.merge_payload(body)
        elif ftype is FrameType.ERR:
            self.errors.append(
                f"worker {peer.node} reported: {body.get('text')}")
        # Unknown-to-this-role frames are ignored (forward compatibility).

    def _route(self, peer: _Peer, body: dict) -> None:
        try:
            dst = int(body["dst"])
            tag = body.get("tag")
            epoch = int(body.get("epoch", 0))
        except (KeyError, TypeError, ValueError):
            self.errors.append(f"malformed MSG frame from {peer.node}")
            return
        if tag == "profile":
            gid = self.group_of.get(int(body.get("src", peer.node)),
                                    peer.group)
            self.group_profile_epoch[gid] = max(
                self.group_profile_epoch.get(gid, 0), epoch)
        if self.balancer is not None and tag == "profile" and dst == 0:
            # Centralized strategies: profiles addressed to the lb host
            # feed the hub-resident balancer, as on the other backends.
            try:
                msg = message_from_wire(body)
            except FrameError as exc:
                self.errors.append(
                    f"undecodable profile from {peer.node}: {exc}")
                return
            self._run_balancer_cmds(
                self.balancer.on_event(MessageReceived(msg)))
            return
        target = self.peers.get(dst)
        if target is not None and target.status == "active":
            self._write(target, FrameType.MSG, body)
        # Traffic to terminal/unknown peers is stale; drop it.

    def _run_balancer_cmds(self, cmds) -> None:
        for cmd in cmds:
            if isinstance(cmd, Send):
                msg = cmd.msg
                self.stats.network_messages += 1
                self.stats.network_bytes += msg.nbytes
                self.stats.messages_by_tag.inc(msg.tag.value)
                target = self.peers.get(msg.dst)
                if target is not None and target.status == "active":
                    self._write(target, FrameType.MSG,
                                message_to_wire(msg))
            elif isinstance(cmd, RecordSync):
                self._record_sync(SyncRecord.from_plan(
                    self.now(), cmd.group, cmd.epoch, cmd.plan))
            elif isinstance(cmd, Emit):
                self.recorder.event(cmd.name, track="balancer",
                                    **cmd.args())
            elif isinstance(cmd, (AwaitMessage, Charge)):
                pass  # the hub is event-driven; planning costs real time
            elif isinstance(cmd, Done):
                self.bal_done = True
            else:  # pragma: no cover - defensive
                raise BackendError(f"unhandled balancer command {cmd!r}")

    def _record_sync(self, record: SyncRecord) -> None:
        if self.options.trace:
            self.stats.record_sync_once(record)

    def _on_stat(self, peer: _Peer, body: dict) -> None:
        kind = body.get("k")
        if kind == "exec":
            ranges = _pairs(body.get("ranges"))
            self.stats.executed_by_node.setdefault(
                peer.node, []).extend(ranges)
            self.exec_total += sum(e - s for s, e in ranges)
            self._fire_script()
        elif kind == "sync":
            self._record_sync(SyncRecord.from_row(
                body["group"], body["epoch"], body["row"]))
        elif kind == "declared":
            self.declared.add(int(body["peer"]))
        elif kind == "finish":
            was_active = peer.status == "active"
            if was_active:
                peer.status = "finished"
            self.stats.node_finish_times[peer.node] = self.now()
            counters = body.get("counters", {})
            self.stats.network_messages += counters.get("messages", 0)
            self.stats.network_bytes += counters.get("bytes", 0)
            self.stats.fault_retries += counters.get("retries", 0)
            self.stats.messages_by_tag.merge(counters.get("by_tag", {}))
            self.frames.merge(counters.get("frames", {}))
            if was_active:
                if self.monitor is not None:
                    self.monitor.forget(peer.node)
                # A retired peer can no longer answer profiles: announce
                # it so late joiners never gather on it.  (Live peers
                # already learned the retirement from the plan's active
                # set; a leaver/crasher was announced at that event.)
                self._broadcast_death(peer.node, planned=True)
        elif kind == "error":
            self.errors.append(
                f"worker {peer.node} failed:\n{body.get('text')}")
        else:
            self.errors.append(
                f"unknown stats record {body!r} from {peer.node}")

    # -- membership transitions ------------------------------------------
    def _broadcast_death(self, node: int, *, planned: bool) -> None:
        for other in self.peers.values():
            if other.node != node and other.status == "active":
                self._write(other, FrameType.DEATH,
                            {"node": node, "planned": planned})

    def _on_leave(self, peer: _Peer, body: dict) -> None:
        if peer.status != "active":
            return
        peer.status = "departed"
        self.left.append(peer.node)
        if self.monitor is not None:
            self.monitor.forget(peer.node)
        self._broadcast_death(peer.node, planned=True)
        if self.balancer is not None:
            self._run_balancer_cmds(
                self.balancer.on_event(PeerLeft(peer.node)))
        ranges = _pairs(body.get("ranges"))
        if ranges:
            self._grant(peer, ranges)

    def _grant(self, leaver: _Peer, ranges: tuple[Range, ...]) -> None:
        """Re-grant a departed worker's residual ranges — exactly once.

        Lowest active node in the leaver's group, else lowest active
        anywhere, else nobody (the end-of-run salvage covers the gap).
        """
        same_group = [p.node for p in self.peers.values()
                      if p.status == "active" and p.group == leaver.group]
        anyone = [p.node for p in self.peers.values()
                  if p.status == "active"]
        pool = same_group or anyone
        if not pool:
            return
        target = self.peers[min(pool)]
        self._write(target, FrameType.GRANT,
                    {"ranges": [[s, e] for s, e in ranges]})

    def _mark_crashed(self, peer: _Peer, *, expected: bool) -> None:
        if peer.status != "active":
            return
        peer.status = "crashed"
        self.crashed.append(peer.node)
        # A crashed worker never ships its TRACE frame: mark the loss
        # explicitly instead of letting the gap pass silently.
        self.recorder.event("trace_truncated", track=f"node{peer.node}",
                            reason="crashed")
        if self.monitor is not None:
            self.monitor.forget(peer.node)
        if not expected and self.strict:
            self.errors.append(
                f"worker {peer.node} disconnected outside the fault plan")
        self._broadcast_death(peer.node, planned=False)
        if self.balancer is not None:
            self._run_balancer_cmds(
                self.balancer.on_event(PeerDead(peer.node)))

    # -- scripted orchestration ------------------------------------------
    def _fire_script(self) -> None:
        for event in self.script:
            if id(event) in self._fired:
                continue
            if self.exec_total < event.after_iterations:
                continue
            self._fired.add(id(event))
            if isinstance(event, JoinEvent):
                if self.spawner is not None:
                    self.spawner()
            elif isinstance(event, LeaveEvent):
                peer = self.peers.get(event.node)
                if peer is not None and peer.status == "active":
                    self._write(peer, FrameType.CTRL, {"op": "leave"})
            elif isinstance(event, KillEvent):
                peer = self.peers.get(event.node)
                if peer is not None and peer.status == "active":
                    self.expected_crashes.add(event.node)
                    self._write(peer, FrameType.CTRL, {"op": "die"})

    # -- background tasks ------------------------------------------------
    async def run_liveness(self) -> None:
        assert self.monitor is not None
        while not self.done.is_set():
            await asyncio.sleep(max(self.monitor.interval / 2.0,
                                    POLL_SECONDS))
            now = time.perf_counter()
            for node in self.monitor.due_probes(now):
                peer = self.peers.get(node)
                if peer is not None and peer.status == "active":
                    self._write(peer, FrameType.PING,
                                {"t": round(self.now(), 6)})
            for node in self.monitor.overdue(now):
                peer = self.peers.get(node)
                if peer is not None:
                    self._mark_crashed(
                        peer, expected=node in self.expected_crashes)

    def _coverage_complete(self) -> Optional[bool]:
        """True when every iteration is covered; None on overlap."""
        try:
            return not coverage_gaps(self.stats.executed_by_node,
                                     self.loop_spec.n_iterations)
        except CoverageError as exc:
            self.errors.append(str(exc))
            return None

    async def run_completion(self) -> None:
        """Declare the run over; dismiss stragglers once coverage holds."""
        deadline = time.perf_counter() + WATCHDOG_SECONDS * 2
        grace_start: Optional[float] = None
        while True:
            await asyncio.sleep(POLL_SECONDS)
            if self.errors:
                break
            started = self._next_initial >= self.n
            active = [p for p in self.peers.values()
                      if p.status == "active"]
            if started and not active and (
                    self.bal_done
                    or (self.balancer is not None
                        and self.balancer.all_done)):
                break
            if started and active:
                covered = self._coverage_complete()
                if covered is None:
                    break
                if covered:
                    now = time.perf_counter()
                    if grace_start is None:
                        grace_start = now
                    elif now - grace_start >= DRAIN_GRACE_SECONDS:
                        # Every iteration is accounted for; whoever is
                        # still waiting (e.g. a joiner whose fence was
                        # never reached) is no longer needed.
                        for peer in active:
                            peer.status = "dismissed"
                            self.recorder.event(
                                "trace_truncated",
                                track=f"node{peer.node}",
                                reason="dismissed")
                            self._write(peer, FrameType.BYE)
                        break
                else:
                    grace_start = None
            if time.perf_counter() > deadline:
                self.errors.append(
                    "hub watchdog: run never completed "
                    f"(active={[p.node for p in active]})")
                break
        await self._finish_run()
        self.done.set()

    async def _finish_run(self) -> None:
        self.stats.salvaged_iterations = await self._salvage()
        for peer in self.peers.values():
            self._write(peer, FrameType.BYE)
        for peer in self.peers.values():
            try:
                await peer.writer.drain()
            except (ConnectionError, OSError):
                pass
        self.stats.end_time = self.now()
        self.stats.crashed_nodes = tuple(sorted(self.crashed))
        self.stats.declared_dead = tuple(sorted(self.declared))
        self.stats.joined_nodes = tuple(sorted(self.joined))
        self.stats.left_nodes = tuple(sorted(self.left))
        self.stats.payload_by_frame = dict(sorted(self.frames.items()))
        self.stats.transport_payload_bytes = sum(self.frames.values())
        if not self.errors:
            try:
                verify_coverage(self.stats.executed_by_node,
                                self.loop_spec.n_iterations)
            except CoverageError as exc:
                self.errors.append(str(exc))

    async def _salvage(self) -> int:
        """Re-execute orphaned iterations; credit the lowest survivor."""
        if self.errors:
            return 0
        try:
            orphans = coverage_gaps(self.stats.executed_by_node,
                                    self.loop_spec.n_iterations)
        except CoverageError as exc:
            self.errors.append(str(exc))
            return 0
        if not orphans:
            return 0
        survivors = [p.node for p in self.peers.values()
                     if p.status == "finished"] or \
                    [p.node for p in self.peers.values()
                     if p.status != "crashed"]
        if not survivors:
            self.errors.append(
                f"orphaned iterations {orphans} with no survivor "
                "to credit")
            return 0
        survivor = min(survivors)
        count = 0
        for start, end in orphans:
            work = self.table.range_work(start, end)
            await asyncio.sleep(work * self.time_scale)
            count += end - start
        self.stats.executed_by_node.setdefault(
            survivor, []).extend(orphans)
        return count


# ---------------------------------------------------------------------------
# The backend proper.
# ---------------------------------------------------------------------------
class SocketBackend(ExecutionBackend):
    """Execute the DLB protocol over real TCP sockets (localhost hub)."""

    name = "socket"

    def __init__(self, *, time_scale: float = 1.0,
                 workers: str = "tasks",
                 start_method: Optional[str] = None,
                 host: str = "127.0.0.1",
                 script: Sequence[object] = ()) -> None:
        if time_scale <= 0:
            raise BackendError("time_scale must be positive")
        if workers not in ("tasks", "procs"):
            raise BackendError(
                f"workers must be 'tasks' or 'procs', not {workers!r}")
        self.time_scale = time_scale
        self.workers = workers
        self.start_method = start_method
        self.host = host
        #: Membership script: JoinEvent / LeaveEvent / KillEvent, fired
        #: by cumulative executed-iteration count.
        self.script = tuple(script)

    # -- entry points ----------------------------------------------------
    def run_loop(self, loop: LoopSpec, cluster: ClusterSpec,
                 strategy: StrategyLike,
                 options: Optional[RunOptions] = None,
                 selector: Optional[Callable] = None,
                 fault_plan: Optional[FaultPlan] = None) -> LoopRunStats:
        hub, stats = self._prepare(loop, cluster, strategy, options,
                                   selector, fault_plan, strict=True)
        procs: list = []
        try:
            asyncio.run(self._run_async(hub, procs))
        finally:
            if procs:
                join_or_terminate(procs, timeout=5.0,
                                  terminate=lambda p: p.terminate(),
                                  kill=lambda p: p.kill())
        if hub.errors:
            raise BackendError("; ".join(hub.errors))
        return stats

    def serve(self, loop: LoopSpec, cluster: ClusterSpec,
              strategy: StrategyLike,
              options: Optional[RunOptions] = None,
              fault_plan: Optional[FaultPlan] = None, *,
              port: int = 7070,
              on_ready: Optional[Callable[[int], None]] = None
              ) -> LoopRunStats:
        """Balancer mode for the CLI: listen and wait for real workers.

        No workers are spawned — they connect from other terminals (or
        hosts) via ``python -m repro worker``.  Unexpected disconnects
        are tolerated (marked crashed, salvaged), not errors.
        """
        hub, stats = self._prepare(loop, cluster, strategy, options,
                                   None, fault_plan, strict=False)
        asyncio.run(self._serve_async(hub, port, on_ready))
        if hub.errors:
            raise BackendError("; ".join(hub.errors))
        return stats

    def _prepare(self, loop: LoopSpec, cluster: ClusterSpec,
                 strategy: StrategyLike, options: Optional[RunOptions],
                 selector, fault_plan: Optional[FaultPlan],
                 *, strict: bool) -> tuple[_Hub, LoopRunStats]:
        n = cluster.n_processors
        spec, options, fault_plan = check_run(self.name, strategy, n, options,
                                              selector, fault_plan)
        ft = options.fault_tolerance
        if any(isinstance(ev, KillEvent) for ev in self.script):
            ft = replace(ft, enabled=True)

        table = loop.work_table()
        k = options.effective_group_size(n, spec.group_size)
        if spec.global_scope or not spec.is_dlb:
            groups: list[list[int]] = [list(range(n))]
        else:
            groups = build_groups(n, k, formation=options.group_formation,
                                  seed=options.group_seed)
        stats = LoopRunStats(loop_name=loop.name, strategy=spec.name,
                             n_processors=n, group_size=k,
                             backend=self.name)
        registry = MetricsRegistry()
        # The stats field holds the registry's own storage: every bump
        # through the registry is immediately visible in the stats.
        stats.messages_by_tag = registry.counter("messages_by_tag")
        stats.environment = environment_fingerprint(workers=self.workers)
        recorder = options.recorder or NULL_RECORDER
        parts = equal_block_partition(loop.n_iterations, n)
        crash_at = {c.node: c.time * self.time_scale
                    for c in fault_plan.crashes} if fault_plan else {}
        hub = _Hub(loop_spec=loop, table=table, spec=spec,
                   options=options, ft=ft, groups=groups, parts=parts,
                   time_scale=self.time_scale, crash_at=crash_at,
                   script=self.script, stats=stats, strict=strict,
                   recorder=recorder)
        return hub, stats

    async def _run_async(self, hub: _Hub, procs: list) -> None:
        port = await hub.start(self.host, 0)
        worker_tasks: list[asyncio.Task] = []
        ctx = (mp_context(self.start_method) if self.workers == "procs"
               else None)

        def spawn() -> None:
            if ctx is not None:
                p = ctx.Process(target=_worker_proc_entry,
                                args=(self.host, port),
                                name=f"dlb-sock{len(procs)}", daemon=True)
                procs.append(p)
                p.start()
            else:
                worker_tasks.append(asyncio.create_task(
                    _run_client(self.host, port)))

        hub.spawner = spawn
        for _ in range(hub.n):
            spawn()
        background = [asyncio.create_task(hub.run_completion())]
        if hub.monitor is not None:
            background.append(asyncio.create_task(hub.run_liveness()))
        try:
            await asyncio.wait_for(hub.done.wait(),
                                   WATCHDOG_SECONDS * 2 + 30.0)
        except asyncio.TimeoutError:
            hub.errors.append("hub watchdog: completion monitor stalled")
        finally:
            for task in background:
                task.cancel()
            await hub.close()
            if worker_tasks:
                done, still = await asyncio.wait(worker_tasks, timeout=5.0)
                for task in still:
                    task.cancel()
                for task in done:
                    exc = task.exception()
                    if exc is not None and not isinstance(
                            exc, (_AbruptStop, _Dismissed)):
                        hub.errors.append(
                            f"worker task failed: {exc!r}")

    async def _serve_async(self, hub: _Hub, port: int,
                           on_ready: Optional[Callable[[int], None]]
                           ) -> None:
        bound = await hub.start(self.host, port)
        if on_ready is not None:
            on_ready(bound)
        background = [asyncio.create_task(hub.run_completion())]
        if hub.monitor is not None:
            background.append(asyncio.create_task(hub.run_liveness()))
        try:
            await asyncio.wait_for(hub.done.wait(),
                                   WATCHDOG_SECONDS * 4)
        except asyncio.TimeoutError:
            hub.errors.append("hub watchdog: no run completed")
        finally:
            for task in background:
                task.cancel()
            await hub.close()
