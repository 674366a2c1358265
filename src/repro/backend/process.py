"""True-parallel execution backend: one OS process per worker.

``ProcessBackend`` drives the same protocol state machines as the
simulator and :class:`~repro.backend.thread.ThreadBackend` —
:class:`~repro.protocol.worker.WorkerProtocol` in each worker process,
:class:`~repro.protocol.balancer.BalancerProtocol` in a dedicated
balancer process — but interprets their commands against genuinely
parallel hardware:

* **clock** — ``time.perf_counter()`` (CLOCK_MONOTONIC: comparable
  across processes on every supported platform), measured from a common
  origin the parent stamps just before forking;
* **timers** — bounded ``Queue.get`` polls, so fault-tolerance
  timeouts and crash schedules fire even while blocked;
* **transport** — one ``multiprocessing`` queue per participant.
  Control traffic (profiles, instructions, interrupts, work *orders*)
  crosses the pipe pickled; iteration **data** does not — see below;
* **compute** — calibrated CPU-burn op kernels
  (:mod:`~repro.backend.kernels`): each iteration executes a fixed
  number of floating-point operations, so — unlike GIL-sharing threads
  — P workers on a P-core host really do run P× as much arithmetic per
  wall second.

Data movement over shared memory
--------------------------------
The paper's §4 cost model charges redistribution for moving each
iteration's ``DC`` bytes of array data.  Here the whole iteration-data
array lives in one ``multiprocessing.shared_memory`` block (one
``dc_bytes`` row per iteration) that every worker maps.  A
redistribution ships only a :class:`~repro.message.messages.WorkMsg`
with *iteration ranges* — offsets into the block — while the rows
themselves never touch a pipe.  Both sides are measured:
``LoopRunStats.transport_payload_bytes`` counts the bytes actually
pickled onto queues and ``LoopRunStats.shm_data_bytes`` the iteration
data that moved by remapping instead of copying.  After every run the
parent audits the block: each executed iteration's row must carry the
stamp of exactly the node the coverage ledger credits.

Fault injection
---------------
Crash faults from a :class:`~repro.faults.plan.FaultPlan` are *lifted*
(ThreadBackend rejects them): the victim process fail-stops via
``os._exit`` once its wall clock passes ``time * time_scale`` — also
mid-iteration, between op chunks — so it reports nothing further.  The
parent detects the distinctive exit code, broadcasts peer-death notices
(the backend's failure detector), and the surviving workers' hardened
protocol (timed receives, resends, death declarations) reshapes the
group exactly as on the other backends.  Iterations the victim executed
but never reported — and those still in its assignment — are salvaged:
re-executed by the parent and credited to the lowest-numbered survivor,
so exactly-once coverage holds for every crash plan.

The features this backend refuses (:class:`BackendError`) are listed in
:data:`~repro.backend.base.CAPABILITIES`.
"""

from __future__ import annotations

import os
import pickle
import queue as queue_mod
import struct
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..apps.workload import LoopSpec, WorkTable
from ..core.policy import DlbPolicy
from ..core.redistribution import movement_estimator
from ..faults.plan import FaultPlan
from ..machine.cluster import ClusterSpec, build_groups
from ..message.messages import Message, Tag
from ..protocol import (
    AwaitMessage,
    BalancerProtocol,
    ComputeDone,
    MessageReceived,
    PeerDead,
    TimerFired,
    WorkerProtocol,
)
from ..obs.metrics import CounterDict, MetricsRegistry
from ..obs.trace import NULL_RECORDER, TraceRecorder
from ..protocol.driver import drive_blocking
from ..runtime.assignment import (
    Assignment,
    coverage_gaps,
    equal_block_partition,
    merge_ranges,
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
from .kernels import (
    HAVE_NUMPY,
    burn_ops,
    burn_vec,
    calibrate_ops_rate,
    calibrate_vec_rate,
    shm_row_view,
)

__all__ = ["ProcessBackend"]

Range = tuple[int, int]

#: Safety net on every blocking wait, as in the thread backend.
WATCHDOG_SECONDS = 120.0

#: Exit code of a fault-injected fail-stop; distinguishes a scheduled
#: crash from a worker that died of a bug.
CRASH_EXIT_CODE = 17

#: Bytes of the per-iteration ownership stamp at the head of each row.
STAMP_BYTES = 8

#: Parent poll granularity while supervising children.
POLL_SECONDS = 0.02

#: Grace for a dead child's last queue records to drain before the
#: parent gives up waiting for an explanation.
DRAIN_GRACE_SECONDS = 2.0


@dataclass(frozen=True)
class _PeerDeadNotice:
    """Parent-injected failure notice, delivered through a mailbox."""

    node: int


@dataclass(frozen=True)
class _WorkerConfig:
    """Everything one worker process needs, in picklable form.

    Protocol objects are built *inside* the child from this config, so
    nothing with lambdas or thread state ever crosses the spawn
    boundary.
    """

    node: int
    members: tuple[int, ...]
    group: int
    centralized: bool
    lb_host: int
    policy: DlbPolicy
    table: WorkTable
    mean_iteration_time: float
    dc_bytes: int
    movement: Optional[tuple[float, float]]  # (latency, bandwidth)
    ft: FaultToleranceConfig
    profile_window_reset: bool
    ranges: tuple[Range, ...]
    is_dlb: bool
    time_scale: float
    kernel: str  # "ops" (scalar burn) or "numpy" (vectorized, in-row)
    ops_rate: float  # calibrated rate of the chosen kernel
    shm_name: Optional[str]
    row_bytes: int
    crash_at: Optional[float]  # wall seconds after t0; None = reliable
    stream_records: bool  # per-iteration exec records (fault runs)
    fail_after: Optional[int]  # test hook: raise after N iterations
    trace_events: bool  # build a child TraceRecorder; ship it at exit


@dataclass(frozen=True)
class _BalancerConfig:
    """Picklable constructor arguments of the balancer process."""

    host: int
    groups: tuple[tuple[int, ...], ...]
    policy: DlbPolicy
    mean_iteration_time: float
    movement: Optional[tuple[float, float]]
    ft: FaultToleranceConfig
    trace_events: bool


class _CrashClock:
    """The child-local realization of a scheduled fail-stop.

    ``queues`` are every queue the child may put to.  A queue's feeder
    thread holds the queue's cross-process write lock while it writes,
    and a process that exits in that moment leaves the lock held, so
    every later writer (the peers, the parent's death notices) blocks
    forever.  The crash therefore waits for the feeders to finish what
    was already sent before the process stops.
    """

    def __init__(self, crash_at: Optional[float], t0: float,
                 queues: Sequence = ()) -> None:
        self.crash_at = crash_at
        self.t0 = t0
        self.queues = queues

    @property
    def armed(self) -> bool:
        return self.crash_at is not None

    def due(self) -> bool:
        return (self.crash_at is not None
                and time.perf_counter() - self.t0 >= self.crash_at)

    def check(self) -> None:
        """Fail-stop right now if the schedule says so."""
        if self.due():
            for q in self.queues:
                q.close()
                q.join_thread()
            os._exit(CRASH_EXIT_CODE)


def _attach_shm(name: str):
    """Attach to a named shared-memory block without tracker handover.

    A child that merely *attaches* must not let its resource tracker
    unlink the block when the child exits; only the creating parent
    unlinks.  Under ``fork`` the child shares the parent's tracker
    process, whose registry is a set — the duplicate register from the
    attach collapses and nothing need be done (unregistering here would
    strip the *parent's* entry).  Under ``spawn``/``forkserver`` the
    attach spins up a child-owned tracker that would unlink the segment
    at child exit (the bpo-39959 footgun), so there the registration
    must be withdrawn.
    """
    from multiprocessing import resource_tracker, shared_memory
    tracker_preexisting = getattr(
        resource_tracker._resource_tracker, "_fd", None) is not None
    shm = shared_memory.SharedMemory(name=name)
    if not tracker_preexisting:
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals vary
            pass
    return shm


class _ChildMailbox:
    """One process's inbox over its ``multiprocessing`` queue.

    Messages that do not match the current :class:`AwaitMessage` are
    buffered; INTERRUPTs never surface — they fold into an epoch set
    polled at iteration boundaries (same contract as the simulator's
    mailbox hook and the thread backend's flags).  Parent-injected
    :class:`_PeerDeadNotice` objects pre-empt any wait, queued or not.
    """

    def __init__(self, q, crash: _CrashClock) -> None:
        self._q = q
        self._crash = crash
        self._buffer: list[Message] = []
        self._interrupts: set[int] = set()
        self._notices: list[_PeerDeadNotice] = []

    # -- queue intake ----------------------------------------------------
    def _absorb(self, item) -> None:
        if isinstance(item, _PeerDeadNotice):
            self._notices.append(item)
        elif item.tag is Tag.INTERRUPT:
            self._interrupts.add(item.epoch)
        else:
            self._buffer.append(item)

    def poll(self) -> None:
        """Drain everything currently queued, without blocking."""
        while True:
            try:
                self._absorb(self._q.get_nowait())
            except queue_mod.Empty:
                return

    # -- interrupt flags -------------------------------------------------
    def has_interrupt(self, epoch: int) -> bool:
        return epoch in self._interrupts

    def drain_interrupts(self, up_to_epoch: int) -> None:
        self._interrupts = {e for e in self._interrupts if e > up_to_epoch}

    # -- filtered receive ------------------------------------------------
    def get(self, spec: AwaitMessage):
        """Next notice or matching message; ``None`` on spec timeout.

        Raises :class:`BackendError` when an untimed wait outlives the
        watchdog (a peer process most likely died without notice).
        """
        deadline = time.perf_counter() + (
            spec.timeout if spec.timeout is not None else WATCHDOG_SECONDS)
        self.poll()
        while True:
            if self._notices:
                return self._notices.pop(0)
            for i, msg in enumerate(self._buffer):
                if spec.matches(msg):
                    return self._buffer.pop(i)
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                if spec.timeout is None:
                    raise BackendError(
                        f"watchdog: no message matching {spec} within "
                        f"{WATCHDOG_SECONDS}s — a peer process likely "
                        "died; see the first reported error")
                return None
            self._crash.check()
            try:
                self._absorb(self._q.get(timeout=min(remaining,
                                                     POLL_SECONDS * 2.5)))
            except queue_mod.Empty:
                continue


class _ChildReporter:
    """Child-side sink: routes messages, counts traffic, streams stats."""

    def __init__(self, me, queues, balancer_q, stats_q, *,
                 centralized: bool, lb_host: int, t0: float) -> None:
        self.me = me
        self._queues = queues
        self._balancer_q = balancer_q
        self._stats_q = stats_q
        self._centralized = centralized
        self._lb_host = lb_host
        self._t0 = t0
        self.messages = 0
        self.bytes = 0
        self.payload_bytes = 0
        self.shm_bytes = 0
        self.retries = 0
        self.by_tag = CounterDict()

    def now(self) -> float:
        return time.perf_counter() - self._t0

    def send(self, msg: Message) -> None:
        self.messages += 1
        self.bytes += msg.nbytes
        self.by_tag.inc(msg.tag.value)
        self.payload_bytes += len(pickle.dumps(msg, pickle.HIGHEST_PROTOCOL))
        if msg.tag is Tag.WORK:
            # The ranges ride the pipe; the data rows stay in shm.
            self.shm_bytes += msg.data_bytes
        if (self._centralized and msg.tag is Tag.PROFILE
                and msg.dst == self._lb_host):
            self._balancer_q.put(msg)
        else:
            self._queues[msg.dst].put(msg)

    # -- stats stream ----------------------------------------------------
    def executed(self, ranges: Sequence[Range]) -> None:
        self._stats_q.put(("exec", self.me, tuple(ranges)))

    def sync(self, group: int, epoch: int, plan) -> None:
        self._stats_q.put(
            ("sync", SyncRecord.from_plan(self.now(), group, epoch, plan)))

    def declared(self, peer: int) -> None:
        self._stats_q.put(("declared", self.me, peer))

    def trace(self, payload: dict) -> None:
        """Ship this child's trace buffer to the parent (pre-finish)."""
        self._stats_q.put(("trace", self.me, payload))

    def counters(self) -> dict:
        return {"messages": self.messages, "bytes": self.bytes,
                "by_tag": dict(self.by_tag),
                "payload_bytes": self.payload_bytes,
                "shm_bytes": self.shm_bytes, "retries": self.retries}

    def finish(self, kind: str = "finish") -> None:
        self._stats_q.put((kind, self.me, self.now(), self.counters()))

    def error(self, text: str) -> None:
        self._stats_q.put(("error", self.me, text))

    def flush(self) -> None:
        """Block until the stats queue's feeder drained (pre-exit)."""
        self._stats_q.close()
        self._stats_q.join_thread()


class _ChildPort:
    """The driver port of one child (see :mod:`repro.protocol.driver`).

    ``compute`` runs the worker's compute slice and returns its status;
    the balancer has none.
    """

    def __init__(self, reporter: _ChildReporter, mailbox: _ChildMailbox,
                 crash: _CrashClock, rec, track: str,
                 compute: Optional[Callable[[], str]] = None) -> None:
        self.reporter = reporter
        self.mailbox = mailbox
        self.crash = crash
        self.rec = rec
        self.track = track
        self._compute = compute

    def send(self, msg: Message) -> None:
        self.crash.check()
        self.reporter.send(msg)

    def record_sync(self, group: int, epoch: int, plan) -> None:
        self.reporter.sync(group, epoch, plan)

    def declare_dead(self, peer: int) -> None:
        self.reporter.declared(peer)

    def emit(self, name: str, args: dict) -> None:
        self.rec.event(name, track=self.track, **args)

    def finish(self, reason: str) -> None:
        if self.rec.enabled:
            # Ship the trace buffer before the finish record so the
            # parent merges it ahead of run teardown.
            self.reporter.trace(self.rec.to_payload())
        self.reporter.finish("finish" if self._compute else "bfinish")

    def compute(self) -> ComputeDone:
        return ComputeDone(self._compute())

    def wait(self, spec: AwaitMessage):
        got = self.mailbox.get(spec)
        if got is None:
            self.reporter.retries += 1
            return TimerFired()
        if isinstance(got, _PeerDeadNotice):
            return PeerDead(got.node)
        return MessageReceived(got)


# ---------------------------------------------------------------------------
# Child entry points (module-level: spawn start methods must import them).
# ---------------------------------------------------------------------------
def _compute_slice(proto: WorkerProtocol, cfg: _WorkerConfig,
                   mailbox: _ChildMailbox, reporter: _ChildReporter,
                   crash: _CrashClock, shm, row_pattern: bytes,
                   rec=NULL_RECORDER) -> str:
    """Burn real CPU through the assignment, iteration by iteration."""
    assignment = proto.assignment
    table = proto.table
    mailbox.drain_interrupts(proto.epoch - 1)
    if assignment.empty:
        return "finished"
    probe = crash.due if crash.armed else None
    done_batch: list[Range] = []
    executed = 0
    vectorized = cfg.kernel == "numpy"
    try:
        while not assignment.empty:
            crash.check()
            mailbox.poll()
            if proto.is_dlb and mailbox.has_interrupt(proto.epoch):
                return "interrupted"
            taken = assignment.take_head(1)
            start, _end = taken[0]
            cost = table.range_work(start, start + 1)
            t0 = time.perf_counter()
            if vectorized:
                # Compute *in* the iteration's own data row: a zero-copy
                # float64 view of the shared block past the ownership
                # stamp (None when the row payload is too small — the
                # kernel then burns on private scratch instead).
                view = None
                if shm is not None:
                    view = shm_row_view(
                        shm.buf, start * cfg.row_bytes + STAMP_BYTES,
                        cfg.row_bytes - STAMP_BYTES)
                burn_vec(cost * cfg.time_scale * cfg.ops_rate,
                         out=view, should_abort=probe)
            else:
                burn_ops(cost * cfg.time_scale * cfg.ops_rate,
                         should_abort=probe)
            crash.check()  # fail-stop before the iteration is recorded
            t1 = time.perf_counter()
            proto.note_busy(t1 - t0)
            rec.complete("compute", t0 - crash.t0, t1 - t0,
                         track=f"node{cfg.node}", iteration=start)
            proto.note_work(cost)
            if shm is not None:
                off = start * cfg.row_bytes
                shm.buf[off:off + len(row_pattern)] = row_pattern
            executed += 1
            if cfg.fail_after is not None and executed >= cfg.fail_after:
                raise RuntimeError(
                    f"injected test failure on node {cfg.node} "
                    f"after {executed} iterations")
            if cfg.stream_records:
                reporter.executed(taken)
            else:
                done_batch.extend(taken)
        return "finished"
    finally:
        if done_batch:
            reporter.executed(merge_ranges(done_batch))


def _worker_main(cfg: _WorkerConfig, queues, balancer_q, stats_q,
                 t0: float) -> None:
    crash = _CrashClock(cfg.crash_at, t0, (*queues, balancer_q, stats_q))
    reporter = _ChildReporter(cfg.node, queues, balancer_q, stats_q,
                              centralized=cfg.centralized,
                              lb_host=cfg.lb_host, t0=t0)
    shm = None
    try:
        if cfg.shm_name is not None:
            shm = _attach_shm(cfg.shm_name)
        row_pattern = struct.pack("<Q", cfg.node + 1)
        if cfg.kernel != "numpy":
            # The scalar kernels never touch the row payload, so stamp
            # the whole row; the numpy kernel computed *into* it, so
            # write only the ownership stamp and keep the results.
            row_pattern += b"\x5a" * (cfg.row_bytes - STAMP_BYTES)
        proto = WorkerProtocol(
            cfg.node, cfg.members, group=cfg.group,
            centralized=cfg.centralized, lb_host=cfg.lb_host,
            policy=cfg.policy, table=cfg.table,
            mean_iteration_time=cfg.mean_iteration_time,
            dc_bytes=cfg.dc_bytes,
            movement_cost_fn=movement_estimator(
                cfg.movement, cfg.dc_bytes, cfg.mean_iteration_time),
            ft=cfg.ft, profile_window_reset=cfg.profile_window_reset,
            assignment=Assignment(cfg.ranges), is_dlb=cfg.is_dlb)
        proto.emit_trace = cfg.trace_events
        rec = TraceRecorder(clock=reporter.now) if cfg.trace_events \
            else NULL_RECORDER
        mailbox = _ChildMailbox(queues[cfg.node], crash)
        drive_blocking(proto, _ChildPort(
            reporter, mailbox, crash, rec, f"node{cfg.node}",
            lambda: _compute_slice(proto, cfg, mailbox, reporter, crash,
                                   shm, row_pattern, rec)))
    except BaseException:
        reporter.error(traceback.format_exc())
        reporter.flush()  # os._exit skips the feeder's atexit flush
        os._exit(1)
    finally:
        if shm is not None:
            shm.close()


def _balancer_main(cfg: _BalancerConfig, queues, balancer_q, stats_q,
                   t0: float) -> None:
    crash = _CrashClock(None, t0)
    reporter = _ChildReporter(-1, queues, balancer_q, stats_q,
                              centralized=True, lb_host=cfg.host, t0=t0)
    try:
        proto = BalancerProtocol(
            cfg.host, [list(g) for g in cfg.groups], policy=cfg.policy,
            mean_iteration_time=cfg.mean_iteration_time,
            movement_cost_fn=movement_estimator(
                cfg.movement, 0, cfg.mean_iteration_time),
            ft=cfg.ft)
        proto.emit_trace = cfg.trace_events
        rec = TraceRecorder(clock=reporter.now) if cfg.trace_events \
            else NULL_RECORDER
        drive_blocking(proto, _ChildPort(
            reporter, _ChildMailbox(balancer_q, crash), crash, rec,
            "balancer"))
    except BaseException:
        reporter.error(traceback.format_exc())
        reporter.flush()
        os._exit(1)


# ---------------------------------------------------------------------------
# The backend proper (parent side).
# ---------------------------------------------------------------------------
class ProcessBackend(ExecutionBackend):
    """Execute the DLB protocol on real processes with shared memory."""

    name = "process"

    def __init__(self, *, time_scale: float = 1.0,
                 start_method: Optional[str] = None,
                 kernel: str = "ops") -> None:
        if time_scale <= 0:
            raise BackendError("time_scale must be positive")
        if kernel not in ("ops", "numpy"):
            raise BackendError(
                f"unknown kernel {kernel!r} (the process backend burns "
                "real CPU work: 'ops' or 'numpy'; 'wall' is thread-only)")
        if kernel == "numpy" and not HAVE_NUMPY:
            raise BackendError(
                "the 'numpy' kernel needs numpy installed; use 'ops'")
        self.time_scale = time_scale
        self.start_method = start_method
        #: ``"ops"`` burns scalar multiply-adds; ``"numpy"`` burns the
        #: same calibrated op counts as vectorized passes computing
        #: in place on the shared-memory data rows (see kernels.py).
        self.kernel = kernel
        #: Test hook: ``{node: n_iterations}`` after which the worker
        #: raises, exercising the shutdown/teardown path.
        self._fail_after: dict[int, int] = {}

    # -- entry point -----------------------------------------------------
    def run_loop(self, loop: LoopSpec, cluster: ClusterSpec,
                 strategy: StrategyLike,
                 options: Optional[RunOptions] = None,
                 selector: Optional[Callable] = None,
                 fault_plan: Optional[FaultPlan] = None) -> LoopRunStats:
        n = cluster.n_processors
        spec, options, fault_plan = check_run(self.name, strategy, n, options,
                                              selector, fault_plan)
        ft = options.fault_tolerance

        table = loop.work_table()
        mean_iteration_time = table.total_work / table.n
        k = options.effective_group_size(n, spec.group_size)
        if spec.global_scope or not spec.is_dlb:
            groups: list[list[int]] = [list(range(n))]
        else:
            groups = build_groups(n, k, formation=options.group_formation,
                                  seed=options.group_seed)
        group_of = {node: g for g, members in enumerate(groups)
                    for node in members}
        movement = None
        if options.policy.include_movement_cost:
            movement = (options.network.latency, options.network.bandwidth)

        stats = LoopRunStats(loop_name=loop.name, strategy=spec.name,
                             n_processors=n, group_size=k,
                             backend=self.name)
        registry = MetricsRegistry()
        # A live view: _supervise merges each child's counters into the
        # registry's storage, which *is* this stats field.
        stats.messages_by_tag = registry.counter("messages_by_tag")
        recorder = options.recorder or NULL_RECORDER
        parts = equal_block_partition(loop.n_iterations, n)
        row_bytes = max(STAMP_BYTES, loop.dc_bytes)
        if self.kernel == "numpy":
            # Calibrate at the element count the workers actually burn
            # over (the row payload), so per-iteration wall time stays
            # cost * time_scale whatever the row width.
            ops_rate = calibrate_vec_rate((row_bytes - STAMP_BYTES) // 8)
        else:
            ops_rate = calibrate_ops_rate()
        crash_at = {c.node: c.time * self.time_scale
                    for c in fault_plan.crashes} if fault_plan else {}

        ctx = mp_context(self.start_method)
        from multiprocessing import shared_memory
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, loop.n_iterations * row_bytes))
        queues = [ctx.Queue() for _ in range(n)]
        balancer_q = ctx.Queue()
        stats_q = ctx.Queue()
        centralized = bool(spec.is_dlb and spec.centralized)

        t0 = time.perf_counter()
        stats.start_time = 0.0
        ctx_method = getattr(ctx, "_name", None) or self.start_method
        stats.environment = environment_fingerprint(
            start_method=ctx_method, kernel=self.kernel)
        if recorder.enabled:
            # Children timestamp against the same parent-stamped origin
            # (perf_counter is CLOCK_MONOTONIC: comparable across
            # processes), so merged buffers share one time domain.
            recorder.set_clock(lambda: time.perf_counter() - t0)
        procs: dict[object, object] = {}
        try:
            for node in range(n):
                gid = group_of[node]
                cfg = _WorkerConfig(
                    node=node, members=tuple(groups[gid]), group=gid,
                    centralized=centralized, lb_host=0,
                    policy=options.policy, table=table,
                    mean_iteration_time=mean_iteration_time,
                    dc_bytes=loop.dc_bytes, movement=movement, ft=ft,
                    profile_window_reset=options.profile_window_reset,
                    ranges=tuple(parts[node].ranges), is_dlb=spec.is_dlb,
                    time_scale=self.time_scale, kernel=self.kernel,
                    ops_rate=ops_rate,
                    shm_name=shm.name, row_bytes=row_bytes,
                    crash_at=crash_at.get(node),
                    stream_records=bool(fault_plan),
                    fail_after=self._fail_after.get(node),
                    trace_events=recorder.enabled)
                p = ctx.Process(target=_worker_main,
                                args=(cfg, queues, balancer_q, stats_q, t0),
                                name=f"dlb-node{node}", daemon=True)
                procs[node] = p
            if centralized:
                bcfg = _BalancerConfig(
                    host=0,
                    groups=tuple(tuple(g) for g in groups),
                    policy=options.policy,
                    mean_iteration_time=mean_iteration_time,
                    movement=movement, ft=ft,
                    trace_events=recorder.enabled)
                procs["balancer"] = ctx.Process(
                    target=_balancer_main,
                    args=(bcfg, queues, balancer_q, stats_q, t0),
                    name="dlb-balancer", daemon=True)
            for p in procs.values():
                p.start()

            crashed, declared = self._supervise(
                stats, procs, queues, balancer_q, stats_q,
                expected_crashes=set(crash_at), options=options,
                recorder=recorder)
            for node in sorted(crashed):
                # A crashed child's buffer died with it (os._exit ships
                # nothing): mark the truncation explicitly rather than
                # dropping the node silently.
                recorder.event("trace_truncated", track=f"node{node}",
                               reason="crashed")

            for p in procs.values():
                p.join(timeout=5.0)
            salvaged = self._salvage(stats, loop, table, crashed,
                                     ops_rate, shm, row_bytes)
            stats.end_time = time.perf_counter() - t0
            stats.crashed_nodes = tuple(sorted(crashed))
            stats.declared_dead = tuple(sorted(declared))
            stats.salvaged_iterations = salvaged
            verify_coverage(stats.executed_by_node, loop.n_iterations)
            self._verify_shm(stats, shm, row_bytes)
            return stats
        finally:
            join_or_terminate(procs.values(), timeout=2.0,
                              terminate=lambda p: p.terminate(),
                              kill=lambda p: p.kill())
            for q in (*queues, balancer_q, stats_q):
                q.cancel_join_thread()
                q.close()
            shm.close()
            shm.unlink()

    # -- supervision -----------------------------------------------------
    def _supervise(self, stats: LoopRunStats, procs, queues, balancer_q,
                   stats_q, *, expected_crashes: set[int],
                   options: RunOptions,
                   recorder=NULL_RECORDER) -> tuple[set[int], set[int]]:
        """Drain the stats stream and police child liveness.

        Returns ``(crashed, declared_dead)``.  Raises
        :class:`BackendError` when a child dies outside the fault plan.
        """
        crashed: set[int] = set()
        declared: set[int] = set()
        finished: set = set()
        suspect_since: dict = {}
        pending = set(procs)
        deadline = time.perf_counter() + WATCHDOG_SECONDS * 2

        def handle(rec) -> None:
            kind = rec[0]
            if kind == "exec":
                _, node, ranges = rec
                stats.executed_by_node.setdefault(node, []).extend(ranges)
            elif kind == "sync":
                if options.trace:
                    stats.record_sync_once(rec[1])
            elif kind == "declared":
                declared.add(rec[2])
            elif kind == "trace":
                recorder.merge_payload(rec[2])
            elif kind in ("finish", "bfinish"):
                _, node, now, counters = rec
                key = "balancer" if kind == "bfinish" else node
                finished.add(key)
                pending.discard(key)
                if kind == "finish":
                    stats.node_finish_times[node] = now
                stats.network_messages += counters["messages"]
                stats.network_bytes += counters["bytes"]
                stats.transport_payload_bytes += counters["payload_bytes"]
                stats.shm_data_bytes += counters["shm_bytes"]
                stats.fault_retries += counters["retries"]
                stats.messages_by_tag.merge(counters["by_tag"])
            elif kind == "error":
                raise BackendError(
                    f"worker {rec[1]} failed:\n{rec[2]}")
            else:  # pragma: no cover - defensive
                raise BackendError(f"unknown stats record {rec!r}")

        while pending:
            try:
                handle(stats_q.get(timeout=POLL_SECONDS))
                continue
            except queue_mod.Empty:
                pass
            now = time.perf_counter()
            if now > deadline:
                raise BackendError(
                    f"supervision watchdog: {sorted(map(str, pending))} "
                    "never finished")
            for key in list(pending):
                p = procs[key]
                if p.is_alive() or key in finished:
                    continue
                code = p.exitcode
                if code == CRASH_EXIT_CODE and key in expected_crashes:
                    crashed.add(key)
                    pending.discard(key)
                    notice = _PeerDeadNotice(key)
                    for node, q in enumerate(queues):
                        if node != key and node not in crashed:
                            q.put(notice)
                    if "balancer" in procs:
                        balancer_q.put(notice)
                elif code == 0:
                    # Clean exit: its finish record is still draining.
                    continue
                else:
                    # Errored children report through the stats queue;
                    # give the record a moment to surface.
                    since = suspect_since.setdefault(key, now)
                    if now - since > DRAIN_GRACE_SECONDS:
                        raise BackendError(
                            f"worker {key} died unexpectedly "
                            f"(exit code {code})")
        while True:  # trailing records flushed at child exit
            try:
                handle(stats_q.get_nowait())
            except queue_mod.Empty:
                return crashed, declared

    # -- salvage / verification -----------------------------------------
    def _salvage(self, stats: LoopRunStats, loop: LoopSpec,
                 table: WorkTable, crashed: set[int], ops_rate: float,
                 shm, row_bytes: int) -> int:
        """Re-execute orphaned iterations; credit the lowest survivor."""
        if not crashed:
            return 0
        orphans = coverage_gaps(stats.executed_by_node, loop.n_iterations)
        if not orphans:
            return 0
        survivor = min(node for node in range(stats.n_processors)
                       if node not in crashed)
        pattern = (struct.pack("<Q", survivor + 1)
                   + b"\x5a" * (row_bytes - STAMP_BYTES))
        count = 0
        for start, end in orphans:
            work = table.range_work(start, end)
            if self.kernel == "numpy":
                # Burn over the first orphaned row's payload — the same
                # element count the rate was calibrated at.
                view = shm_row_view(shm.buf,
                                    start * row_bytes + STAMP_BYTES,
                                    row_bytes - STAMP_BYTES)
                burn_vec(work * self.time_scale * ops_rate, out=view)
            else:
                burn_ops(work * self.time_scale * ops_rate)
            for i in range(start, end):
                off = i * row_bytes
                shm.buf[off:off + len(pattern)] = pattern
            count += end - start
        stats.executed_by_node.setdefault(survivor, []).extend(orphans)
        return count

    @staticmethod
    def _verify_shm(stats: LoopRunStats, shm, row_bytes: int) -> None:
        """Audit the data block: every executed row stamped by its owner."""
        for node, ranges in stats.executed_by_node.items():
            for start, end in ranges:
                for i in range(start, end):
                    off = i * row_bytes
                    stamp = struct.unpack_from("<Q", shm.buf, off)[0]
                    if stamp != node + 1:
                        raise AssertionError(
                            f"shared-memory row {i} stamped by "
                            f"{stamp - 1}, but the coverage ledger "
                            f"credits node {node}")
