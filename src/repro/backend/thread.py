"""Real-time execution backend: threads, queues, wall-clock time.

``ThreadBackend`` drives the *same* protocol state machines as the
simulator — :class:`~repro.protocol.worker.WorkerProtocol` and
:class:`~repro.protocol.balancer.BalancerProtocol` — but interprets
their commands against reality instead of an event heap:

* **clock** — ``time.perf_counter()``; durations in the returned stats
  are wall-clock seconds,
* **timers** — condition-variable waits with timeouts,
* **transport** — per-node in-process mailboxes (lock + condition);
  a ``Send`` is an append to the destination's queue,
* **compute** — synthetic CPU-burn kernels: each iteration spins the
  CPU for its :class:`~repro.apps.workload.WorkTable` cost (scaled by
  ``time_scale``), and synchronization interrupts are honored at
  iteration boundaries exactly as in the paper's Figure 3 loop.

What carries over for free — because it lives in the protocol layer —
is the whole §3 semantics: receiver-initiated interrupts, epochs,
profile exchange, the redistribution planner, retirement, and the
exactly-once coverage invariant (verified after every run).

The simulated external-load model does not carry over: on real threads
the "external load" is whatever your machine is actually doing.  The
features this backend refuses are listed in
:data:`~repro.backend.base.CAPABILITIES`.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from ..apps.workload import LoopSpec
from ..core.diffusion import make_diffusion_planner
from ..core.redistribution import (
    make_movement_cost_estimator,
    make_topology_movement_cost_estimator,
)
from ..faults.plan import FaultPlan
from ..machine.cluster import ClusterSpec, build_groups
from ..message.messages import Message, Tag
from ..protocol import (
    AwaitMessage,
    BalancerProtocol,
    ComputeDone,
    MessageReceived,
    TimerFired,
    WorkerProtocol,
)
from ..network.topology import Topology, resolve_topology
from ..obs.metrics import CounterDict, MetricsRegistry
from ..obs.trace import NULL_RECORDER
from ..protocol.driver import drive_blocking
from ..runtime.assignment import equal_block_partition, verify_coverage
from ..runtime.options import RunOptions
from ..runtime.stats import LoopRunStats, SyncRecord, environment_fingerprint
from .base import (
    BackendError,
    ExecutionBackend,
    StrategyLike,
    check_run,
    join_or_terminate,
)
from .kernels import (
    HAVE_NUMPY,
    KERNELS,
    burn_ops,
    burn_vec,
    burn_wall,
    calibrate_ops_rate,
    calibrate_vec_rate,
)

__all__ = ["ThreadBackend"]

#: Safety net: no single blocking wait may exceed this many wall
#: seconds.  The fault-free protocol never waits unboundedly unless a
#: peer thread died with an exception; this converts such a hang into a
#: diagnosable error.
WATCHDOG_SECONDS = 120.0


class _Mailbox:
    """One node's inbox: a queue plus the interrupt-epoch flags.

    INTERRUPT messages never enter the queue — the transport folds them
    into a set of epochs that the compute kernel polls at iteration
    boundaries, mirroring the simulator's mailbox ``notify`` hook.
    """

    def __init__(self, abort: threading.Event) -> None:
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: list[Message] = []
        self._interrupts: set[int] = set()
        self._abort = abort

    def wake(self) -> None:
        with self._cond:
            self._cond.notify_all()

    def post(self, msg: Message) -> None:
        with self._cond:
            if msg.tag is Tag.INTERRUPT:
                self._interrupts.add(msg.epoch)
            else:
                self._queue.append(msg)
            self._cond.notify_all()

    def has_interrupt(self, epoch: int) -> bool:
        with self._lock:
            return epoch in self._interrupts

    def drain_interrupts(self, up_to_epoch: int) -> None:
        """Forget interrupt flags for ``up_to_epoch`` and older."""
        with self._lock:
            self._interrupts = {e for e in self._interrupts
                                if e > up_to_epoch}

    def get(self, spec: AwaitMessage) -> Optional[Message]:
        """Block until a message matches ``spec``; None on timeout."""
        deadline = time.perf_counter() + (
            spec.timeout if spec.timeout is not None else WATCHDOG_SECONDS)
        with self._cond:
            while True:
                if self._abort.is_set():
                    raise BackendError("aborted: a peer thread failed")
                for i, msg in enumerate(self._queue):
                    if spec.matches(msg):
                        return self._queue.pop(i)
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    if spec.timeout is None:
                        raise BackendError(
                            f"watchdog: no message matching {spec} within "
                            f"{WATCHDOG_SECONDS}s — a peer thread likely "
                            "died; see the first reported error")
                    return None
                self._cond.wait(remaining)


class _Transport:
    """Routes messages between mailboxes; counts traffic."""

    def __init__(self, n: int,
                 by_tag: Optional[CounterDict] = None) -> None:
        self.abort = threading.Event()
        self.mailboxes = [_Mailbox(self.abort) for _ in range(n)]
        self._lock = threading.Lock()
        self.messages = 0
        self.bytes = 0
        # A registry-owned counter when the caller wires one in, so the
        # final stats field is a live view over the same storage.
        self.by_tag: CounterDict = by_tag if by_tag is not None \
            else CounterDict()

    def post(self, msg: Message) -> None:
        with self._lock:
            self.messages += 1
            self.bytes += msg.nbytes
            self.by_tag.inc(msg.tag.value)
        self.mailboxes[msg.dst].post(msg)


class _SharedStats:
    """Thread-safe sink for executed ranges and sync records."""

    def __init__(self, stats: LoopRunStats, trace: bool,
                 recorder=NULL_RECORDER) -> None:
        self.stats = stats
        self.trace = trace
        self.recorder = recorder
        self._lock = threading.Lock()
        self.t0 = time.perf_counter()

    def now(self) -> float:
        return time.perf_counter() - self.t0

    def record_executed(self, node: int, ranges) -> None:
        with self._lock:
            self.stats.executed_by_node.setdefault(node, []).extend(ranges)

    def record_sync(self, group: int, epoch: int, plan) -> None:
        if self.trace:
            with self._lock:
                self.stats.record_sync_once(
                    SyncRecord.from_plan(self.now(), group, epoch, plan))

    def record_finish(self, node: int) -> None:
        with self._lock:
            self.stats.node_finish_times[node] = self.now()


class _Port:
    """The driver port of one thread: a worker, or the balancer when
    ``proto`` is ``None`` (see :mod:`repro.protocol.driver`)."""

    def __init__(self, backend: "ThreadBackend", transport: _Transport,
                 shared: _SharedStats, box: int,
                 proto: Optional[WorkerProtocol] = None) -> None:
        self.backend = backend
        self.transport = transport
        self.shared = shared
        self.mailbox = transport.mailboxes[box]
        self.proto = proto
        self.track = "balancer" if proto is None else f"node{proto.me}"

    def send(self, msg: Message) -> None:
        self.transport.post(msg)

    def record_sync(self, group: int, epoch: int, plan) -> None:
        self.shared.record_sync(group, epoch, plan)

    def declare_dead(self, peer: int) -> None:  # pragma: no cover
        raise BackendError("DeclareDead without fault tolerance")

    def emit(self, name: str, args: dict) -> None:
        self.shared.recorder.event(name, track=self.track, **args)

    def finish(self, reason: str) -> None:
        if self.proto is not None:
            self.shared.record_finish(self.proto.me)

    def compute(self) -> ComputeDone:
        return ComputeDone(self.backend._compute(
            self.proto, self.mailbox, self.shared, self.transport.abort))

    def wait(self, spec: AwaitMessage):
        msg = self.mailbox.get(spec)
        return TimerFired() if msg is None else MessageReceived(msg)


class ThreadBackend(ExecutionBackend):
    """Execute the DLB protocol on real threads in wall-clock time."""

    name = "thread"

    def __init__(self, *, time_scale: float = 1.0,
                 kernel: str = "wall") -> None:
        #: Multiplier applied to every iteration's nominal cost before
        #: burning CPU; < 1 shrinks wall time without changing the work
        #: *ratios* the balancer sees.
        if time_scale <= 0:
            raise BackendError("time_scale must be positive")
        if kernel not in KERNELS:
            raise BackendError(
                f"unknown kernel {kernel!r} (expected one of "
                f"{', '.join(repr(k) for k in KERNELS)})")
        if kernel == "numpy" and not HAVE_NUMPY:
            raise BackendError(
                "the 'numpy' kernel needs numpy installed; "
                "use 'wall' or 'ops'")
        self.time_scale = time_scale
        #: ``"wall"`` spins each iteration to a wall-clock deadline
        #: (exact timing, but GIL threads overlap "for free");
        #: ``"ops"`` executes a calibrated op count (real CPU work that
        #: GIL threads must serialize — the honest baseline for
        #: thread-vs-process speedup comparisons; see kernels.py);
        #: ``"numpy"`` executes the same op count as vectorized passes
        #: that release the GIL, so threads overlap on real cores.
        self.kernel = kernel
        self._ops_rate: Optional[float] = None

    # -- entry point --------------------------------------------------------
    def run_loop(self, loop: LoopSpec, cluster: ClusterSpec,
                 strategy: StrategyLike,
                 options: Optional[RunOptions] = None,
                 selector: Optional[Callable] = None,
                 fault_plan: Optional[FaultPlan] = None) -> LoopRunStats:
        n = cluster.n_processors
        spec, options, _ = check_run(self.name, strategy, n, options,
                                     selector, fault_plan)

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
        # Threads share one address space, so the topology is *logical*
        # here: it shapes the planner (where work may flow) and the
        # movement-cost estimate, not the transport.
        topology = None
        if options.topology is not None:
            topology = resolve_topology(options.topology, n)
        movement_cost_fn = None
        if options.policy.include_movement_cost:
            if topology is not None and not topology.shared_medium:
                movement_cost_fn = make_topology_movement_cost_estimator(
                    options.network, topology,
                    dc_bytes=loop.dc_bytes,
                    mean_iteration_time=mean_iteration_time)
            else:
                movement_cost_fn = make_movement_cost_estimator(
                    latency=options.network.latency,
                    bandwidth=options.network.bandwidth,
                    dc_bytes=loop.dc_bytes,
                    mean_iteration_time=mean_iteration_time)
        planner = None
        if spec.code == "DIFF":
            planner = make_diffusion_planner(
                topology if topology is not None else Topology.bus(n),
                options.policy, mean_iteration_time, movement_cost_fn)

        stats = LoopRunStats(loop_name=loop.name, strategy=spec.name,
                             n_processors=n, group_size=k,
                             backend=self.name)
        stats.environment = environment_fingerprint(kernel=self.kernel)
        recorder = options.recorder or NULL_RECORDER
        registry = MetricsRegistry()
        shared = _SharedStats(stats, options.trace, recorder)
        transport = _Transport(n, registry.counter("messages_by_tag"))
        parts = equal_block_partition(loop.n_iterations, n)

        workers = []
        for node in range(n):
            gid = group_of[node]
            workers.append(WorkerProtocol(
                node, groups[gid], group=gid,
                centralized=spec.centralized,
                lb_host=0,
                policy=options.policy,
                table=table,
                mean_iteration_time=mean_iteration_time,
                dc_bytes=loop.dc_bytes,
                movement_cost_fn=movement_cost_fn,
                planner=planner,
                profile_window_reset=options.profile_window_reset,
                assignment=parts[node],
                is_dlb=spec.is_dlb))
            workers[-1].emit_trace = recorder.enabled

        errors: list[BaseException] = []
        err_lock = threading.Lock()

        def guarded(fn, *args):
            def runner():
                try:
                    fn(*args)
                except BaseException as exc:  # noqa: BLE001 - reported below
                    with err_lock:
                        errors.append(exc)
                    # Unblock every waiter: peers abort instead of
                    # hanging until the watchdog.
                    transport.abort.set()
                    for box in transport.mailboxes:
                        box.wake()
            return runner

        threads = [threading.Thread(
            target=guarded(drive_blocking, workers[node],
                           _Port(self, transport, shared, node,
                                 workers[node])),
            name=f"dlb-node{node}", daemon=True)
            for node in range(n)]
        balancer_thread = None
        if spec.is_dlb and spec.centralized:
            balancer = BalancerProtocol(
                0, groups, policy=options.policy,
                mean_iteration_time=mean_iteration_time,
                movement_cost_fn=movement_cost_fn,
                planner=planner)
            balancer.emit_trace = recorder.enabled
            # Centralized only, so the balancer's mailbox never sees
            # PROFILEs meant for node 0's worker: a plain filtered get.
            balancer_thread = threading.Thread(
                target=guarded(drive_blocking, balancer,
                               _Port(self, transport, shared, balancer.host)),
                name="dlb-balancer", daemon=True)

        all_threads = threads + ([balancer_thread]
                                 if balancer_thread is not None else [])
        if self.kernel == "ops":
            self._ops_rate = calibrate_ops_rate()
        elif self.kernel == "numpy":
            self._ops_rate = calibrate_vec_rate()
        stats.start_time = 0.0
        # All trace timestamps on this backend share one zero-based
        # perf_counter domain anchored just before the threads start.
        shared.t0 = time.perf_counter()
        if recorder.enabled:
            recorder.set_clock(shared.now)
        try:
            if balancer_thread is not None:
                balancer_thread.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=WATCHDOG_SECONDS * 2)
                if t.is_alive():
                    raise BackendError(
                        f"{t.name} did not finish (deadlock?)")
            if balancer_thread is not None:
                balancer_thread.join(timeout=WATCHDOG_SECONDS)
                if balancer_thread.is_alive():
                    raise BackendError("balancer thread did not finish")
            stats.end_time = shared.now()
            if errors:
                raise errors[0]
        except BaseException:
            # Shutdown contract: never leave dlb-* threads running —
            # CI hangs on orphans.  Abort unblocks every mailbox wait
            # and stops every compute loop at its next poll.
            transport.abort.set()
            for box in transport.mailboxes:
                box.wake()
            join_or_terminate(all_threads, timeout=5.0)
            raise

        # The registry's counter *is* the stats field (a live view).
        stats.messages_by_tag = transport.by_tag
        stats.network_messages = transport.messages
        stats.network_bytes = transport.bytes
        verify_coverage(stats.executed_by_node, loop.n_iterations)
        return stats

    # -- compute ------------------------------------------------------------
    def _compute(self, proto: WorkerProtocol, mailbox: _Mailbox,
                 shared: _SharedStats, abort: threading.Event) -> str:
        """Burn CPU through the assignment, iteration by iteration.

        Honors synchronization interrupts at iteration boundaries (the
        paper's ``DLB_slave_sync`` poll) and books the performance
        window so measured rates feed the §3.2 profiles.
        """
        assignment = proto.assignment
        table = proto.table
        mailbox.drain_interrupts(proto.epoch - 1)
        if assignment.empty:
            return "finished"
        while not assignment.empty:
            if abort.is_set():
                raise BackendError("aborted: a peer thread failed")
            if proto.is_dlb and mailbox.has_interrupt(proto.epoch):
                return "interrupted"
            taken = assignment.take_head(1)
            start, _end = taken[0]
            cost = table.range_work(start, start + 1)
            t0 = time.perf_counter()
            if self.kernel == "ops":
                burn_ops(cost * self.time_scale * self._ops_rate,
                         should_abort=abort.is_set)
            elif self.kernel == "numpy":
                burn_vec(cost * self.time_scale * self._ops_rate,
                         should_abort=abort.is_set)
            else:
                burn_wall(cost * self.time_scale,
                          should_abort=abort.is_set)
            t1 = time.perf_counter()
            proto.note_busy(t1 - t0)
            shared.recorder.complete("compute", t0 - shared.t0, t1 - t0,
                                     track=f"node{proto.me}",
                                     iteration=start)
            proto.note_work(cost)
            shared.record_executed(proto.me, taken)
        return "finished"
