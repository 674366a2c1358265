"""The worker side of the DLB protocol as a pure state machine.

:class:`WorkerProtocol` is the paper's Figure-3 slave loop — compute,
interrupt, profile, redistribute — with every timing and transport
concern stripped out.  It owns the *protocol state* of one processor:

* epoch counter and active-peer set,
* the iteration :class:`~repro.runtime.assignment.Assignment`,
* the §3.2 performance window (work and busy seconds since the last
  synchronization) and the derived rate,
* the resend caches that answer a peer's recovery requests.

It exposes two API tiers over that single state:

1. **An event pump** — :meth:`on_event` consumes
   :mod:`~repro.protocol.events` and returns
   :mod:`~repro.protocol.commands`.  This is how the real-time
   backends (through :mod:`~repro.protocol.driver`) and the scripted
   ``tests/protocol`` suite drive a worker: no simulator, no threads,
   no clock — just events in, commands out.
2. **Fine-grained transitions** — :meth:`build_profile`,
   :meth:`plan_outgoing`, :meth:`local_plan`, the window accounting —
   used by the discrete-event adapter
   (:class:`~repro.runtime.node.NodeRuntime`), which needs to
   interleave protocol steps with simulated time at a finer grain
   (mid-compute steals, co-located balancer preemption, the §4.3
   mid-run strategy switch).  Both tiers mutate the same state, so the
   protocol semantics cannot fork between backends.

The fault-tolerance hardening (timed receives, exponential backoff,
declaring silent peers dead — docs/FAULT_MODEL.md) is expressed here
as ordinary transitions: a ``TimerFired`` event produces resend
commands and eventually a ``DeclareDead`` command, on any backend.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional, Sequence

from ..apps.workload import WorkTable
from ..core.policy import DlbPolicy
from ..core.redistribution import (
    MovementCostFn,
    PlannerFn,
    RedistributionPlan,
    SyncProfile,
    plan_redistribution,
)
from ..message.messages import (
    ControlMsg,
    EpochStamper,
    InstructionMsg,
    InterruptMsg,
    Message,
    ProfileMsg,
    Tag,
    TransferOrder,
    WorkMsg,
    is_stale,
)
from ..runtime.assignment import Assignment
from ..runtime.options import FaultToleranceConfig
from . import commands as C
from . import events as E
from .errors import ProtocolError, ProtocolRetryExhausted

__all__ = ["WorkerProtocol"]

Range = tuple[int, int]


class WorkerProtocol:
    """Pure protocol state machine for one DLB worker."""

    def __init__(self, me: int, members: Sequence[int], *,
                 group: int = 0,
                 centralized: bool,
                 lb_host: int = 0,
                 policy: DlbPolicy,
                 table: WorkTable,
                 mean_iteration_time: float,
                 dc_bytes: int = 0,
                 movement_cost_fn: Optional[MovementCostFn] = None,
                 planner: Optional[PlannerFn] = None,
                 ft: Optional[FaultToleranceConfig] = None,
                 profile_window_reset: bool = True,
                 initial_rate: float = 1.0,
                 assignment: Optional[Assignment] = None,
                 is_dlb: bool = True,
                 initial_epoch: int = 0) -> None:
        self.me = me
        self.members = tuple(members)
        self.group = group
        self.centralized = centralized
        self.lb_host = lb_host
        self.policy = policy
        self.table = table
        self.mean_iteration_time = mean_iteration_time
        self.dc_bytes = dc_bytes
        self.movement_cost_fn = movement_cost_fn
        #: Pluggable redistribution calculation: ``None`` uses the
        #: paper's eq.-3 proportional planner; the diffusion strategy
        #: installs a topology-restricted planner here.  Must be a
        #: deterministic pure function — the distributed schemes rely on
        #: replicated planners agreeing without communication.
        self.planner = planner
        self.ft = ft or FaultToleranceConfig()
        self.profile_window_reset = profile_window_reset
        self.is_dlb = is_dlb
        #: When set (post-construction, by a backend that holds an
        #: enabled trace recorder), the pump interleaves :class:`C.Emit`
        #: commands — pure data, no clock access — into its outputs.
        #: Default off, so scripted tests and untraced runs see the
        #: exact historical command tuples.
        self.emit_trace = False

        # -- protocol state (shared by both API tiers) ---------------------
        # ``initial_epoch`` is non-zero only for an elastic joiner, which
        # enters the group at its current synchronization epoch.
        self.epoch = initial_epoch
        self.active: set[int] = set(self.members)
        self.assignment: Assignment = assignment or Assignment()
        self.more_work = True
        self.win_work = 0.0
        self.win_busy = 0.0
        self.rate = initial_rate  # optimistic prior before measurements
        self.stamp = EpochStamper(me, lambda: self.epoch)
        self._profile_cache: dict[int, ProfileMsg] = {}
        self._work_cache: dict[tuple[int, int], WorkMsg] = {}

        # -- event-pump bookkeeping ----------------------------------------
        self._phase = "init"
        self._attempt = 0
        self._sent_profile: Optional[ProfileMsg] = None
        self._profiles: dict[int, SyncProfile] = {}
        self._missing: set[int] = set()
        self._rounds: dict[int, int] = {}
        self._pending_srcs: list[int] = []
        self._pending_count = 0
        self._retiring = False

    # ------------------------------------------------------------------
    # Fine-grained transitions (used by the DES adapter and internally).
    # ------------------------------------------------------------------
    @property
    def ft_enabled(self) -> bool:
        return self.ft.enabled

    def note_busy(self, seconds: float) -> None:
        """Book busy wall time into the current performance window."""
        self.win_busy += seconds

    def note_work(self, work: float) -> None:
        """Book completed work into the current performance window."""
        self.win_work += work

    def measured_rate(self) -> float:
        """The §3.2 performance metric over the current window."""
        if self.win_busy > 0 and self.win_work > 0:
            self.rate = self.win_work / self.win_busy
        return self.rate

    def reset_window(self) -> None:
        if self.profile_window_reset:
            self.win_work = 0.0
            self.win_busy = 0.0

    def advance_epoch(self) -> None:
        self.epoch += 1
        self.reset_window()

    def declare_peer_dead(self, peer: int) -> None:
        self.active.discard(peer)

    def admit_peer(self, peer: int) -> None:
        """Elastic membership: accept ``peer`` into members and active.

        Called at an epoch fence (see :class:`~repro.protocol.events.
        PeerJoined`), so the next interrupt/profile exchange addresses
        the joiner like any other member.
        """
        if peer not in self.members:
            self.members = tuple(sorted((*self.members, peer)))
        self.active.add(peer)

    # -- profiles ----------------------------------------------------------
    def build_profile(self, group: Optional[int] = None) -> ProfileMsg:
        """This node's profile for the current epoch (addressed to self;
        re-address with ``dataclasses.replace`` per recipient)."""
        return ProfileMsg(
            src=self.me, dst=self.me, epoch=self.epoch,
            group=self.group if group is None else group,
            remaining_work=self.assignment.work(self.table),
            remaining_count=self.assignment.count,
            rate=self.measured_rate())

    def sync_profile(self, profile: ProfileMsg) -> SyncProfile:
        """The planner-facing view of a profile message."""
        return SyncProfile(
            node=profile.src, remaining_work=profile.remaining_work,
            remaining_count=profile.remaining_count, rate=profile.rate)

    def cache_profile(self, profile: ProfileMsg) -> None:
        """Remember the profile so resend requests can be answered; only
        the last two epochs are retained."""
        if not self.ft_enabled:
            return
        self._profile_cache[profile.epoch] = profile
        for old in [e for e in self._profile_cache if e < profile.epoch - 1]:
            del self._profile_cache[old]

    def profile_reply(self, epoch: int, dst: int) -> Optional[ProfileMsg]:
        """Answer a ``resend-profile`` request from the cache.

        Prefers the exact epoch; otherwise the latest cached profile is
        returned as liveness evidence (the prober must not fence us just
        because we are stuck in an older epoch).  ``None`` when nothing
        has been cached yet.
        """
        if epoch in self._profile_cache:
            return replace(self._profile_cache[epoch], dst=dst)
        if self._profile_cache:
            latest = self._profile_cache[max(self._profile_cache)]
            return replace(latest, dst=dst)
        return None

    # -- work movement -----------------------------------------------------
    def take_outgoing(self, order: TransferOrder, *, retire: bool,
                      ship_all: bool = False
                      ) -> tuple[tuple[Range, ...], int]:
        """Take the iteration ranges realizing one outgoing order.

        Mutates the assignment.  With ``ship_all`` (a retiring node's
        final order) everything left is shipped; otherwise roughly
        ``order.work`` is taken from the tail, and a staying node always
        keeps at least one iteration.
        """
        if ship_all:
            ranges = self.assignment.take_all()
            count = sum(e - s for s, e in ranges)
        else:
            ranges, count = self.assignment.take_tail_work(
                self.table, order.work, keep_one=not retire)
        return tuple(ranges), count

    def plan_outgoing(self, orders: Iterable[TransferOrder], retire: bool
                      ) -> list[tuple[TransferOrder, tuple[Range, ...], int]]:
        """Take the iteration ranges realizing each outgoing order.

        A retiring node ships everything left with its final order.
        """
        out = []
        orders = list(orders)
        for idx, order in enumerate(orders):
            ranges, count = self.take_outgoing(
                order, retire=retire,
                ship_all=retire and idx == len(orders) - 1)
            out.append((order, ranges, count))
        return out

    def make_work_msg(self, dst: int, epoch: int,
                      ranges: Sequence[Range], count: int) -> WorkMsg:
        return WorkMsg(src=self.me, dst=dst, epoch=epoch,
                       ranges=tuple(ranges), count=count,
                       data_bytes=count * self.dc_bytes)

    def cache_work(self, msg: WorkMsg) -> None:
        """Remember a shipped parcel for ``resend-work`` recovery; only
        the last two epochs are retained."""
        if not self.ft_enabled:
            return
        self._work_cache[(msg.dst, msg.epoch)] = msg
        for key in [k for k in self._work_cache if k[1] < msg.epoch - 1]:
            del self._work_cache[key]

    def work_reply(self, dst: int, epoch: int) -> Optional[WorkMsg]:
        return self._work_cache.get((dst, epoch))

    def local_plan(self, profiles: Iterable[SyncProfile]
                   ) -> RedistributionPlan:
        """The replicated (deterministic) redistribution calculation."""
        ordered = sorted(profiles, key=lambda p: p.node)
        if self.planner is not None:
            return self.planner(ordered)
        return plan_redistribution(
            ordered, self.policy, self.mean_iteration_time,
            self.movement_cost_fn)

    def _trace(self, name: str, **fields) -> list[C.Command]:
        """One gated :class:`C.Emit` (empty list when tracing is off)."""
        if not self.emit_trace:
            return []
        return [C.emit(name, node=self.me, **fields)]

    # ------------------------------------------------------------------
    # Event pump (used by real-time backends and scripted tests).
    # ------------------------------------------------------------------
    def on_event(self, event: E.ProtocolEvent) -> tuple[C.Command, ...]:
        """Feed one event; returns the commands the backend must run."""
        if isinstance(event, E.Start):
            return self._pump_start()
        if isinstance(event, E.ComputeDone):
            return self._pump_compute_done(event.status)
        if isinstance(event, E.MessageReceived):
            return self._pump_message(event.msg)
        if isinstance(event, E.TimerFired):
            return self._pump_timeout()
        if isinstance(event, E.PeerDead):
            return self._pump_peer_dead(event.peer)
        if isinstance(event, E.PeerJoined):
            return self._pump_peer_joined(event.peer)
        if isinstance(event, E.PeerLeft):
            # A planned departure needs the same surviving transitions
            # as a death: drop the peer, stop waiting on it.
            return self._pump_peer_dead(event.peer)
        if isinstance(event, E.LeaveRequested):
            return self._pump_leave()
        raise ProtocolError(f"unknown event {event!r}")

    @property
    def phase(self) -> str:
        """The pump's current phase (observable for tests/debugging)."""
        return self._phase

    def _pump_start(self) -> tuple[C.Command, ...]:
        if self._phase != "init":
            raise ProtocolError(f"Start while in phase {self._phase!r}")
        self._phase = "computing"
        return (C.StartCompute(),)

    def _pump_compute_done(self, status: str) -> tuple[C.Command, ...]:
        if self._phase != "computing":
            raise ProtocolError(
                f"ComputeDone while in phase {self._phase!r}")
        if not self.is_dlb:
            # Static baseline: compute the initial block, then stop.
            self.more_work = False
            self._phase = "done"
            return (C.Done("done"),)
        cmds: list[C.Command] = []
        others = sorted(self.active - {self.me})
        if status == "finished" and not others and not self.centralized:
            # Lone distributed node: nothing to exchange with.
            self.more_work = False
            self._phase = "done"
            return (C.Done("lone"),)
        if status == "finished" and others:
            # Receiver-initiated sync: interrupt the group (§3.1).
            cmds += [C.Send(self.stamp(InterruptMsg, dst=o, group=self.group))
                     for o in others]
        cmds += self._enter_sync()
        return tuple(cmds)

    def _enter_sync(self) -> list[C.Command]:
        cmds0 = self._trace(
            "sync", epoch=self.epoch, group=self.group,
            mode="centralized" if self.centralized else "distributed")
        profile = self.build_profile()
        self.cache_profile(profile)
        if self.centralized:
            self._phase = "await_instruction"
            self._attempt = 0
            self._sent_profile = replace(profile, dst=self.lb_host)
            return cmds0 + [C.Send(self._sent_profile),
                            self._await_instruction()]
        others = sorted(self.active - {self.me})
        self._profiles = {self.me: self.sync_profile(profile)}
        self._missing = set(others)
        self._rounds = {p: 0 for p in others}
        cmds = cmds0 + [C.Send(replace(profile, dst=o)) for o in others]
        if not self._missing:
            return cmds + self._do_plan()
        self._phase = "gather"
        return cmds + [self._await_profiles()]

    # -- awaits ------------------------------------------------------------
    def _await_instruction(self) -> C.AwaitMessage:
        timeout = (self.ft.timeout_for(self._attempt)
                   if self.ft_enabled else None)
        return C.AwaitMessage(tags=(Tag.INSTRUCTION,), epoch=self.epoch,
                              timeout=timeout)

    def _await_profiles(self) -> C.AwaitMessage:
        srcs = tuple(sorted(self._missing))
        if not self.ft_enabled:
            return C.AwaitMessage(tags=(Tag.PROFILE,), epoch=self.epoch,
                                  srcs=srcs)
        # Hardened: accept stale profiles too (liveness evidence), so no
        # epoch filter; staleness is judged on receipt.
        timeout = self.ft.timeout_for(
            min(self._rounds[p] for p in self._missing))
        return C.AwaitMessage(tags=(Tag.PROFILE,), srcs=srcs,
                              timeout=timeout)

    def _await_work(self) -> C.AwaitMessage:
        src = self._pending_srcs[0]
        return C.AwaitMessage(tags=(Tag.WORK, Tag.CONTROL), epoch=self.epoch,
                              srcs=(src,),
                              timeout=self.ft.timeout_for(self._attempt))

    # -- message handling --------------------------------------------------
    def _pump_message(self, msg: Message) -> tuple[C.Command, ...]:
        if msg.tag is Tag.INTERRUPT:
            # Interrupt timing is the backend's concern (it stops the
            # compute slice); a queued interrupt reaching the pump is
            # simply stale traffic.
            return self._rearm()
        if self._phase == "await_instruction":
            return self._on_instruction(msg)
        if self._phase == "gather":
            return self._on_gather_profile(msg)
        if self._phase == "recv_work":
            return self._on_work(msg)
        if self._phase == "done":
            return ()
        raise ProtocolError(
            f"message {msg!r} while in phase {self._phase!r}")

    def _rearm(self) -> tuple[C.Command, ...]:
        if self._phase == "await_instruction":
            return (self._await_instruction(),)
        if self._phase == "gather":
            return (self._await_profiles(),)
        if self._phase == "recv_work":
            return (self._await_work(),)
        return ()

    def _on_instruction(self, msg: Message) -> tuple[C.Command, ...]:
        if not isinstance(msg, InstructionMsg) or msg.epoch != self.epoch:
            return self._rearm()
        if msg.select_scheme:
            raise ProtocolError(
                "customized selection needs the session-aware adapter "
                "(strategy CUSTOM is simulation-only)")
        cmds: list[C.Command] = []
        if msg.grant:
            self.assignment.add(msg.grant)
            cmds += self._trace(
                "grant", epoch=self.epoch,
                iterations=sum(e - s for s, e in msg.grant))
        if msg.done:
            self.more_work = False
            self._phase = "done"
            return tuple(cmds + [C.Done("done")])
        srcs = msg.incoming_srcs if self.ft_enabled else None
        return tuple(cmds + self._apply_outcome(
            msg.outgoing, srcs, msg.incoming, msg.active, msg.retire))

    def _on_gather_profile(self, msg: Message) -> tuple[C.Command, ...]:
        if isinstance(msg, ProfileMsg) and msg.src in self._missing:
            if msg.epoch == self.epoch:
                self._profiles[msg.src] = self.sync_profile(msg)
                self._missing.discard(msg.src)
                self._rounds.pop(msg.src, None)
            elif is_stale(msg, self.epoch):
                # Stale duplicate: liveness evidence only.
                self._rounds[msg.src] = 0
        if not self._missing:
            return tuple(self._do_plan())
        return (self._await_profiles(),)

    def _on_work(self, msg: Message) -> tuple[C.Command, ...]:
        if not self.ft_enabled:
            if isinstance(msg, WorkMsg) and msg.epoch == self.epoch:
                if msg.ranges:
                    self.assignment.add(msg.ranges)
                self._pending_count -= 1
                if self._pending_count <= 0:
                    return tuple(self._finish_sync())
            return (C.AwaitMessage(tags=(Tag.WORK,), epoch=self.epoch),)
        src = self._pending_srcs[0]
        consumed = False
        if msg.src == src and msg.epoch == self.epoch:
            if isinstance(msg, WorkMsg):
                if msg.ranges:
                    self.assignment.add(msg.ranges)
                consumed = True
            elif isinstance(msg, ControlMsg) and msg.kind == "no-work":
                # The sender never owed us this parcel (plan divergence).
                consumed = True
        if not consumed:
            return (self._await_work(),)
        self._pending_srcs.pop(0)
        self._attempt = 0
        if self._pending_srcs:
            return (self._await_work(),)
        return tuple(self._finish_sync())

    # -- timeouts / failure detection --------------------------------------
    def _pump_timeout(self) -> tuple[C.Command, ...]:
        if not self.ft_enabled:
            raise ProtocolError("TimerFired with fault tolerance disabled")
        if self._phase == "await_instruction":
            if self._attempt >= self.ft.max_retries:
                # The master is reliable by assumption: exhaustion here
                # is unrecoverable rather than a declaration.
                raise ProtocolRetryExhausted(
                    self.me, self.lb_host, "instruction", self._attempt + 1)
            self._attempt += 1
            assert self._sent_profile is not None
            return (C.Send(self._sent_profile), self._await_instruction())
        if self._phase == "gather":
            return self._gather_timeout()
        if self._phase == "recv_work":
            return self._work_timeout()
        raise ProtocolError(
            f"TimerFired while in phase {self._phase!r}")

    def _gather_timeout(self) -> tuple[C.Command, ...]:
        cmds: list[C.Command] = []
        overdue = [p for p in sorted(self._missing)
                   if self._rounds[p] >= self.ft.max_retries]
        for peer in overdue:
            self.declare_peer_dead(peer)
            self._missing.discard(peer)
            self._rounds.pop(peer, None)
            cmds.append(C.DeclareDead(peer))
        if not self._missing:
            return tuple(cmds + self._do_plan())
        for peer in sorted(self._missing):
            self._rounds[peer] += 1
            cmds.append(C.Send(self.stamp(ControlMsg, dst=peer,
                                          kind="resend-profile")))
        return tuple(cmds + [self._await_profiles()])

    def _work_timeout(self) -> tuple[C.Command, ...]:
        src = self._pending_srcs[0]
        if self._attempt >= self.ft.max_retries:
            self.declare_peer_dead(src)
            self._pending_srcs.pop(0)
            self._attempt = 0
            cmds: list[C.Command] = [C.DeclareDead(src)]
            if self._pending_srcs:
                return tuple(cmds + [self._await_work()])
            return tuple(cmds + self._finish_sync())
        self._attempt += 1
        return (C.Send(self.stamp(ControlMsg, dst=src, kind="resend-work")),
                self._await_work())

    def _pump_peer_dead(self, peer: int) -> tuple[C.Command, ...]:
        self.declare_peer_dead(peer)
        if self._phase == "gather" and peer in self._missing:
            self._missing.discard(peer)
            self._rounds.pop(peer, None)
            if not self._missing:
                return tuple(self._do_plan())
            return (self._await_profiles(),)
        if self._phase == "recv_work" and self._pending_srcs \
                and self._pending_srcs[0] == peer:
            self._pending_srcs.pop(0)
            self._attempt = 0
            if self._pending_srcs:
                return (self._await_work(),)
            return tuple(self._finish_sync())
        return ()

    # -- elastic membership -------------------------------------------------
    def _pump_peer_joined(self, peer: int) -> tuple[C.Command, ...]:
        """Admit a joiner announced by the membership registrar.

        Backends deliver this at an epoch fence, normally while the
        worker is computing (no commands needed — the next sync simply
        includes the joiner); mid-wait delivery just re-arms the wait.
        """
        self.admit_peer(peer)
        if self._phase == "computing":
            return ()
        return self._rearm()

    def _pump_leave(self) -> tuple[C.Command, ...]:
        """Planned departure: hand all remaining work to the registrar.

        The backend honors a leave request only at an iteration
        boundary of the compute slice, so the in-flight iteration is
        finished (never duplicated) and everything still assigned ships
        back in one ``leave`` control message for re-granting.
        """
        if self._phase != "computing":
            raise ProtocolError(
                f"LeaveRequested while in phase {self._phase!r} "
                "(planned departures happen at iteration boundaries)")
        ranges = tuple(self.assignment.take_all())
        self.more_work = False
        self._phase = "done"
        return tuple(
            self._trace("leave", epoch=self.epoch,
                        iterations=sum(e - s for s, e in ranges))
            + [C.Send(self.stamp(ControlMsg, dst=self.lb_host,
                                 kind="leave", payload=ranges)),
               C.Done("left")])

    # -- plan application --------------------------------------------------
    def _do_plan(self) -> list[C.Command]:
        plan = self.local_plan(self._profiles.values())
        cmds: list[C.Command] = [C.Charge(self.policy.delta_seconds),
                                 C.RecordSync(self.group, self.epoch, plan)]
        cmds += self._trace(
            "decision", epoch=self.epoch, group=self.group,
            reason=plan.reason,
            moved=plan.work_to_move if plan.move else 0.0,
            n_transfers=len(plan.transfers))
        if plan.done:
            self.more_work = False
            self._phase = "done"
            return cmds + [C.Done("done")]
        retire_me = self.me in plan.retire
        srcs = tuple(t.src for t in plan.incoming(self.me))
        return cmds + self._apply_outcome(
            plan.outgoing(self.me), srcs if self.ft_enabled else None,
            len(srcs), plan.active, retire_me)

    def _apply_outcome(self, outgoing: Sequence[TransferOrder],
                       incoming_srcs: Optional[Sequence[int]],
                       incoming_count: int,
                       new_active: Sequence[int],
                       retire: bool) -> list[C.Command]:
        cmds: list[C.Command] = []
        for order, ranges, count in self.plan_outgoing(outgoing, retire):
            msg = self.make_work_msg(order.dst, self.epoch, ranges, count)
            self.cache_work(msg)
            cmds += self._trace("redistribute", epoch=self.epoch,
                                dst=order.dst, iterations=count,
                                work=order.work)
            cmds.append(C.Send(msg))
        # Elastic membership: a plan's active set may name nodes that
        # joined after this worker's construction — admit them before
        # intersecting, so only nodes *removed* by the plan drop out.
        for node in new_active:
            if node not in self.members:
                self.members = tuple(sorted((*self.members, node)))
        self.active = set(new_active) & set(self.members)
        self._retiring = retire
        if self.ft_enabled and incoming_srcs:
            self._pending_srcs = list(incoming_srcs)
            self._attempt = 0
            self._phase = "recv_work"
            return cmds + [self._await_work()]
        if not self.ft_enabled and incoming_count > 0:
            self._pending_count = incoming_count
            self._phase = "recv_work"
            return cmds + [C.AwaitMessage(tags=(Tag.WORK,),
                                          epoch=self.epoch)]
        return cmds + self._finish_sync()

    def _finish_sync(self) -> list[C.Command]:
        if self._retiring:
            self.more_work = False
            self._phase = "done"
            return [C.Done("retired")]
        self.advance_epoch()
        self._phase = "computing"
        return [C.StartCompute()]
