"""Graph-topology network transport: the generalized substrate S3.

:class:`GraphNetwork` carries messages over an explicit
:class:`~repro.network.topology.Topology` instead of assuming the
paper's shared Ethernet bus.  Every message still crosses the same three
serialization points as the original bus model:

1. the **sender's NIC/protocol stack** (``send_overhead``, one outgoing
   message at a time);
2. the **wire** — but now one :class:`~repro.simulation.Resource` *per
   link*, traversed store-and-forward along the deterministic
   shortest-path route, each hop costing that link's
   ``wire_latency + nbytes/bandwidth``.  A ``shared_medium`` topology
   (the bus) maps every link onto a single wire resource, so all frames
   serialize globally exactly as before;
3. the **receiver's NIC/protocol stack** (``recv_overhead``, paid once
   at the final destination).

Intermediate hops model cut-through switch ports: they hold the link,
not the forwarding host, so a relay host's NICs (and its crash state —
see docs/TOPOLOGY.md for the fault-model consequences) never gate
traffic passing through it.

For a ``shared_medium`` complete graph this reduces to *exactly* the
resource-acquisition sequence of the original ``SharedBusNetwork``
(same resources, created in the same order, held for the same times),
which is what keeps the seed oracles bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional, Protocol

from ..obs.trace import NULL_RECORDER
from ..simulation import Environment, Event, Resource
from .parameters import NetworkParameters
from .topology import Topology, TopologySpec, resolve_topology

__all__ = ["GraphNetwork", "NetworkModel", "NetworkStats", "build_network"]


@dataclass
class NetworkStats:
    """Aggregate transport statistics for a run."""

    messages: int = 0
    bytes: int = 0
    local_messages: int = 0
    dropped_messages: int = 0
    delayed_messages: int = 0
    per_host_sent: dict[int, int] = field(default_factory=dict)
    per_host_received: dict[int, int] = field(default_factory=dict)

    def record(self, src: int, dst: int, nbytes: int, local: bool) -> None:
        self.messages += 1
        self.bytes += nbytes
        if local:
            self.local_messages += 1
        self.per_host_sent[src] = self.per_host_sent.get(src, 0) + 1
        self.per_host_received[dst] = self.per_host_received.get(dst, 0) + 1


class NetworkModel(Protocol):
    """What the message layer and fault controller require of a network.

    Any transport with this surface can back a
    :class:`~repro.message.VirtualMachine`: :meth:`transmit` is the
    sender-side generator returning a delivery event, and the three
    hooks are the observation/fault-injection points.
    """

    env: Environment
    n_hosts: int
    params: NetworkParameters
    stats: NetworkStats
    on_deliver: Optional[Callable[[int, Any], None]]
    fault_hook: Optional[Callable[[int, int, int, Any], "None | str | float"]]
    on_drop: Optional[Callable[[int, int, Any], None]]

    def transmit(self, src: int, dst: int, nbytes: int,
                 item: Any = None) -> Generator[Event, None, Event]: ...

    def post(self, src: int, dst: int, nbytes: int,
             item: Any = None) -> Event: ...


class _Carry:
    """Callback-driven store-and-forward carry of one message.

    Walks the route one stage at a time — each link, then the
    receiver's NIC — as ``request(hold)`` → release, with no generator
    frame or Process object.  Each stage costs one engine event: the
    resource schedules the end of the hold when it grants the request
    (see :meth:`Resource.request`).  Holds take their sequence numbers
    in grant order, which keeps the seed oracles
    (tests/protocol/test_scale_seed_identity.py) bit-identical; the
    argument is in docs/PERFORMANCE.md, "The DES hot path".

    A hop is two table lookups: the next host from the topology's
    next-hop table, then the ``(resource, parameters, track)`` entry
    for that directed edge from the network's edge table.  ``here`` is
    the host the message sits at; ``-1`` once the receiver's NIC is
    held.
    """

    __slots__ = ("net", "src", "dst", "nbytes", "item", "delivered",
                 "here", "res", "hold", "track", "t_req")

    def __init__(self, net: "GraphNetwork", src: int, dst: int, nbytes: int,
                 item: Any, delivered: Event, extra_delay: float) -> None:
        self.net = net
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.item = item
        self.delivered = delivered
        self.here = src
        self.res: Optional[Resource] = None
        self.hold = 0.0
        self.track: Optional[str] = None
        self.t_req = 0.0
        if extra_delay > 0:
            net.env.timeout(extra_delay).callbacks.append(self._next_stage)
        else:
            self._next_stage()

    def _next_stage(self, _event: Optional[Event] = None) -> None:
        net = self.net
        here = self.here
        dst = self.dst
        if here == dst:
            res = net.recv_nic[dst]
            hold = net.params.recv_overhead
            self.track = None
            self.here = -1
        elif here < 0:
            net.stats.record(self.src, dst, self.nbytes, local=False)
            net._deliver(dst, self.item, self.delivered)
            return
        else:
            next_hop = net._next_hop
            there = dst if next_hop is None else next_hop[dst][here]
            if there < 0:
                raise ValueError(f"no route {self.src}->{dst}")
            hops = net._hops
            if hops is None:  # shared medium: every edge is the one wire
                res, params, self.track = \
                    net.bus, net.link_params(here, there), "link:bus"
            else:
                res, params, self.track = hops[(here, there)]
            hold = params.wire_time(self.nbytes)
            self.here = there
        self.res = res
        self.hold = hold
        self.t_req = net.env.now
        res.request(hold).callbacks.append(self._release)

    def _release(self, req: Event) -> None:
        self.res.release(req)
        recorder = self.net.recorder
        if recorder.enabled and self.track is not None:
            # Wire occupancy (plus queueing behind earlier frames, as an
            # arg): recorded inside the existing release callback, so no
            # extra DES events — the seed oracles stay bit-identical.
            now = self.net.env.now
            recorder.complete(
                "transfer", now - self.hold, self.hold,
                track=self.track, src=self.src, dst=self.dst,
                nbytes=self.nbytes,
                queued=max(now - self.hold - self.t_req, 0.0))
        self._next_stage()


class GraphNetwork:
    """Hosts connected by an arbitrary graph of point-to-point links."""

    def __init__(self, env: Environment, topology: Topology,
                 params: Optional[NetworkParameters] = None) -> None:
        if topology.n_hosts < 1:
            raise ValueError("need at least one host")
        self.env = env
        self.topology = topology
        self.n_hosts = topology.n_hosts
        self.params = params or NetworkParameters()
        # Resource creation order matters for event-queue tie-breaking:
        # wire(s) first, then send NICs, then recv NICs — the exact order
        # the original SharedBusNetwork used.
        #: Edge table: each directed edge ``(u, v)`` maps to its wire
        #: resource, effective parameters and trace track, so a hop is
        #: one lookup.  ``None`` for the shared medium: one wire for
        #: every edge, and the bus edge set is O(P^2).
        self._hops: Optional[dict[tuple[int, int],
                                  tuple[Resource, NetworkParameters,
                                        str]]] = None
        self._next_hop = topology.next_hop
        if topology.shared_medium:
            self.bus = Resource(env, capacity=1, name="ethernet-bus")
        else:
            self._hops = {}
            for u, v in topology.edges:
                entry = (Resource(env, capacity=1, name=f"link{u}-{v}"),
                         self.link_params(u, v), f"link:{u}-{v}")
                self._hops[(u, v)] = self._hops[(v, u)] = entry
        self.send_nic = [Resource(env, name=f"send-nic{i}")
                         for i in range(self.n_hosts)]
        self.recv_nic = [Resource(env, name=f"recv-nic{i}")
                         for i in range(self.n_hosts)]
        self.stats = NetworkStats()
        #: Optional hook called as ``on_deliver(dst, item)`` at delivery time.
        self.on_deliver: Optional[Callable[[int, Any], None]] = None
        #: Optional fault hook consulted per transfer *before* it enters
        #: the wire: ``fault_hook(src, dst, nbytes, item)`` returns
        #: ``None`` (deliver normally), ``"drop"`` (the message vanishes
        #: after the sender-side cost — PVM reports no error to the
        #: sender), or a positive float (extra seconds of delay on the
        #: wire).  Installed by :class:`repro.faults.FaultController`.
        self.fault_hook: Optional[Callable[[int, int, int, Any],
                                           "None | str | float"]] = None
        #: Optional observer for dropped messages: ``on_drop(src, dst, item)``.
        self.on_drop: Optional[Callable[[int, int, Any], None]] = None
        #: Trace sink for per-link transfer spans; the executor swaps in
        #: the run's recorder when tracing is enabled.
        self.recorder = NULL_RECORDER

    def _check_host(self, host: int) -> None:
        if not 0 <= host < self.n_hosts:
            raise ValueError(f"host {host} out of range 0..{self.n_hosts - 1}")

    def link(self, u: int, v: int) -> Resource:
        """The wire resource for the (undirected) edge ``u - v``."""
        if self._hops is None:
            return self.bus
        return self._hops[(u, v)][0]

    def link_params(self, u: int, v: int) -> NetworkParameters:
        """Effective parameters on edge ``u - v`` (override or default)."""
        return self.topology.params_for(u, v) or self.params

    def transmit(self, src: int, dst: int, nbytes: int,
                 item: Any = None) -> Generator[Event, None, Event]:
        """Send ``nbytes`` (+ payload ``item``) from ``src`` to ``dst``.

        A generator to ``yield from`` inside a simulated process.  It
        completes once the sender-side overhead has been paid and returns
        a *delivery event* that fires (with ``item`` as its value) when
        the message reaches ``dst``.
        """
        self._check_host(src)
        self._check_host(dst)
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        delivered = self.env.event()
        if src == dst:
            # Same-host transfers never touch the wire; local delivery is
            # assumed reliable (no fault hook consultation).
            yield from self.send_nic[src].use(self.params.local_overhead)
            self.stats.record(src, dst, nbytes, local=True)
            self._deliver(dst, item, delivered)
            return delivered
        verdict = None
        if self.fault_hook is not None:
            verdict = self.fault_hook(src, dst, nbytes, item)
        yield from self.send_nic[src].use(self.params.send_overhead)
        if verdict == "drop":
            # The frame is lost on the wire: the sender has paid its NIC
            # cost (asynchronous sends report no error) and the delivery
            # event simply never fires.
            self.stats.dropped_messages += 1
            if self.on_drop is not None:
                self.on_drop(src, dst, item)
            return delivered
        extra = float(verdict) if isinstance(verdict, (int, float)) else 0.0
        if extra > 0:
            self.stats.delayed_messages += 1
        _Carry(self, src, dst, nbytes, item, delivered, extra)
        return delivered

    def _deliver(self, dst: int, item: Any, delivered: Event) -> None:
        if self.on_deliver is not None:
            self.on_deliver(dst, item)
        delivered.succeed(item)

    # -- convenience: fire-and-forget send -------------------------------
    def post(self, src: int, dst: int, nbytes: int, item: Any = None) -> Event:
        """Spawn a detached process performing :meth:`transmit`.

        Returns the delivery event.  Used when the sender should not be
        charged in-line (e.g. test harnesses); protocol code should
        prefer ``yield from transmit(...)`` so sender cost is modeled.
        """
        delivered = self.env.event()

        def runner() -> Generator[Event, None, None]:
            inner = yield from self.transmit(src, dst, nbytes, item)
            value = yield inner
            if not delivered.triggered:
                delivered.succeed(value)

        self.env.process(runner(), name=f"post:{src}->{dst}")
        return delivered


def build_network(env: Environment, spec: TopologySpec, n_hosts: int,
                  params: Optional[NetworkParameters] = None) -> GraphNetwork:
    """Build the transport for a topology spec (``None`` => shared bus)."""
    return GraphNetwork(env, resolve_topology(spec, n_hosts), params)
