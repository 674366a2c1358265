"""The store-and-forward carry walks the same route the cost model reads.

``GraphNetwork`` takes each hop from its precomputed tables (the
topology's next-hop table and the network's per-edge table), while the
cost model reads :meth:`Topology.route` plus :meth:`Topology.params_for`.
These tests pin the two to the same sequence of resources and holds on
every source/destination pair, and pin the trace contract of the
per-link ``transfer`` spans.
"""

import dataclasses
import json

import pytest

from repro.network.graph import GraphNetwork
from repro.network.parameters import NetworkParameters
from repro.network.topology import Topology
from repro.obs.trace import NullRecorder, TraceRecorder
from repro.simulation import Environment, Resource

PARAMS = NetworkParameters(send_overhead=1e-3, recv_overhead=1.2e-3,
                           wire_latency=0.2e-3, bandwidth=1e6,
                           local_overhead=0.05e-3)
SLOW = NetworkParameters(wire_latency=7e-3, bandwidth=2.5e5)
FAST = NetworkParameters(wire_latency=0.05e-3, bandwidth=4e6)
NBYTES = 1500


def _with_overrides(topo):
    """``topo`` with two of its edges given their own link parameters."""
    edges = list(topo.edges)
    overrides = ((edges[0], SLOW), (edges[len(edges) // 2], FAST))
    return dataclasses.replace(topo, link_params=tuple(sorted(overrides)))


def _file_topology(tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({
        "n_hosts": 6,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [1, 4], [0, 5]],
        "links": [{"edge": [1, 4], "wire_latency": 3e-3},
                  {"edge": [2, 3], "bandwidth": 1.25e5}],
    }))
    return Topology.from_file(str(path))


def _topologies(tmp_path):
    return [
        _with_overrides(Topology.ring(7)),
        _with_overrides(Topology.mesh(12)),
        _with_overrides(Topology.torus(12)),
        _with_overrides(Topology.random_graph(10, extra_edges=4, seed=3)),
        _file_topology(tmp_path),
        Topology.complete(5),
        Topology.bus(5),
    ]


def _carried(monkeypatch, topo, src, dst):
    """``(resource name, hold)`` of every request one transfer makes."""
    log = []
    request = Resource.request

    def logged(self, delay=0.0):
        log.append((self.name, delay))
        return request(self, delay)

    monkeypatch.setattr(Resource, "request", logged)
    env = Environment()
    delivered = GraphNetwork(env, topo, PARAMS).post(src, dst, NBYTES)
    env.run()
    monkeypatch.undo()
    assert delivered.processed
    return log


def _from_route(topo, src, dst):
    """The same sequence derived from ``route()`` and ``params_for()``."""
    hops = []
    for u, v in topo.route(src, dst):
        name = ("ethernet-bus" if topo.shared_medium
                else f"link{min(u, v)}-{max(u, v)}")
        params = topo.params_for(u, v) or PARAMS
        hops.append((name, params.wire_time(NBYTES)))
    return ([(f"send-nic{src}", PARAMS.send_overhead)] + hops
            + [(f"recv-nic{dst}", PARAMS.recv_overhead)])


def test_walk_matches_route_on_every_pair(monkeypatch, tmp_path):
    for topo in _topologies(tmp_path):
        assert topo.n_hosts <= 12
        for src in range(topo.n_hosts):
            for dst in range(topo.n_hosts):
                if src == dst:
                    continue
                assert _carried(monkeypatch, topo, src, dst) == \
                    _from_route(topo, src, dst), (topo.kind, src, dst)


def test_overrides_are_on_the_walk(monkeypatch, tmp_path):
    """The per-edge overrides above are really crossed by some route."""
    holds = {hold for topo in _topologies(tmp_path)
             for _, hold in _carried(monkeypatch, topo, 0,
                                     topo.n_hosts - 1)}
    slow_or_fast = {SLOW.wire_time(NBYTES), FAST.wire_time(NBYTES)}
    assert holds & slow_or_fast


@pytest.mark.parametrize("shared", [False, True])
def test_unreachable_destination_raises_no_route(shared):
    topo = Topology.ring(4)
    # Cut the ring in two behind the constructor's connectivity check,
    # before anything derives adjacency or routes from the edge set.
    object.__setattr__(topo, "edges", ((0, 1), (2, 3)))
    object.__setattr__(topo, "shared_medium", shared)
    env = Environment()
    net = GraphNetwork(env, topo, PARAMS)
    net.post(0, 2, NBYTES)
    with pytest.raises(ValueError, match=r"no route 0->2"):
        env.run()


# -- the trace contract of the transfer spans ----------------------------

class _ExplodingRecorder(NullRecorder):
    """Disabled, and fails if anything records into it anyway."""

    __slots__ = ()

    def complete(self, *args, **kwargs):
        raise AssertionError("recorded into a disabled recorder")


def _contended_ring(recorder):
    """0->2 queues behind 1->2 on link 1-2; 3->0 crosses link 0-3.

    Send NICs take 1 ms each in parallel.  1->2 holds link 1-2 from
    1.0 to 4.2 ms (3000 B); 0->2 holds link 0-1 from 1.0 to 2.2 ms,
    then waits 2.0 ms for link 1-2 and holds it from 4.2 to 5.4 ms.
    """
    env = Environment()
    net = GraphNetwork(env, Topology.ring(4), PARAMS)
    net.recorder = recorder
    delivered = [net.post(0, 2, 1000), net.post(1, 2, 3000),
                 net.post(3, 0, 500)]
    env.run()
    assert all(ev.processed for ev in delivered)
    return env.now


def test_disabled_recorder_is_never_called():
    # 0->2 is delivered last: its link 1-2 hold ends at 5.4 ms, then
    # the receiver's NIC takes 1.2 ms.
    assert _contended_ring(_ExplodingRecorder()) == pytest.approx(6.6e-3)


def test_transfer_spans_keep_tracks_and_queueing():
    recorder = TraceRecorder(clock=lambda: 0.0)
    _contended_ring(recorder)
    spans = sorted(((e["ts"], e["track"], e["args"]["src"],
                     e["args"]["dst"], e["args"]["queued"])
                    for e in recorder.events() if e["name"] == "transfer"),
                   key=lambda s: (s[0], s[1]))
    expected = [
        (1.0e-3, "link:0-1", 0, 2, 0.0),
        (1.0e-3, "link:0-3", 3, 0, 0.0),
        (1.0e-3, "link:1-2", 1, 2, 0.0),
        (4.2e-3, "link:1-2", 0, 2, 2.0e-3),
    ]
    assert len(spans) == len(expected)
    for got, want in zip(spans, expected):
        assert got[1:4] == want[1:4]
        assert got[0] == pytest.approx(want[0])
        assert got[4] == pytest.approx(want[4], abs=1e-15)
