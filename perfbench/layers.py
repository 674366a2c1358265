"""Per-layer accounting for the traced run, measured from outside ``src/``.

:class:`LayerTracer` wraps each layer's public entry points where their
callers look them up, times every call, and keeps the spans in memory.
A layer's *self* time is its spans' duration minus the part covered by
nested wrapped spans, so the layers' self times add up to the traced
``run_loop`` wall time (the rest is ``runtime.self_s``).

Known gap: hop logic in ``network/graph.py`` and the generator bodies of
``runtime/node.py`` run as callbacks inside ``Environment.step``, so from
outside they land in the engine's self time.  The call counts still
separate the layers; attributing that time needs spans inside the
program.

Wrapped callers must be single-threaded (true for the simulator, the
socket backend's ``tasks`` mode and the process backend's children); the
process backend's children ship their totals back inside the
``repro.obs`` trace payload they already send at teardown.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from metrics import FRAME_TYPES

#: (layer, "module[:Class]", attributes).  ``None`` for the attributes
#: means every public function defined on the class.
TARGETS = (
    ("simulation.engine", "repro.simulation.engine:Environment", ("step",)),
    ("simulation.resources", "repro.simulation.resources:Resource",
     ("request", "release")),
    ("simulation.mailbox", "repro.simulation.mailbox:Mailbox",
     ("put", "get", "cancel", "cancel_all", "peek", "take", "drain")),
    ("network.graph", "repro.network.graph:GraphNetwork",
     ("transmit", "post")),
    ("machine.workstation", "repro.machine.workstation:Workstation",
     ("time_to_complete",)),
    ("protocol", "repro.protocol.worker:WorkerProtocol", None),
    ("protocol", "repro.protocol.balancer:BalancerProtocol", None),
    ("core.redistribution", "repro.protocol.worker",
     ("plan_redistribution",)),
    ("core.redistribution", "repro.protocol.balancer",
     ("plan_redistribution",)),
    ("core.model", "repro.core.decision", ("rank_strategies",)),
    ("message.frames.encode", "repro.backend.socket", ("encode_frame",)),
    ("message.frames.decode", "repro.message.frames:FrameDecoder",
     ("feed",)),
)

#: Name of the instant a process-backend child appends to its trace
#: payload, carrying that child's per-layer totals.
CHILD_TOTALS = "perfbench.layers"

#: Spans kept for the Perfetto dump; later spans are counted as dropped.
SPAN_CAPACITY = 200_000


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _public_functions(cls) -> tuple[str, ...]:
    return tuple(name for name, value in vars(cls).items()
                 if not name.startswith("_") and inspect.isfunction(value))


def targets() -> list[tuple[str, object, str]]:
    """Every ``(layer, owner, attribute)`` the tracer patches."""
    out = []
    for layer, path, attrs in TARGETS:
        owner = _resolve(path)
        for attr in attrs or _public_functions(owner):
            out.append((layer, owner, attr))
    return out


class LayerTracer:
    """Per-layer call counts and self time, plus the raw spans."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: layer -> [calls, self seconds, items yielded]
        self.totals: dict[str, list] = {}
        #: encoded frames by type name
        self.frames: dict[str, int] = {}
        #: socket worker node -> perf_counter origin of its trace clock
        self.node_origin: dict[int, float] = {}
        self.spans: list[tuple[str, float, float]] = []
        self.dropped = 0
        self._stack: list[float] = []
        self.t0 = time.perf_counter()

    # -- span bookkeeping ------------------------------------------------
    def _close(self, layer: str, start: float) -> None:
        end = time.perf_counter()
        dur = end - start
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dur
        acc = self.totals.get(layer)
        if acc is None:
            acc = self.totals[layer] = [0, 0.0, 0]
        acc[1] += dur - child
        if len(self.spans) < SPAN_CAPACITY:
            self.spans.append((layer, start, dur))
        else:
            self.dropped += 1

    def _count(self, layer: str, items: int = 0) -> None:
        acc = self.totals.get(layer)
        if acc is None:
            acc = self.totals[layer] = [0, 0.0, 0]
        acc[0] += 1
        acc[2] += items

    def span(self, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside one counted span of ``layer``."""
        self._count(layer)
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(layer, start)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self._count(layer)
                return self._timed_generator(layer, fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(layer, fn, *args, **kwargs)
        return wrapper

    def _timed_generator(self, layer: str, gen) -> Iterator:
        """Forward ``gen`` like ``yield from``, timing every resume."""
        send, throw = None, None
        while True:
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                item = gen.throw(throw) if throw is not None \
                    else gen.send(send)
            except StopIteration as stop:
                return stop.value
            finally:
                self._close(layer, start)
            self.totals[layer][2] += 1
            try:
                send, throw = (yield item), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into gen, as yield from
                send, throw = None, exc

    # -- installation ----------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Patch every target (and the process/socket plumbing) for the
        duration of the block; the originals come back on exit, also
        when the block raises."""
        saved: list[tuple[object, str, object]] = []

        def patch(owner, attr, new) -> None:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)

        try:
            for layer, owner, attr in targets():
                patch(owner, attr, self._wrap(layer, getattr(owner, attr)))
            for owner, attr, new in self._plumbing():
                patch(owner, attr, new)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _plumbing(self) -> list[tuple[object, str, object]]:
        """Patches that carry measurements rather than take them."""
        process = importlib.import_module("repro.backend.process")
        socket = importlib.import_module("repro.backend.socket")
        tracer = self
        worker_main = process._worker_main
        child_trace = process._ChildReporter.trace
        client_init = socket._ClientReporter.__init__
        encode = vars(socket)["encode_frame"]

        def worker_main_fresh(*args, **kwargs):
            # A forked child starts with a copy of the parent's totals.
            tracer.reset()
            return worker_main(*args, **kwargs)

        def trace_with_totals(reporter, payload):
            payload["events"].append({
                "name": CHILD_TOTALS, "ph": "i", "ts": reporter.now(),
                "track": f"node{reporter.me}",
                "args": {"totals": tracer.totals}})
            return child_trace(reporter, payload)

        def client_init_noting_origin(reporter, writer, me):
            client_init(reporter, writer, me)
            tracer.node_origin[me] = reporter.t0

        def encode_counting_types(ftype, body=None):
            tracer.frames[ftype.name] = tracer.frames.get(ftype.name, 0) + 1
            return encode(ftype, body)

        # encode_frame is wrapped twice: the timed layer wrapper installed
        # first is what this counter calls through.
        return [(process, "_worker_main", worker_main_fresh),
                (process._ChildReporter, "trace", trace_with_totals),
                (socket._ClientReporter, "__init__",
                 client_init_noting_origin),
                (socket, "encode_frame", encode_counting_types)]

    def absorb_children(self, events: list[dict]) -> None:
        """Fold process-backend children's totals into this tracer."""
        for event in events:
            if event.get("name") != CHILD_TOTALS:
                continue
            for layer, (calls, self_s, items) in event["args"]["totals"].items():
                acc = self.totals.setdefault(layer, [0, 0.0, 0])
                acc[0] += calls
                acc[1] += self_s
                acc[2] += items

    def chrome_events(self) -> list[dict]:
        """The kept spans in ``repro.obs`` event shape (seconds since the
        tracer was created), for ``repro.obs.export.write_trace``."""
        return [{"name": layer, "ph": "X", "ts": start - self.t0, "dur": dur,
                 "track": "perfbench", "args": {}}
                for layer, start, dur in self.spans]


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced run.
# ---------------------------------------------------------------------------
def node_of(track: str) -> Optional[int]:
    return int(track[4:]) if track.startswith("node") else None


def layer_metrics(tracer: LayerTracer, stats, events: list[dict], *,
                  inp, wall_s: float, t_call: float, t_return: float,
                  t0_run: Optional[float], calibrate_s: float) -> dict:
    """Every per-layer metric of one traced run (0 where a layer is
    bypassed).  ``t0_run`` is the absolute ``perf_counter`` origin of the
    backend's trace clock (process backend); socket workers each have
    their own, recorded in ``tracer.node_origin``."""
    tracer.absorb_children(events)
    tot = tracer.totals

    def calls(*layers: str) -> int:
        return sum(tot.get(layer, (0, 0.0, 0))[0] for layer in layers)

    def self_s(*layers: str) -> float:
        return sum(tot.get(layer, (0, 0.0, 0))[1] for layer in layers)

    m: dict[str, float] = {}
    events_n = calls("simulation.engine")
    m["simulation.engine.events"] = events_n
    m["simulation.engine.self_s"] = self_s("simulation.engine")
    for layer in ("simulation.resources", "simulation.mailbox",
                  "network.graph", "machine.workstation", "protocol"):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.self_s"] = self_s(layer)
    msgs = int(stats.network_messages) if inp.is_des else 0
    m["network.messages"] = msgs
    m["network.events_per_msg"] = events_n / msgs if msgs else 0.0
    m["protocol.syncs"] = stats.n_syncs
    m["protocol.moves"] = stats.n_redistributions
    m["protocol.useful_sync_frac"] = \
        stats.n_redistributions / stats.n_syncs if stats.n_syncs else 0.0
    m["core.redistribution.plans"] = calls("core.redistribution")
    m["core.redistribution.self_s"] = self_s("core.redistribution")
    m["core.model.calls"] = calls("core.model")
    m["core.model.self_s"] = self_s("core.model")
    m["runtime.self_s"] = self_s("runtime")

    # -- real backends, from the repro.obs trace ------------------------
    table = inp.loop.work_table()
    origin = {}
    computes: dict[int, list[tuple[float, float, int]]] = {}
    syncs: dict[int, list[float]] = {}
    if not inp.is_des:
        for e in events:
            node = node_of(e.get("track", ""))
            if node is None:
                continue
            if e["name"] == "compute" and e.get("ph") == "X":
                computes.setdefault(node, []).append(
                    (e["ts"], e["dur"], e["args"].get("iteration", 0)))
            elif e["name"] == "sync":
                syncs.setdefault(node, []).append(e["ts"])
        for node in computes:
            origin[node] = tracer.node_origin.get(node, t0_run)
    spans = [(origin[node] + ts, dur, it)
             for node, rows in computes.items() for ts, dur, it in rows]
    compute_s = sum(dur for _, dur, _ in spans)
    m["backend.compute_s"] = compute_s
    m["backend.idle_frac"] = \
        1.0 - compute_s / (inp.n_workers * wall_s) if spans else 0.0
    m["backend.spawn_s"] = \
        min(s for s, _, _ in spans) - t_call if spans else 0.0
    m["backend.teardown_s"] = \
        t_return - max(s + d for s, d, _ in spans) if spans else 0.0
    rtts = []
    for node, marks in syncs.items():
        starts = sorted(ts for ts, _, _ in computes.get(node, ()))
        for mark in marks:
            later = [s for s in starts if s >= mark]
            if later:
                rtts.append((later[0] - mark) * 1000.0)
    m["backend.sync_rtt_ms.p50"] = statistics.median(rtts) if rtts else 0.0
    m["backend.sync_rtt_ms.max"] = max(rtts) if rtts else 0.0
    m["backend.sync_rtt_ms.samples"] = len(rtts)
    kernel = inp.name == "process-trfd"
    m["backend.kernels.calibrate_s"] = calibrate_s if kernel else 0.0
    scale = getattr(inp.backend, "time_scale", 1.0)
    nominal = scale * sum(table.range_work(it, it + 1) for _, _, it in spans)
    m["backend.kernels.achieved_over_calibrated"] = \
        nominal / compute_s if kernel and compute_s else 0.0

    m["message.frames.encoded"] = calls("message.frames.encode")
    m["message.frames.decoded"] = tot.get("message.frames.decode",
                                          (0, 0.0, 0))[2]
    m["message.frames.self_s"] = self_s("message.frames.encode",
                                        "message.frames.decode")
    for name in FRAME_TYPES:
        m[f"message.frames.by_type.{name}"] = tracer.frames.get(name, 0)
    m["message.transport_bytes"] = stats.transport_payload_bytes
    m["message.shm_bytes"] = stats.shm_data_bytes
    return m
