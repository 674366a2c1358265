"""The benchmark's workloads: inputs built from a seed, one closed run,
and the checks that decide whether a run counts as correct.

Each run is one ``repro.run_loop`` call; the next starts only after the
previous returns (a closed loop with one client).  Load is sized for a
2-core host: the DES is single-threaded, and the real backends use two
workers under the distributed GDDLB scheme, so no balancer process
competes with them for a core.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

NAMES = ("des-ring", "des-bus-custom", "process-trfd", "socket-trfd")

#: Times each workload reports rescaled to the reference host speed
#: (see ``metrics.SpeedSampler``): the DES runs, one core busy end to end.
#: ``setup_s`` is always rescaled.  The process backend prices its burn
#: by a calibration taken just before each run, so its times already
#: follow the host's speed.  The socket backend sleeps through most of a
#: run, so its wall time does not follow the host's speed and stays raw;
#: its CPU time does (over five 28 s measurements, spread 12.3% raw
#: against 9.3% rescaled).
RESCALED = {
    "des-ring": ("wall_s", "cpu_s"),
    "des-bus-custom": ("wall_s", "cpu_s"),
    "process-trfd": (),
    "socket-trfd": ("cpu_s",),
}

DEFAULT_SEED = 7
#: A second pinned seed that no sizing decision was made on.
HELD_OUT_SEED = 11

#: The DES load realizations every run of the benchmark cycles through.
#: A realization changes a DES run's cost a lot (des-bus-custom over
#: seeds 1-12: 14,185 to 24,143 messages, LCDLB or LDDLB selected), so
#: drawing it from ``--seed`` would make the spread across seeds a
#: property of the inputs rather than of the code.  ``--seed`` orders
#: the pool; both realizations are pinned.
DES_LOADS = (DEFAULT_SEED, HELD_OUT_SEED)

#: Exact DES outputs per (workload, seed).  The simulated duration is a
#: model output, not a speed: any change to it is a model change.
PINS = {
    ("des-ring", 7): {"duration": 0.21859216666666684, "messages": 13529,
                      "syncs": 57, "moves": 39, "selected": None},
    ("des-ring", 11): {"duration": 0.21652500000000025, "messages": 12968,
                       "syncs": 53, "moves": 35, "selected": None},
    ("des-bus-custom", 7): {"duration": 9.624103250001554, "messages": 21836,
                            "syncs": 22, "moves": 13, "selected": "LDDLB"},
    ("des-bus-custom", 11): {"duration": 8.800809666665293,
                             "messages": 14185, "syncs": 42, "moves": 22,
                             "selected": "LCDLB"},
}


#: One long calibration sample instead of the library's best of three
#: short ones: on the 2-core host the bounds were set on, single-core
#: speed jumped by a third between 10 ms windows, and every iteration's
#: op count is priced by the cached reading.
CALIBRATION = {"sample_ops": 1_000_000, "repeats": 1, "fresh": True}


@dataclass
class Inputs:
    """Everything one run needs, built once per process."""

    name: str
    seed: int
    loop: object
    cluster: object
    strategy: str
    options: object
    #: ``None`` for the simulator, else an ExecutionBackend instance.
    backend: Optional[object]
    #: A tiny loop on the same path, run once during set-up so lazy
    #: imports, kernel calibration and process/socket start-up are paid
    #: before the timed runs.
    warmup_loop: object
    warmup_cluster: object
    #: Reduced sizes for the self-test (never pinned).
    smoke: bool = False

    @property
    def is_des(self) -> bool:
        return self.backend is None

    @property
    def n_workers(self) -> int:
        return self.cluster.n_processors


def _des(name: str, seed: int, *, rows: int, cols: int, procs: int,
         topology: str, strategy: str, group_size: int) -> Inputs:
    from repro import ClusterSpec, MxmConfig, RunOptions
    from repro.apps import mxm_loop

    def cluster(n: int):
        return ClusterSpec.homogeneous(n, max_load=5, persistence=0.5,
                                       seed=seed)

    options = RunOptions(topology=topology, group_size=group_size)
    return Inputs(
        name=name, seed=seed,
        loop=mxm_loop(MxmConfig(rows, cols, cols)),
        cluster=cluster(procs), strategy=strategy, options=options,
        backend=None,
        warmup_loop=mxm_loop(MxmConfig(16, 8, 8)), warmup_cluster=cluster(8))


def _real(name: str, seed: int, *, trfd_n: int, backend: object) -> Inputs:
    from repro import ClusterSpec, RunOptions, TrfdConfig
    from repro.apps.trfd import trfd_loop2

    # The raw triangular loop: decreasing iteration costs make the
    # equal-block start imbalanced, so runs redistribute.  The seed only
    # fixes the (unused) load realization; real backends take their
    # timing from the host.
    cluster = ClusterSpec.homogeneous(2, seed=seed)
    return Inputs(
        name=name, seed=seed,
        loop=trfd_loop2(TrfdConfig(trfd_n), bitonic=False),
        cluster=cluster, strategy="GDDLB", options=RunOptions(),
        backend=backend,
        warmup_loop=trfd_loop2(TrfdConfig(4), bitonic=False),
        warmup_cluster=cluster)


def build(name: str, seed: int, smoke: bool = False) -> Inputs:
    """The inputs of workload ``name``; ``smoke`` shrinks them for the
    self-test while keeping every mechanism the workload exists for."""
    inp = _build(name, seed, smoke)
    inp.smoke = smoke
    return inp


def _build(name: str, seed: int, smoke: bool) -> Inputs:
    if name == "des-ring":
        # Store-and-forward routing on a ring: every hop is a Resource
        # request/grant/release, so the network model and the resource
        # layer do the most work per message.
        if smoke:
            return _des(name, seed, rows=256, cols=50, procs=32,
                        topology="ring", strategy="LDDLB", group_size=8)
        return _des(name, seed, rows=2048, cols=100, procs=256,
                    topology="ring", strategy="LDDLB", group_size=16)
    if name == "des-bus-custom":
        # The paper's §4.3 customization on one shared wire: the cost
        # model ranks the strategies at the first sync; large data moves,
        # single-hop messages.
        if smoke:
            return _des(name, seed, rows=768, cols=200, procs=24,
                        topology="bus", strategy="CUSTOM", group_size=8)
        return _des(name, seed, rows=6144, cols=400, procs=192,
                    topology="bus", strategy="CUSTOM", group_size=16)
    if name == "process-trfd":
        from repro.backend.process import ProcessBackend
        # A quarter of the nominal time per iteration: a run (~0.6 s on
        # 2 cores) then fits inside one of the host's speed phases, so
        # the rate calibrated just before it still holds while it runs.
        return _real(name, seed, trfd_n=24 if smoke else 40,
                     backend=ProcessBackend(kernel="ops", time_scale=0.25))
    if name == "socket-trfd":
        from repro.backend.socket import SocketBackend
        # A quarter of the nominal time per iteration, as on processes:
        # about 33 runs in 28 s instead of 11, and fewer idle wake-ups,
        # whose CPU cost follows the host's state (spread of raw cpu_s:
        # 14.7% over ten measurements at time_scale 1, 5.5% over five
        # here).  With much less sleep the run turns CPU-bound, DLB finds
        # little to move, and the hub's 20 ms completion poll quantizes
        # wall_s (time_scale 0.02: spread 16%).
        return _real(name, seed, trfd_n=24 if smoke else 40,
                     backend=SocketBackend(workers="tasks", time_scale=0.25))
    raise ValueError(f"unknown workload {name!r} (expected one of {NAMES})")


def build_all(name: str, seed: int, smoke: bool = False) -> list[Inputs]:
    """The inputs one run of the benchmark cycles through, in order."""
    if name.startswith("des-"):
        import random
        loads = random.Random(seed).sample(DES_LOADS, len(DES_LOADS))
        return [build(name, load, smoke) for load in loads]
    return [build(name, seed, smoke)]


def run_once(inp: Inputs, recorder: Optional[object] = None,
             loop: Optional[object] = None, cluster: Optional[object] = None):
    """One closed ``run_loop`` call; returns its ``LoopRunStats``."""
    from repro import run_loop
    options = inp.options if recorder is None \
        else inp.options.but(recorder=recorder)
    return run_loop(loop or inp.loop, cluster or inp.cluster, inp.strategy,
                    options, backend=inp.backend)


def prepare(inp: Inputs) -> float:
    """The set-up after inputs exist: kernel calibration (process
    backend) and one minimal run on the workload's own path.  Returns the
    calibration's seconds (0 where nothing is calibrated)."""
    calibrate_s = 0.0
    if inp.name == "process-trfd":
        from repro.backend.kernels import calibrate_ops_rate
        start = time.perf_counter()
        calibrate_ops_rate(**CALIBRATION)
        calibrate_s = time.perf_counter() - start
    run_once(inp, loop=inp.warmup_loop, cluster=inp.warmup_cluster)
    return calibrate_s


def before_run(inp: Inputs) -> None:
    """Untimed, before every run: the process backend prices iterations
    with the cached kernel rate, so re-calibrate, as every fresh
    ``repro run`` process does, rather than let one reading skew every
    run of this process."""
    if inp.name == "process-trfd":
        from repro.backend.kernels import calibrate_ops_rate
        calibrate_ops_rate(**CALIBRATION)


def outputs(stats) -> dict:
    """The run outputs the checks compare."""
    return {"duration": float(stats.duration),
            "messages": int(stats.network_messages),
            "syncs": int(stats.n_syncs),
            "moves": int(stats.n_redistributions),
            "selected": stats.selected_scheme}


def check(inp: Inputs, stats, first: Optional[dict]) -> list[str]:
    """Why this run is wrong (empty when it is correct).

    ``run_loop`` has already audited exactly-once coverage (and, on the
    process backend, the shared-memory stamps) or raised.  On top of
    that: DES outputs must equal the pins for a pinned seed and the
    first run of this process for any seed, and each workload's
    mechanism must have fired: every DES run redistributes, every real
    run synchronizes (whether a real run moves work depends on the
    host's timing, so :func:`check_moves` judges moves over all runs).
    """
    from repro.runtime import equal_block_partition

    errors = []
    out = outputs(stats)
    parts = equal_block_partition(inp.loop.n_iterations, inp.n_workers)
    if min(p.count for p in parts) < 1:
        errors.append("a workstation starts with no iteration")
    if inp.is_des:
        if out["moves"] < 1:
            errors.append(f"no redistribution ({out['syncs']} syncs)")
        pin = None if inp.smoke else PINS.get((inp.name, inp.seed))
        if pin is not None and out != pin:
            errors.append(f"outputs {out} differ from pin {pin}")
        if first is not None and out != first:
            errors.append(f"outputs {out} differ from the first run {first}")
        if inp.strategy == "CUSTOM" and out["selected"] is None:
            errors.append("the customized scheme selected nothing")
    else:
        if out["syncs"] < 1:
            errors.append("no synchronization")
        if inp.name == "socket-trfd" and not stats.payload_by_frame.get("MSG"):
            errors.append("no MSG frame carried a protocol message")
    return errors


def check_moves(inp: Inputs, moves: list[int]) -> list[str]:
    """Over all correct runs of a real workload, work must have moved."""
    if inp.is_des or not moves or sum(moves) > 0:
        return []
    return [f"none of {len(moves)} runs redistributed"]
