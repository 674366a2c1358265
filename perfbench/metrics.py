"""Metric names, units and directions; ``BENCHMARK.json`` mirrors them
and ``selftest.py`` checks that it does.  Also the host-speed sampler
that CPU-bound times are rescaled by."""

import signal
import statistics
import time

#: Iterations per second of :class:`SpeedSampler`'s loop that CPU-bound
#: times are rescaled to (about the median of the 2-core host the bounds
#: were set on).
REFERENCE_RATE = 20e6

#: Wall seconds between :class:`SpeedSampler` samples.
SAMPLE_INTERVAL = 0.05

#: Iterations of the fixed loop one sample times (~0.75 ms).
SAMPLE_ITERATIONS = 15_000


class SpeedSampler:
    """Samples the host's speed while a timed block runs.

    On the 2-core host the bounds were set on, single-core speed changed
    by up to a third within seconds and by a fifth over minutes.  Every
    ``SAMPLE_INTERVAL`` seconds of wall time a ``SIGALRM`` handler times
    a fixed pure-Python multiply-add loop inside the block; ``speed``
    is the median rate, and ``spent`` the seconds the samples took,
    which the caller subtracts from the block's wall and CPU time.
    Main thread only (signals).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _loop(self) -> float:
        """Seconds the fixed loop takes now."""
        x = 1.0
        start = time.perf_counter()
        for _ in range(SAMPLE_ITERATIONS):
            x = x * 1.0000001 + 1e-9
        return time.perf_counter() - start

    def _sample(self, *_signal) -> None:
        took = self._loop()
        self.samples.append(SAMPLE_ITERATIONS / took)
        self.spent += took

    @property
    def speed(self) -> float:
        """Median loop iterations per second (one reading taken now if
        the block was shorter than one interval)."""
        if not self.samples:
            return SAMPLE_ITERATIONS / self._loop()
        return statistics.median(self.samples)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

FRAME_TYPES = ("HELLO", "WELCOME", "MSG", "PING", "PONG", "LEAVE", "MEMBER",
                "DEATH", "GRANT", "STAT", "CTRL", "BYE", "ERR", "TRACE")

#: name -> (unit, better); every one is printed by ``--trace 1``, as 0
#: where the workload bypasses the layer.
PER_LAYER = {
    "simulation.engine.events": ("count", "lower"),
    "simulation.engine.self_s": ("s", "lower"),
    "simulation.resources.calls": ("count", "lower"),
    "simulation.resources.self_s": ("s", "lower"),
    "simulation.mailbox.calls": ("count", "lower"),
    "simulation.mailbox.self_s": ("s", "lower"),
    "network.messages": ("count", "lower"),
    "network.events_per_msg": ("ratio", "lower"),
    "network.graph.calls": ("count", "lower"),
    "network.graph.self_s": ("s", "lower"),
    "machine.workstation.calls": ("count", "lower"),
    "machine.workstation.self_s": ("s", "lower"),
    "protocol.calls": ("count", "lower"),
    "protocol.self_s": ("s", "lower"),
    "protocol.syncs": ("count", "lower"),
    "protocol.moves": ("count", "lower"),
    "protocol.useful_sync_frac": ("ratio", "higher"),
    "core.redistribution.plans": ("count", "lower"),
    "core.redistribution.self_s": ("s", "lower"),
    "core.model.calls": ("count", "lower"),
    "core.model.self_s": ("s", "lower"),
    "runtime.self_s": ("s", "lower"),
    "backend.kernels.calibrate_s": ("s", "lower"),
    "backend.kernels.achieved_over_calibrated": ("ratio", "higher"),
    "backend.spawn_s": ("s", "lower"),
    "backend.compute_s": ("s", "lower"),
    "backend.idle_frac": ("ratio", "lower"),
    "backend.sync_rtt_ms.p50": ("ms", "lower"),
    "backend.sync_rtt_ms.max": ("ms", "lower"),
    "backend.sync_rtt_ms.samples": ("count", "lower"),
    "backend.teardown_s": ("s", "lower"),
    "message.frames.encoded": ("count", "lower"),
    "message.frames.decoded": ("count", "lower"),
    "message.frames.self_s": ("s", "lower"),
    **{f"message.frames.by_type.{t}": ("count", "lower")
       for t in FRAME_TYPES},
    "message.transport_bytes": ("B", "lower"),
    "message.shm_bytes": ("B", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}
