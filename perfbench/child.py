"""The benchmark's worker process (started by ``run.py``; not a CLI for
people).

``child.py setup --workload W --seed N``
    Set up from a cold interpreter (import ``repro``, build the inputs,
    calibrate, one minimal run), print ``ready``, exit.  ``run.py``
    times it from process start to that line.

``child.py measure --workload W --seed N --seconds S --trace 0|1``
    Set up, then run the workload in a closed loop for about ``S``
    seconds and print one JSON line with per-run samples.  With
    ``--trace 1`` untraced and traced runs alternate, and the traced
    ones report the per-layer split.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_repro():
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"no repro sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


def setup(workload: str, seed: int, smoke: bool) -> tuple[float, float]:
    """Set up; return the host-speed samples' time and median rate."""
    from metrics import SpeedSampler
    with SpeedSampler() as sampler:
        import_repro()
        import workloads
        for inp in workloads.build_all(workload, seed, smoke):
            workloads.prepare(inp)
    return sampler.spent, sampler.speed


def _cpu() -> float:
    """User+sys CPU seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _private_bytes() -> int:
    """This process's unique set size: the pages no other process maps."""
    total = 0
    with open("/proc/self/smaps_rollup") as fh:
        for line in fh:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += int(line.split()[1]) * 1024
    return total


class WorkerMemory:
    """Memory of the process backend's workers that the parent does not
    already hold.

    A forked worker maps the parent's pages until it writes them, so its
    ``ru_maxrss`` counts the parent's footprint a second time.  While
    installed, every worker writes its unique set size (read from
    ``/proc/self/smaps_rollup``, so Linux only) to a pipe as it exits.
    The benchmark's strategy is distributed, so there is no balancer
    process to count.
    """

    @contextlib.contextmanager
    def installed(self):
        process = importlib.import_module("repro.backend.process")
        worker_main = process._worker_main
        self._read, write = os.pipe()
        os.set_blocking(self._read, False)

        def reporting_worker_main(*args, **kwargs):
            try:
                return worker_main(*args, **kwargs)
            finally:
                os.write(write, b"%d\n" % _private_bytes())

        try:
            process._worker_main = reporting_worker_main
            yield self
        finally:
            process._worker_main = worker_main
            os.close(self._read)
            os.close(write)

    def collect(self) -> list[int]:
        """Bytes each worker that exited since the last call reported."""
        data = b""
        with contextlib.suppress(BlockingIOError):
            while chunk := os.read(self._read, 1 << 16):
                data += chunk
        return [int(x) for x in data.split()]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, trace_out: str = "",
            fail_after: int = 0) -> dict:
    """Closed-loop rounds for about ``seconds``; samples plus verdicts.

    A round runs every input of the pool once (twice with ``trace``:
    untraced, then traced).  ``fail_after`` (self-test only) makes
    process-backend node 0 raise after that many iterations, through
    ``ProcessBackend._fail_after``.
    """
    import_repro()
    import layers
    import workloads
    from metrics import SpeedSampler
    from repro.obs.trace import TraceRecorder

    pool = workloads.build_all(workload, seed, smoke)
    rescaled = bool(workloads.RESCALED[workload])
    calibrate_s = 0.0
    for inp in pool:
        calibrate_s += workloads.prepare(inp)
        if fail_after:
            inp.backend._fail_after = {0: fail_after}

    # Only the process backend has children; their memory is measured
    # from the runs on, not from set-up.
    memory = WorkerMemory() if pool[0].name == "process-trfd" else None
    worker_bytes = 0
    stack = contextlib.ExitStack()
    if memory is not None:
        stack.enter_context(memory.installed())

    runs: list[dict] = []
    #: load realization -> per-layer metrics of each traced run
    layer_runs: dict[int, list[dict]] = {}
    errors: list[str] = []
    first: dict[int, dict] = {}
    last = None
    start = time.perf_counter()
    rounds = 0
    while True:
        for inp in pool:
            for with_trace in ((False, True) if trace else (False,)):
                tracer = layers.LayerTracer() if with_trace else None
                # Simulator runs get no recorder: their layer split reads
                # no trace events, and recording would add work inside
                # Environment.step that untraced runs do not do.
                recorder = TraceRecorder(capacity=1 << 20) \
                    if with_trace and not inp.is_des else None
                # Traced runs are not rescaled, and samples would land in
                # the layers' self time.
                sampler = SpeedSampler() if rescaled and not with_trace \
                    else contextlib.nullcontext()
                workloads.before_run(inp)
                stats, problems = None, []
                with sampler:
                    cpu0 = _cpu()
                    t_call = time.perf_counter()
                    try:
                        if tracer is None:
                            stats = workloads.run_once(inp)
                        else:
                            with tracer.installed():
                                stats = tracer.span("runtime",
                                                    workloads.run_once,
                                                    inp, recorder)
                    except Exception:
                        problems = [traceback.format_exc(limit=4).strip()]
                    t_return = time.perf_counter()
                    cpu = _cpu() - cpu0
                if stats is not None:
                    problems = workloads.check(inp, stats,
                                               first.get(inp.seed))
                spent = getattr(sampler, "spent", 0.0)
                wall = t_return - t_call - spent
                cpu -= spent
                if memory is not None:
                    reports = memory.collect()
                    if stats is not None and not problems:
                        if len(reports) != inp.n_workers:
                            problems = [f"{len(reports)} of {inp.n_workers} "
                                        "workers reported their memory"]
                        worker_bytes = max(worker_bytes, sum(reports))
                ok = not problems
                errors += [f"run {len(runs)}: {p}" for p in problems]
                if ok and inp.is_des:
                    first.setdefault(inp.seed, workloads.outputs(stats))
                runs.append({"wall_s": wall, "cpu_s": cpu, "ok": ok,
                             "traced": with_trace, "load": inp.seed,
                             "speed": getattr(sampler, "speed", None),
                             "moves": stats.n_redistributions if ok else 0})
                if with_trace and ok:
                    events, t0_run = [], None
                    if recorder is not None:
                        # The backend's clock is still bound: an instant
                        # now places its trace origin on this perf_counter.
                        recorder.event("perfbench.end")
                        events = recorder.events()
                        end = next(e for e in reversed(events)
                                   if e["name"] == "perfbench.end")
                        t0_run = time.perf_counter() - end["ts"]
                    layer_runs.setdefault(inp.seed, []).append(
                        layers.layer_metrics(
                            tracer, stats, events, inp=inp, wall_s=wall,
                            t_call=t_call, t_return=t_return, t0_run=t0_run,
                            calibrate_s=calibrate_s))
                    last = (inp, tracer, events, t0_run)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    stack.close()

    errors += workloads.check_moves(
        pool[0], [r["moves"] for r in runs if r["ok"]])
    if trace_out and last is not None:
        _write_trace(trace_out, *last)

    # The parent's peak RSS (ru_maxrss is in KiB) plus the largest sum of
    # the workers' private memory over the runs.
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"runs": runs, "errors": errors,
              "peak_rss_mb": usage / 1024.0 + worker_bytes / 2.0 ** 20}
    if trace:
        # Median (low: a value one run measured) per load realization,
        # then the mean over realizations, as run.py does for wall_s.
        groups = list(layer_runs.values())
        per_layer = {key: statistics.fmean(
                         statistics.median_low(r[key] for r in group)
                         for group in groups)
                     for key in (groups[0][0] if groups else {})}
        plain = [r["wall_s"] for r in runs if r["ok"] and not r["traced"]]
        with_tr = [r["wall_s"] for r in runs if r["ok"] and r["traced"]]
        if plain and with_tr:
            per_layer["trace.untraced_wall_s"] = statistics.median(plain)
            per_layer["trace.traced_wall_s"] = statistics.median(with_tr)
            per_layer["trace.overhead_frac"] = \
                per_layer["trace.traced_wall_s"] \
                / per_layer["trace.untraced_wall_s"] - 1.0
        result["per_layer"] = per_layer
    return result


def _write_trace(path: str, inp, tracer, events, t0_run) -> None:
    """Perfetto-loadable dump: the layer spans, plus (real backends) the
    backend's own trace events moved onto the same clock.  Simulator runs
    are not recorded."""
    import layers
    from repro.obs.export import write_trace
    out = tracer.chrome_events()
    if t0_run is not None:
        for e in events:
            node = layers.node_of(e.get("track", ""))
            base = tracer.node_origin.get(node, t0_run)
            out.append({**e, "ts": base + e["ts"] - tracer.t0})
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    write_trace(path, out, dropped=tracer.dropped)


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("role", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace-out", default="")
    ap.add_argument("--fail-after", type=int, default=0)
    args = ap.parse_args(argv)
    if args.role == "setup":
        spent, speed = setup(args.workload, args.seed, args.smoke)
        print(f"ready {spent!r} {speed!r}", flush=True)
    else:
        print(json.dumps(measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace), args.smoke,
                                 args.trace_out, args.fail_after)),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
