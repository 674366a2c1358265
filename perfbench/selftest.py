"""Self-test of the benchmark, on reduced sizes (about two minutes).

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` matches the metric table, that every
workload prints every named metric with its unit (0 where it bypasses a
layer), that the tracer's wrappers are gone after it, that an injected
worker failure raises ``fail_frac``, that the traced run's Perfetto
dump loads, and that the benchmark refuses to run without the sources.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
#: Scratch space inside the checkout (ignored by git).
SCRATCH = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import metrics as M  # noqa: E402
import workloads  # noqa: E402
from child import import_repro  # noqa: E402

#: Per-layer metric prefixes that must read 0 on a workload.
BYPASSED = {
    "des-ring": ("core.model.", "message.frames.", "backend."),
    "des-bus-custom": ("message.frames.", "backend."),
    "process-trfd": ("simulation.", "network.", "machine.", "core.model.",
                     "message.frames."),
    "socket-trfd": ("simulation.", "network.", "machine.", "core.model.",
                    "backend.kernels."),
}
#: Per-layer metrics that must be positive on a workload (whether a real
#: run moves work depends on the host's timing, so only syncs there).
USED = {
    "des-ring": ("simulation.engine.events", "simulation.resources.calls",
                 "network.graph.calls", "protocol.calls",
                 "core.redistribution.plans", "protocol.moves"),
    "des-bus-custom": ("simulation.engine.events", "core.model.calls",
                       "machine.workstation.calls", "protocol.moves"),
    "process-trfd": ("protocol.calls", "core.redistribution.plans",
                     "backend.compute_s", "backend.spawn_s",
                     "backend.kernels.calibrate_s", "protocol.syncs"),
    "socket-trfd": ("protocol.calls", "message.frames.encoded",
                    "message.frames.decoded", "message.frames.by_type.STAT",
                    "message.transport_bytes", "backend.compute_s",
                    "protocol.syncs"),
}


def check(cond: bool, what: str, detail: str = "") -> None:
    if not cond:
        raise SystemExit(f"FAIL: {what}\n{detail}")
    print(f"ok: {what}")


def bench(*args: str, cwd: str = ROOT) -> tuple[int, dict, str]:
    proc = subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    return proc.returncode, result, proc.stdout + proc.stderr


def check_manifest() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check(tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES,
          "BENCHMARK.json lists the four workloads")
    check({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
          == M.END_TO_END, "BENCHMARK.json end_to_end matches metrics.py")
    check({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
          == M.PER_LAYER, "BENCHMARK.json per_layer matches metrics.py")
    import_repro()
    from repro.message.frames import FrameType
    check(M.FRAME_TYPES == tuple(FrameType.__members__),
          "metrics.FRAME_TYPES lists every repro FrameType")


def check_metrics(name: str) -> None:
    for trace, table in ((0, M.END_TO_END), (1, M.PER_LAYER)):
        code, res, out = bench("--workload", name, "--smoke", "--seconds",
                               "1", "--trace", str(trace))
        check(code == 0 and res.get("correct") is True,
              f"{name} --trace {trace} runs correctly", out[-3000:])
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == {k: unit for k, (unit, _) in table.items()},
              f"{name} --trace {trace} prints every metric with its unit")
        if trace == 1:
            values = {k: v["value"] for k, v in res["metrics"].items()}
            zero = [k for k in values if k.startswith(BYPASSED[name])]
            check(all(values[k] == 0 for k in zero),
                  f"{name}: bypassed layers read 0 ({len(zero)} metrics)")
            check(all(values[k] > 0 for k in USED[name]),
                  f"{name}: {', '.join(USED[name])} are positive")


def check_restored() -> None:
    import_repro()
    import layers
    tracer = layers.LayerTracer()
    owners = [(owner, attr) for _, owner, attr in layers.targets()]
    owners += [(owner, attr) for owner, attr, _ in tracer._plumbing()]
    before = [vars(owner)[attr] for owner, attr in owners]
    try:
        with tracer.installed():
            check(all(vars(owner)[attr] is not orig for (owner, attr), orig
                      in zip(owners, before)), "wrappers installed")
            raise KeyError("boom")
    except KeyError:
        pass
    check(all(vars(owner)[attr] is orig for (owner, attr), orig
              in zip(owners, before)), "wrappers gone after the block")


def check_injected_failure() -> None:
    code, res, out = bench("--workload", "process-trfd", "--smoke",
                           "--seconds", "1", "--fail-after", "3")
    check(code == 1 and res.get("correct") is False
          and res["failed"] > 0 and res["attempted"] >= res["failed"],
          f"an injected worker failure raises fail_frac "
          f"({res.get('failed')}/{res.get('attempted')})", out[-3000:])


def check_perfetto() -> None:
    from repro.obs.export import read_trace
    path = os.path.join(SCRATCH, "selftest.trace.json")
    code, _, out = bench("--workload", "socket-trfd", "--smoke", "--seconds",
                         "1", "--trace", "1", "--trace-out", path)
    events = read_trace(path) if code == 0 else []
    check(any(e["track"] == "perfbench" for e in events)
          and any(e["name"] == "compute" for e in events),
          "the traced run's Perfetto dump loads with layer and backend spans",
          out[-3000:])


def check_bare_directory() -> None:
    os.makedirs(SCRATCH, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "des-ring",
             "--seed", "7", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the sources it exits non-zero and prints no result")


def main() -> int:
    check_manifest()
    check_restored()
    check_bare_directory()
    for name in workloads.NAMES:
        check_metrics(name)
    check_injected_failure()
    check_perfetto()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
