"""The repository benchmark: one workload, end-to-end or per-layer.

    python3 perfbench/run.py --workload des-ring --seed 7 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``wall_s``,
``cpu_s``, ``peak_rss_mb``; ``fail_frac`` is ``failed / attempted``);
``--trace 1`` prints the per-layer split from a separate traced run.
Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 when every run was correct, 1 when any run failed its
checks, 2 when the benchmark could not run at all.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
import metrics as M  # noqa: E402
from workloads import DEFAULT_SEED, NAMES, RESCALED  # noqa: E402

#: Cold set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 5
#: Together these keep a hung run under the 180 s a run may take.
SETUP_TIMEOUT_S = 15.0
MEASURE_GRACE_S = 60.0
#: One hash seed for every interpreter the benchmark starts: set and dict
#: layouts move a DES run's time between interpreters (des-bus-custom,
#: five 14 s measurements: spread 4.4% with random seeds, 2.5% fixed).
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def _child(role: str, args, *extra: str) -> list[str]:
    cmd = [sys.executable, CHILD, role, "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    return cmd + (["--smoke"] if args.smoke else [])


def _start(cmd: list[str]) -> subprocess.Popen:
    # A session of its own, so a timeout can stop the child together with
    # any worker processes it forked.
    return subprocess.Popen(cmd, cwd=ROOT, text=True, env=CHILD_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def cold_setup(args) -> tuple[dict, str]:
    """Seconds from starting an interpreter to its ``ready`` line, less
    the host-speed samples taken inside it, with their median rate; and
    an error (empty when it worked)."""
    start = time.perf_counter()
    proc = _start(_child("setup", args))
    readable, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT_S)
    if not readable:
        _kill(proc)
        return {}, "set-up timed out"
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    try:
        _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill(proc)
        return {}, "set-up did not exit"
    parts = line.split()
    if proc.returncode != 0 or len(parts) != 3 or parts[0] != "ready":
        return {}, f"set-up failed ({proc.returncode}): {err.strip()}"
    spent, speed = float(parts[1]), float(parts[2])
    return {"setup_s": elapsed - spent, "speed": speed}, ""


def measure(args) -> dict:
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace_out:
        extra += ["--trace-out", args.trace_out]
    if args.fail_after:
        extra += ["--fail-after", str(args.fail_after)]
    proc = _start(_child("measure", args, *extra))
    try:
        out, err = proc.communicate(timeout=args.seconds + MEASURE_GRACE_S)
    except subprocess.TimeoutExpired:
        _kill(proc)
        return {"fatal": "measurement timed out"}
    if proc.returncode != 0:
        return {"fatal": f"measurement failed ({proc.returncode}): "
                         f"{err.strip()}"}
    return json.loads(out.strip().splitlines()[-1])


def _value(name: str, row: dict, rescale: bool) -> float:
    return row[name] * row["speed"] / M.REFERENCE_RATE if rescale \
        else row[name]


def _aggregate(name: str, rows: list[dict], rescale: bool) -> float:
    """Median per load realization, then the mean over realizations (the
    DES workloads cycle through two; everything else has one)."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(row.get("load"), []).append(
            _value(name, row, rescale))
    if not groups:
        return 0.0
    return statistics.fmean(statistics.median(xs) for xs in groups.values())


def _describe(name: str, rows: list[dict], rescale: bool) -> str:
    values = [_value(name, r, rescale) for r in rows]
    text = f"n={len(values)}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f" q1={q1:.4f} q3={q3:.4f} min={min(values):.4f} " \
                f"max={max(values):.4f}"
    if rescale and rows:
        raw = statistics.median(r[name] for r in rows)
        speed = statistics.median(r["speed"] for r in rows) / 1e6
        text += f" (rescaled; raw median {raw:.4f} at {speed:.2f}M loop/s)"
    return text


def report(args) -> tuple[dict, list[str]]:
    """Run the benchmark; return the result object and the human lines."""
    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"trace {args.trace}  cpu_count {os.cpu_count()}"]
    errors: list[str] = []
    setups: list[dict] = []
    attempted = failed = 0
    if args.trace == 0:
        for _ in range(SETUPS):
            row, err = cold_setup(args)
            attempted += 1
            if err:
                failed += 1
                errors.append(err)
            else:
                setups.append(row)
    m = measure(args)
    if "fatal" in m:
        attempted += 1
        failed += 1
        errors.append(m["fatal"])
        m = {"runs": [], "errors": [], "peak_rss_mb": 0.0}
    errors += m["errors"]
    attempted += len(m["runs"])
    failed += sum(not r["ok"] for r in m["runs"])
    timed = [r for r in m["runs"] if r["ok"] and not r["traced"]]
    values: dict[str, float] = {}
    if args.trace == 0:
        rescaled = ("setup_s",) + RESCALED[args.workload]
        for name, rows in (("setup_s", setups), ("wall_s", timed),
                           ("cpu_s", timed)):
            values[name] = _aggregate(name, rows, name in rescaled)
            lines.append(f"  {name:<12} {values[name]:10.4f} "
                         f"{M.END_TO_END[name][0]:<6} "
                         f"{_describe(name, rows, name in rescaled)}")
        values["peak_rss_mb"] = m["peak_rss_mb"]
        lines.append(f"  {'peak_rss_mb':<12} {values['peak_rss_mb']:10.4f} "
                     f"{M.END_TO_END['peak_rss_mb'][0]:<6} "
                     "measuring process plus its largest child")
        names = M.END_TO_END
    else:
        values = dict(m.get("per_layer", {}))
        for name in M.PER_LAYER:
            values.setdefault(name, 0.0)
            lines.append(f"  {name:<44} {values[name]:14.6f} "
                         f"{M.PER_LAYER[name][0]}")
        names = M.PER_LAYER
    moved = [r["moves"] for r in m["runs"] if r["ok"]]
    lines.append(f"  work moved in {sum(x > 0 for x in moved)} of "
                 f"{len(moved)} correct runs")
    lines.append(f"  fail_frac {failed / attempted:.4f} "
                 f"({failed} of {attempted} runs and set-ups failed)")
    for err in errors:
        lines.append("  ERROR " + err.replace("\n", "\n    "))
    result = {"correct": not errors and failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": names[name][0]}
                          for name in names}}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default="",
                    help="with --trace 1: write the last traced run as a "
                         "Perfetto-loadable JSON file")
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes (self-test)")
    ap.add_argument("--fail-after", type=int, default=0,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    result, lines = report(args)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
