"""authsim benchmark: end-to-end and per-layer metrics for one workload.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Every pass runs in a fresh worker process (``bench/worker.py``), one at a
time, so each pays what a CLI user pays: interpreter start, imports, cold
caches. Workers run until the next one would end after ``--seconds``; every
metric is the median over the workers, and every time is scaled to reference
speed by the worker's calibration loop. With ``--trace 0`` the workers are
untraced and the result holds the end-to-end metrics. With ``--trace 1``
untraced and traced workers alternate and the result holds the per-layer
metrics and the tracing overhead. ``--smoke`` runs one pass of each kind at
the smallest ladder point. Reports are written to a scratch directory under
``.bench_tmp/`` in the checkout, removed on exit. The last line of standard
output is the JSON result; a missing authsim source or a worker that
crashes exits non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads
from worker import CALIBRATION_REFERENCE_S

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
TIMES = ("setup_s", "wall_s", "cpu_s")


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": nproc, "cpu": cpu, "git_commit": commit}


def run_worker(spec: dict, env: dict) -> dict:
    spec = dict(spec, spawned=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(spec)],
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        env=env,
        cwd=spec["tmp"],
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def scale_times(result: dict) -> dict:
    """The worker's times at reference speed (see bench/README.md)."""
    speed = CALIBRATION_REFERENCE_S / result["calibration_s"]
    scaled = dict(result, **{key: result[key] * speed for key in TIMES})
    if result["layers"] is not None:
        scaled["layers"] = {
            name: value * speed if name.endswith("_s") else value for name, value in result["layers"].items()
        }
    return scaled


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def measure(args, tmp: str, nproc: int) -> tuple[list[dict], list[dict]]:
    """Run workers until the next would overrun; returns (untraced, traced)."""
    env = dict(os.environ)
    threads = env.get("OPENBLAS_NUM_THREADS", "")
    env["OPENBLAS_NUM_THREADS"] = str(min(int(threads), nproc) if threads.isdigit() else nproc)
    spec = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke, "tmp": tmp}
    runs: dict[bool, list[dict]] = {False: [], True: []}
    begin, longest = time.monotonic(), 0.0
    while True:
        traced = bool(args.trace) and len(runs[False]) > len(runs[True])
        started = time.monotonic()
        runs[traced].append(run_worker(dict(spec, trace=traced), env))
        longest = max(longest, time.monotonic() - started)
        have_all = runs[False] and (runs[True] or not args.trace)
        if have_all and (args.smoke or time.monotonic() - begin + longest > args.seconds):
            return runs[False], runs[True]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass at the smallest ladder point")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "authsim" / "__init__.py").is_file():
        print(f"error: no authsim source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must be an unsigned 64-bit integer", file=sys.stderr)
        return 2

    env = environment()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            untraced, traced = measure(args, tmp, env["nproc"])
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass

    env.update(untraced[0]["env"])
    raw = {key: median_of(untraced, key) for key in TIMES + ("calibration_s",)}
    untraced, traced = [scale_times(r) for r in untraced], [scale_times(r) for r in traced]
    everyone = untraced + traced
    attempted = sum(r["attempted"] for r in everyone)
    failures = [f for r in everyone for f in r["failures"]]
    if args.trace:
        units = dict(tracer.metric_units(), **{"reporting.report_bytes": "bytes", "trace.overhead_s": "s"})
        # median_low keeps counts whole: every value is one traced worker's
        values = {name: statistics.median_low(r["layers"][name] for r in traced) for name in tracer.metric_units()}
        values["reporting.report_bytes"] = statistics.median_low(r["report_bytes"] for r in traced)
        values["trace.overhead_s"] = median_of(traced, "wall_s") - median_of(untraced, "wall_s")
    else:
        units = END_TO_END_UNITS
        values = {name: median_of(untraced, name) for name in units}

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced passes")
    print("env " + json.dumps(env, sort_keys=True))
    print("unscaled medians " + json.dumps(raw, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name} = {values[name]} {unit}")
    print(f"  error_rate = {len(failures) / attempted} ({len(failures)} of {attempted} operations failed)")
    for failure in failures:
        print(f"  FAILED {failure}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
