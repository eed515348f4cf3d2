#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload {ingest,scan,curate,join} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. Prints one JSON line last: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics (see perfbench/README.md).

This launcher sandboxes one run: all scratch state (inputs, encoded
output, the engine's caches and shuffle files, the native kernel build,
Ray's temp dir) lives in a fresh directory under ``.bench_run/`` that
is deleted afterwards, and Ray workers import ``arcade_ray`` from this
checkout. The run itself happens in a child process (worker.py). The
launcher is a child subreaper, so every process the run starts stays
in its tree; after the child exits, whatever of the run is still alive
is killed and counted as a failure. A run that crashes, times out or is
interrupted prints no result and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import teardown  # noqa: E402

WORKLOADS = ("ingest", "scan", "curate", "join")
DEADLINE_S = 150.0      # then stop the worker; the whole run must end within 180 s
TERM_GRACE_S = 8.0
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets at
# <temp dir>/session_<date>_<time>_<pid>/sockets/<name>
RAY_TMP_MAX = 40


def _sandbox(args, run_id: str) -> tuple[dict, str, str | None]:
    base = os.path.join(ROOT, ".bench_run")
    work = os.path.join(base, f"w{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    for d in ("tmp", "cache", "shuffle"):
        os.makedirs(os.path.join(work, d))
    os.makedirs(os.path.join(base, "traces"), exist_ok=True)
    ray_tmp, own_tmp = os.path.join(work, "ray"), None
    if len(ray_tmp) > RAY_TMP_MAX:
        # checkout path too long for Ray's sockets: use a short private
        # dir, removed with the run
        ray_tmp = own_tmp = tempfile.mkdtemp(prefix="pb-", dir="/tmp")
    env = {k: v for k, v in os.environ.items() if not k.startswith("ARCADE_")}
    old_path = env.get("PYTHONPATH")
    env.update({
        "PYTHONPATH": ROOT + (os.pathsep + old_path if old_path else ""),
        "TMPDIR": os.path.join(work, "tmp"),
        "ARCADE_RAY_CACHE": os.path.join(work, "cache"),
        "ARCADE_SHUFFLE_ROOT": os.path.join(work, "shuffle"),
        "RAY_USAGE_STATS_ENABLED": "0",
        teardown.RUN_ID_VAR: run_id,
        "PERFBENCH_WORK": work,
        "RAY_TMPDIR": ray_tmp,
        "PERFBENCH_RESULT": os.path.join(work, "result.json"),
        "PERFBENCH_TRACE": os.path.join(
            base, "traces", f"{args.workload}-seed{args.seed}.jsonl"),
    })
    return env, work, own_tmp


def _wait(pid: int, signals: list[int]) -> int | None:
    """Wait for the worker, reaping adopted orphans on the way; on a
    signal or the deadline, terminate it. -> exit code, or None if it
    had to be stopped."""
    deadline = time.monotonic() + DEADLINE_S
    stop_at = None
    while True:
        done = teardown.reap_children()
        if pid in done:
            return None if stop_at is not None else done[pid]
        now = time.monotonic()
        if stop_at is None and (signals or now > deadline):
            os.kill(pid, signal.SIGTERM)
            stop_at = now
            teardown.log(f"stopping the run ({f'signal {signals[0]}' if signals else 'deadline'})")
        elif stop_at is not None and now > stop_at + TERM_GRACE_S:
            os.kill(pid, signal.SIGKILL)
        time.sleep(0.05)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    signals: list[int] = []
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, lambda s, f: signals.append(s))
    run_id = f"{os.getpid()}-{time.time_ns()}"
    env, work, own_tmp = _sandbox(args, run_id)
    teardown.set_subreaper()
    status, stragglers = None, {}
    t_spawn = time.time()
    try:
        child = subprocess.Popen(
            [sys.executable, "-m", "perfbench.worker",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr)
        status = _wait(child.pid, signals)
        child.returncode = status  # reaped above, not by Popen
    finally:
        # whatever of this run is still alive is a straggler
        stragglers = teardown.run_processes(os.getpid(), run_id)
        if stragglers:
            teardown.kill(stragglers, reap=True)
            teardown.log(f"killed stragglers {sorted(stragglers)}")
        teardown.reap_children()
        result_path = env["PERFBENCH_RESULT"]
        result = None
        if status == 0 and os.path.exists(result_path):
            with open(result_path) as f:
                result = json.load(f)
        shutil.rmtree(work, ignore_errors=True)
        if own_tmp:
            shutil.rmtree(own_tmp, ignore_errors=True)
    if signals:
        return 128 + signals[0]
    if result is None:
        teardown.log(f"run failed (worker exit {status})")
        return 1
    # wall-clock seconds of each stage of the run, for reading the noise
    stages, last = {}, t_spawn
    for name, t in result["marks"].items():
        stages[name] = round(t - last, 3)
        last = t
    stages["teardown"] = round(time.time() - last, 3)
    leaked = result["stragglers"] + len(stragglers)
    attempted = result["attempted"] + 1   # the teardown check
    failed = result["failed"] + (leaked > 0)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": result["host"], "setup_phases": result["setup_phases"],
        "stages_s": stages, "wall": result["wall"],
        "ops_wall_cpu_s": result["ops_wall_cpu_s"], "stragglers": leaked,
        "failed_ops_frac": failed / attempted,
    }))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
