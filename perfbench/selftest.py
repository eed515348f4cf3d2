#!/usr/bin/env python3
"""Self-test of the benchmark harness (not of the engine).

    python3 perfbench/selftest.py

From the root of a checkout. Checks that:
  * BENCHMARK.json lists exactly the metrics the benchmark prints;
  * a normal run is correct and leaves no process behind;
  * a run whose worker dies without shutting Ray down, and a run that
    is interrupted, print no result, exit non-zero and leave no process
    behind;
  * a deliberately wrong oracle value makes every workload report a
    failure.
Every process of a run inherits a marker variable set here, so any
survivor is found by reading /proc/*/environ. Takes a few minutes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

MARK = "PERFBENCH_SELFTEST"


def _marked(tag: str) -> list[int]:
    needle = f"{MARK}={tag}".encode()
    found = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/environ", "rb") as f:
                env = f.read().split(b"\0")
            with open(f"/proc/{d}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if needle in env and state not in ("Z", "X"):
            found.append(int(d))
    return found


def _run(workload: str, inject: str = "", interrupt_after: float | None = None,
         seconds: int = 4) -> tuple[int, dict | None, list[int]]:
    """-> (exit code, result line or None, processes left behind)."""
    tag = uuid.uuid4().hex
    env = dict(os.environ, **{MARK: tag, "PERFBENCH_INJECT": inject})
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if interrupt_after is not None:
        # wait until the run's Ray session is up, then interrupt it
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and len(_marked(tag)) < 4:
            time.sleep(0.5)
        time.sleep(interrupt_after)
        proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=200)
    lines = out.strip().splitlines()
    result = None
    if lines:
        try:
            last = json.loads(lines[-1])
            if set(last) == {"correct", "attempted", "failed", "metrics"}:
                result = last
        except json.JSONDecodeError:
            pass
    time.sleep(1)
    return proc.returncode, result, _marked(tag)


def check_manifest() -> list[str]:
    from perfbench import layers, worker

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    if per_layer != layers.METRICS:
        errors.append("BENCHMARK.json per_layer differs from layers.METRICS")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if e2e != worker.END_TO_END:
        errors.append(f"BENCHMARK.json end_to_end differs from worker.END_TO_END: {e2e}")
    return errors


def main() -> int:
    errors = check_manifest()

    code, result, left = _run("join")
    if code != 0 or not result or not result["correct"] or result["failed"] or left:
        errors.append(f"normal run: exit {code}, result {result}, left {left}")

    for what, kw in (("crash", {"inject": "crash", "seconds": 8}),
                     ("interrupt", {"interrupt_after": 3.0, "seconds": 30})):
        code, result, left = _run("scan", **kw)
        if code == 0 or result is not None or left:
            errors.append(f"{what}: exit {code}, result {result}, left {left}")

    for workload in ("ingest", "scan", "curate", "join"):
        code, result, left = _run(workload, inject="oracle", seconds=2)
        if code != 0 or not result or result["correct"] or not result["failed"] or left:
            errors.append(f"wrong oracle on {workload}: exit {code}, "
                          f"result {result}, left {left}")

    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
