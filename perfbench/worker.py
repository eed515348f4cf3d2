"""One benchmark run inside the launcher's sandbox (see run.py).

Owns the Ray session: starts it with its own temp dir, runs the
workload, and on the way out shuts Ray down and waits for every process
of the session to end, killing and counting any straggler. Writes its
result as JSON to ``$PERFBENCH_RESULT``; the launcher prints it.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import logging
import os
import resource
import signal
import statistics
import sys
import time

from . import teardown
from .trace import Tracer
from .workloads import WORKLOADS, Ctx, Setup, Timed, measure

STRAGGLER_WAIT_S = 20.0
OBJECT_STORE_BYTES = 512 * 2**20
# end-to-end metrics (the --trace 0 result) and their units
END_TO_END = {"setup_s": "s", "op_cpu_ms_p50": "ms",
              "bytes_per_raw_byte": "B/B", "driver_peak_rss_mb": "MB"}


def nproc() -> int:
    """What coreutils ``nproc`` prints: the affinity mask, capped by
    OMP_NUM_THREADS when that is set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0]
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def host_info(cpus: int) -> dict:
    import duckdb
    import numpy
    import pyarrow
    import ray

    return {
        "nproc": nproc(), "cpu_count": os.cpu_count(), "ray_cpus": cpus,
        "loadavg_start": os.getloadavg(),
        "python": sys.version.split()[0], "ray": ray.__version__,
        "pyarrow": pyarrow.__version__, "numpy": numpy.__version__,
        "duckdb": duckdb.__version__,
    }


def reset_peak_rss() -> None:
    """Free what set-up left behind, then reset VmHWM (Linux: writing 5
    to clear_refs), so the peak covers only what follows; where that is
    refused the peak is the process's."""
    gc.collect()
    try:
        # hand freed heap back to the OS, or the peak would depend on
        # how much of set-up's garbage the allocator happens to retain
        ctypes.CDLL("libc.so.6").malloc_trim(0)
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cpu_ticks() -> list[int]:
    """The machine-wide CPU time counters (user, nice, system, idle,
    iowait, irq, softirq, steal, ...) from /proc/stat."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:]]


class SessionCPU:
    """Clock of the CPU seconds used by the Ray session's processes
    (everything this run started but the driver): user + system time of
    each, plus that of its children already reaped, so a worker that
    exits mid-run still counts through its parent. The process list is
    refreshed at most once a second; /proc counts in clock ticks
    (10 ms)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.procs: dict[int, int] = {}
        self.listed = float("-inf")
        self.tick = os.sysconf("SC_CLK_TCK")

    def __call__(self) -> float:
        now = time.monotonic()
        if now - self.listed > 1.0:
            self.procs = teardown.run_processes(os.getpid(), self.run_id)
            self.listed = now
        ticks = 0
        for pid in self.procs:
            try:
                with open(f"/proc/{pid}/stat", "rb") as f:
                    raw = f.read()
            except OSError:
                continue
            # utime stime cutime cstime
            ticks += sum(int(x) for x in raw[raw.rindex(b")") + 2:].split()[11:15])
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return kids.ru_utime + kids.ru_stime + ticks / self.tick


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def quiet_ray_data() -> None:
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def run(args, ctx: Ctx, cpus: int, ray_init: Timed, host: dict,
        marks: dict) -> dict:
    from arcade_ray.codecs.native import get_lib

    setup = Setup(ctx.session_cpu)
    setup.add("ray_init", ray_init.wall, ray_init.cpu)
    with setup.phase("kernel_build"):
        host["native_fsst"] = get_lib() is not None
    wl = WORKLOADS[args.workload](ctx)
    with ctx.tracer.span("setup"):
        wl.setup(setup)
    marks["setup"] = time.time()
    reset_peak_rss()
    ticks0 = cpu_ticks()
    with ctx.tracer.span("loop"):
        times = measure(ctx, wl)
    rss = peak_rss_mb()
    spent = [b - a for a, b in zip(ticks0, cpu_ticks())]
    # during the loop: share of this machine's CPU time taken by other
    # VMs (steal), and share not idle (this run and any other process)
    host["steal_frac"] = spent[7] / max(1, sum(spent))
    host["busy_frac"] = 1 - (spent[3] + spent[4]) / max(1, sum(spent))
    marks["loop"] = time.time()
    wl.finish()
    if args.trace:
        from . import layers

        metrics = layers.collect(ctx, wl, times, cpus)
        units = {k: u for k, (u, _) in layers.METRICS.items()}
    else:
        metrics = {
            "setup_s": setup.cpu_total(),
            "op_cpu_ms_p50": statistics.median(c for _, c in times) * 1e3,
            "bytes_per_raw_byte": wl.bytes_per_raw_byte(),
            "driver_peak_rss_mb": rss,
        }
        units = END_TO_END
    wall = [w for w, _ in times]
    host["loadavg_end"] = os.getloadavg()
    marks["checks"] = time.time()
    return {
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "ops_wall_cpu_s": times,
        "wall": {"op_ms_p50": statistics.median(wall) * 1e3,
                 "ops_per_s": len(wall) / sum(wall)},
        "setup_phases": {"wall_s": setup.wall, "cpu_s": setup.cpu},
    }


def shutdown_ray(run_id: str) -> tuple[int, int]:
    """ray.shutdown(), then wait for the session's processes; -> (how
    many there were, how many had to be killed)."""
    import ray

    procs = teardown.run_processes(os.getpid(), run_id)
    ray.shutdown()
    left = teardown.wait_gone(procs, STRAGGLER_WAIT_S)
    if left:
        teardown.kill(left)
        teardown.log(f"killed stragglers {sorted(left)}")
    return len(procs), len(left)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    marks = {"main": time.time()}
    signal.signal(signal.SIGTERM, _interrupt)
    import arcade_ray  # noqa: F401  (fail before starting Ray if absent)

    env = os.environ
    run_id, work = env[teardown.RUN_ID_VAR], env["PERFBENCH_WORK"]
    tracer = Tracer(bool(args.trace))
    ctx = Ctx(args.workload, args.seed, args.seconds, tracer, work,
              SessionCPU(run_id), env.get("PERFBENCH_INJECT", ""))
    cpus = nproc()
    host = host_info(cpus)

    import ray

    try:
        with Timed(ctx.session_cpu) as ray_init:
            # a fresh local session even if RAY_ADDRESS names a running one
            ray.init(address="local", num_cpus=cpus, include_dashboard=False,
                     log_to_driver=False, logging_level=logging.ERROR,
                     object_store_memory=OBJECT_STORE_BYTES,
                     _temp_dir=env["RAY_TMPDIR"])
        quiet_ray_data()
        result = run(args, ctx, cpus, ray_init, host, marks)
    finally:
        session_procs, stragglers = shutdown_ray(run_id)
    marks["shutdown"] = time.time()
    host["session_procs"] = session_procs
    result.update(host=host, stragglers=stragglers, marks=marks,
                  attempted=ctx.tally.attempted, failed=ctx.tally.failed)
    if args.trace:
        tracer.write(env["PERFBENCH_TRACE"], {
            "workload": args.workload, "seed": args.seed, "host": host})
    with open(env["PERFBENCH_RESULT"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
