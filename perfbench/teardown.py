"""Find, wait for and kill the processes one benchmark run started.

Linux only (reads /proc). A run is identified two ways: the process
tree under the launcher, which makes itself a child subreaper so that
orphaned Ray daemons are re-parented to it rather than to init, and a
``PERFBENCH_RUN_ID`` variable in the environment, which every Ray
process inherits from the driver. Nothing here touches a process that
matches neither.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time

RUN_ID_VAR = "PERFBENCH_RUN_ID"
_PR_SET_CHILD_SUBREAPER = 36


def log(msg: str) -> None:
    """Report on stderr; never fail, since clean-up must go on even
    when whoever reads stderr is gone (a broken pipe)."""
    try:
        print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    except OSError:
        pass


def set_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _stat(pid: int) -> tuple[int, str, int] | None:
    """-> (ppid, state, start time in clock ticks), or None if gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            raw = f.read().decode("utf-8", "replace")
    except OSError:
        return None
    fields = raw[raw.rindex(")") + 2:].split()
    return int(fields[1]), fields[0], int(fields[19])


def _pids() -> list[int]:
    return [int(d) for d in os.listdir("/proc") if d.isdigit()]


def _has_tag(pid: int, run_id: str) -> bool:
    try:
        with open(f"/proc/{pid}/environ", "rb") as f:
            env = f.read()
    except OSError:
        return False
    return f"{RUN_ID_VAR}={run_id}".encode() in env.split(b"\0")


def run_processes(root: int, run_id: str) -> dict[int, int]:
    """Live processes of the run: descendants of ``root`` plus any
    process tagged with ``run_id``, excluding ``root`` and its own
    ancestors. -> {pid: start time}."""
    table = {p: st for p in _pids() if (st := _stat(p)) is not None}
    ancestors, p = set(), root
    while p in table and p not in ancestors:
        ancestors.add(p)
        p = table[p][0]
    found = {}
    for pid, (ppid, state, start) in table.items():
        if pid in ancestors or state in ("Z", "X"):
            continue
        q, seen = ppid, set()
        while q in table and q not in seen and q != root:
            seen.add(q)
            q = table[q][0]
        if q == root or _has_tag(pid, run_id):
            found[pid] = start
    return found


def _alive(pid: int, start: int) -> bool:
    st = _stat(pid)
    return st is not None and st[2] == start and st[1] not in ("Z", "X")


def wait_gone(procs: dict[int, int], timeout: float,
              reap: bool = False) -> dict[int, int]:
    """Wait up to ``timeout`` s for ``procs`` to end; -> survivors.
    With ``reap`` the caller also collects exited children (a
    subreaper must, or its adopted orphans stay zombies)."""
    deadline = time.monotonic() + timeout
    while True:
        if reap:
            reap_children()
        left = {p: s for p, s in procs.items() if _alive(p, s)}
        if not left or time.monotonic() >= deadline:
            return left
        time.sleep(0.1)


def kill(procs: dict[int, int], grace: float = 3.0,
         reap: bool = False) -> None:
    """SIGTERM, then SIGKILL whatever is left after ``grace`` s."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid, start in procs.items():
            if _alive(pid, start):
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        procs = wait_gone(procs, grace, reap=reap)
        if not procs:
            return


def reap_children() -> dict[int, int]:
    """Collect every exited child; -> {pid: exit code}."""
    done = {}
    while True:
        try:
            pid, status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return done
        if pid == 0:
            return done
        done[pid] = os.waitstatus_to_exitcode(status)
