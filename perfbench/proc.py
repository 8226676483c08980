"""Process-tree accounting from ``/proc``: CPU seconds and peak RSS of
this process and every process it started (Ray's raylet, GCS and
workers are all descendants of the driver that called ``ray.init``)."""

from __future__ import annotations

import os
import signal
import time

_TICK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            data = f.read()
    except OSError:
        return None
    # fields after "(comm)"; comm may hold spaces or parentheses
    return data[data.rindex(")") + 2:].split()


def descendants(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and all its live descendants."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                children.setdefault(int(st[1]), []).append(int(name))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def cpu_seconds(pids: list[int]) -> dict[int, float]:
    """utime + stime of each pid still alive, in seconds."""
    out = {}
    for pid in pids:
        st = _stat(pid)
        if st is not None:
            out[pid] = (int(st[11]) + int(st[12])) / _TICK
    return out


def tree_cpu() -> dict[int, float]:
    return cpu_seconds(descendants())


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds the tree spent between two :func:`tree_cpu` samples;
    processes started in between count from zero."""
    return sum(v - before.get(pid, 0.0) for pid, v in after.items())


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024


def _start_time(pid: int) -> str | None:
    """Start time of a live (not zombie) process, else None."""
    st = _stat(pid)
    return None if st is None or st[0] in "ZX" else st[19]


def identities(pids: list[int]) -> list[tuple[int, str]]:
    """(pid, start time) pairs, so a reused pid is never mistaken."""
    return [(p, s) for p in pids if (s := _start_time(p)) is not None]


def reap(procs: list[tuple[int, str]], timeout: float = 10.0) -> int:
    """Wait for every process in ``procs`` to end; SIGKILL any still
    alive after ``timeout``.  Returns how many had to be killed."""
    def alive():
        return [(p, s) for p, s in procs
                if p != os.getpid() and _start_time(p) == s]
    deadline = time.monotonic() + timeout
    while alive() and time.monotonic() < deadline:
        time.sleep(0.1)
    left = alive()
    for pid, _ in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 5.0
    while alive() and time.monotonic() < deadline:
        time.sleep(0.05)
    try:                        # collect our own exited children
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass
    return len(left)
