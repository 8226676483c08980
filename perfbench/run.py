"""kgx benchmark: one command, three seeded workloads, oracle-gated.

Usage (from anywhere; the repository root is found from this file)::

    python3 perfbench/run.py --workload web_pages --seed 1 --seconds 12 \
        --trace 0 [--num-cpus 1] [--shuffle sort_shuffle_pull_based]

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of one traced
run.  Workloads, metrics and the layer map are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

from spec import HERE, ROOT, WORKLOADS, log

PREPARE_LIMIT_S = 90
SORT_SHUFFLE = "sort_shuffle_pull_based"
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")
# Ray puts unix sockets under its temp dir: session dir name plus
# "/sockets/plasma_store" must fit the 107-byte AF_UNIX limit.
_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_0000000"
                     "/sockets/plasma_store")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="timed work per run; sets the repetition count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--num-cpus", type=int, default=1,
                    help="Ray CPUs; never autodetected")
    ap.add_argument("--shuffle", default=SORT_SHUFFLE,
                    help="the Ray Data shuffle strategy the run expects")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplies every input size (self-test: 0.05)")
    ap.add_argument("--inject-fault", action="store_true",
                    help="drop one edge before the gate (self-test only)")
    return ap.parse_args(argv)


def make_tmp() -> str:
    """The run's temp root, inside the checkout unless its path is too
    long for Ray's sockets.  Roots left by killed runs are removed."""
    if os.path.isdir(TMP_DIR):
        for name in os.listdir(TMP_DIR):
            if not os.path.exists(f"/proc/{name}"):
                shutil.rmtree(os.path.join(TMP_DIR, name),
                              ignore_errors=True)
    tmp = os.path.join(TMP_DIR, str(os.getpid()))
    if len(os.path.join(tmp, "ray").encode()) + _SOCKET_SUFFIX > 107:
        import tempfile
        tmp = tempfile.mkdtemp(prefix="kgxb-")
        log(f"checkout path too long for Ray's sockets; using {tmp}")
        return tmp
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    return tmp


def main(argv=None) -> int:
    t_start = time.monotonic()
    # SIGTERM unwinds like an exception, so Ray is shut down and the temp
    # root removed when a caller stops the run.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    args = parse_args(argv)
    if args.shuffle != SORT_SHUFFLE:
        # HASH_SHUFFLE did not finish a 6k-row groupby in 10 min at 1 CPU
        log(f"refusing to run with shuffle strategy {args.shuffle!r}; "
            f"only {SORT_SHUFFLE!r} is supported")
        return 2
    tmp = make_tmp()
    try:
        # Inputs and oracle are made in a child process, so the driver's
        # peak RSS holds none of them; it loads Ray meanwhile.
        child = subprocess.Popen([
            sys.executable, os.path.join(HERE, "prepare.py"), args.workload,
            str(args.seed), repr(args.scale), str(args.trace), tmp])
        try:
            import measure
            code = child.wait(PREPARE_LIMIT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if code != 0:
            raise RuntimeError(f"input preparation failed ({code})")
        metrics, attempted, failed = measure.run(args, tmp, t_start)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if os.path.isdir(TMP_DIR) and not os.listdir(TMP_DIR):
            os.rmdir(TMP_DIR)
    if not metrics:
        log("no operation completed")
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
