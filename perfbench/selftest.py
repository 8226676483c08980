"""Self-test of the benchmark at a tiny input size (about 2 minutes).

    python3 perfbench/selftest.py

From a scratch working directory outside the repository it runs every
workload end to end and traced, and checks that each run is correct and
reports exactly the metric names and units ``BENCHMARK.json`` declares,
that the traced layers add up to the traced wall, that a corrupted
output is reported as a failure, and that a hash shuffle is refused.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.05"


def bench(cwd: str, workload: str, trace: int, *extra: str):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    argv = [sys.executable if command[0] == "python3" else command[0],
            os.path.join(ROOT, command[1]), *command[2:],
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--scale", SCALE, *extra]
    p = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                       timeout=180)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if p.returncode == 0 and lines else None
    return p.returncode, result, p.stderr


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {key: {m["name"]: m["unit"] for m in spec[key]}
             for key in ("end_to_end", "per_layer")}
    problems = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            problems.append(what)
            print(f"FAIL {what}", flush=True)

    with tempfile.TemporaryDirectory() as cwd:
        for w in (x["name"] for x in spec["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                n_problems = len(problems)
                code, res, err = bench(cwd, w, trace)
                tag = f"{w} --trace {trace}"
                expect(code == 0 and res is not None,
                       f"{tag}: exit {code}\n{err[-2000:]}")
                if res is None:
                    continue
                expect(set(res) == {"correct", "attempted", "failed",
                                    "metrics"}, f"{tag}: result keys")
                expect(res["correct"] and res["failed"] == 0
                       and res["attempted"] >= 1, f"{tag}: not correct")
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                expect(got == units[key], f"{tag}: metric names/units "
                       f"differ: {sorted(set(got) ^ set(units[key]))}")
                if trace:
                    m = res["metrics"]
                    layers = sum(v["value"] for k, v in m.items()
                                 if k.count(".") == 1
                                 and k.endswith(".wall_s")
                                 and not k.startswith(("trace.", "oracle.")))
                    wall = m["trace.wall_s"]["value"]
                    expect(abs(layers - wall) <= 0.1 * wall,
                           f"{tag}: layer walls {layers:.3f} s vs traced "
                           f"wall {wall:.3f} s")
                if len(problems) == n_problems:
                    print(f"ok   {tag}", flush=True)
        for w, trace in (("web_pages", 0), ("ckpt_refresh", 1)):
            code, res, err = bench(cwd, w, trace, "--inject-fault")
            caught = (code == 0 and res is not None and not res["correct"]
                      and res["failed"] >= 1)
            expect(caught, f"{w} --trace {trace}: corrupted output not "
                   "reported")
            if caught:
                print(f"ok   {w} --trace {trace} --inject-fault", flush=True)
        code, res, _ = bench(cwd, "term_keys", 0, "--shuffle",
                             "hash_shuffle")
        refused = code != 0 and res is None
        expect(refused, "hash shuffle was not refused")
        if refused:
            print("ok   hash shuffle refused", flush=True)
        expect(os.listdir(cwd) == [], "the benchmark wrote into its cwd")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
