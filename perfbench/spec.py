"""The workload table, paths and helpers every benchmark module shares.

Importing this module puts the repository root on ``sys.path`` and on
``PYTHONPATH``: Ray workers inherit the environment of the raylet, which
inherits the driver's, so they import ``kgx`` whatever the working
directory is.  It imports nothing heavy, so ``run.py`` can start the
input preparation before it loads Ray.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(1, ROOT)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")

# Sizes are set so that one run, preparation included, takes about 35 s
# at 1 CPU; README.md gives the measurements behind them.  A run makes
# round(--seconds / rep_s) repetitions: the count depends on the argument
# alone, never on how fast a run goes.  ckpt_refresh repeats more, shorter
# build + update pairs because its many small stages jitter most.
WORKLOADS = {
    "web_pages": {"kind": "stream", "extractor": "gazetteer", "pages": 3500,
                  "rep_s": 6},
    "term_keys": {"kind": "stream", "extractor": "term", "pages": 400,
                  "tokens": 8, "vocab": 300, "rep_s": 6},
    "ckpt_refresh": {"kind": "ckpt", "extractor": "gazetteer", "pages": 800,
                     "recrawl": 160, "new": 160, "rep_s": 4.5},
}
WARMUP_PAGES = 24
ORACLE_KEYS = {"nodes": ["entity_id"],
               "edges": ["subj_id", "pred", "obj_id"],
               "claims": ["claim_id"]}
CACHE_DIR = os.path.join(ROOT, ".perfbench_cache")
# Bump when inputs.py changes what a seed generates.
GENERATOR_VERSION = 1


def sizes(workload: str, scale: float) -> dict:
    spec = dict(WORKLOADS[workload])
    for k in ("pages", "recrawl", "new"):
        if k in spec:
            spec[k] = max(8, round(spec[k] * scale))
    return spec


def cache_path(workload: str, seed: int, scale: float) -> str:
    """The oracle cache entry; its name changes with the input sizes."""
    key = json.dumps([sizes(workload, scale), GENERATOR_VERSION],
                     sort_keys=True)
    digest = hashlib.sha1(key.encode()).hexdigest()[:10]
    return os.path.join(CACHE_DIR, f"{workload}-seed{seed}-{digest}")


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)
