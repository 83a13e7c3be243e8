"""The minmod benchmark: seeded, closed-loop, verdict-checked workloads.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; minmod is imported from ``src/``.  Each
workload runs single-process, one item at a time, on inputs drawn from the
seed (see ``workloads.py``).  Every verdict and exit code is compared with
``expected.json`` and every witness is re-checked by ``cleanroom.py``; an
item fails if it raised, differed or had a witness rejected.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:

* ``setup_s``: process start to the first timed item (imports, input
  generation, loading the expected file); median of five processes.
* ``wall_s``: one pass over all of the workload's units, median over the
  passes that fit in ``--seconds``; time inside minmod, unit preparation
  included, result checking excluded.
* ``latency_p50_s``: median per-item time to verdict over all passes
  (certify: one CLI command; products/casetree: one product, from
  ``tensor_product`` to the verdict).  The p90 goes to stderr with the number
  of samples beyond it: over ten on certify but one or two on the others,
  which is why it is not an end-to-end metric.
* ``peak_rss_mb``: peak RSS of the measuring process after its first pass.

Times are in seconds at a reference speed.  On a shared 2-CPU host all code
ran up to 1.6x slower for minutes at a time, which moved whole runs by more
than the bounds.  So each process also times a fixed computation that uses
no minmod code (``worker.reference_times``), and a run's times are multiplied
by ``REF_BASE_S`` over the median of those timings.  A change to minmod moves
the scaled times as it moves the raw ones; the raw seconds go to stderr.

With ``--trace 1`` it holds the per-layer metrics of one traced pass (calls
and self time per wrapped function, cache hit ratios, case-tree counts) and
the tracing overhead.  A second traced pass runs in a process with another
``PYTHONHASHSEED``; any difference in verdicts or counts is a failure.

Sample counts and failure reasons go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170
HASH_SEEDS = ("1", "2")  # measuring process, determinism guard

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def worker(args, mode, hash_seed=HASH_SEEDS[0]):
    """Run worker.py to completion; (spawn time, parsed last line)."""
    workdir = os.path.join(HERE, ".work", f"{os.getpid()}-{mode}-{hash_seed}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", workdir]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    spawned = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for needed in (os.path.join(ROOT, "src", "minmod", "__init__.py"),
                   os.path.join(HERE, "expected.json")):
        if not os.path.exists(needed):
            print(f"missing {needed}: run from the root of a minmod checkout",
                  file=sys.stderr)
            return 2

    if args.trace:
        _, main_run = worker(args, "trace")
        _, guard = worker(args, "guard", HASH_SEEDS[1])
        failures = main_run["failures"] + guard["failures"]
        differ = [k for k, v in main_run["layers"].items()
                  if v[1] == "count" and guard["layers"][k] != v]
        if guard["digest"] != main_run["digest"]:
            differ.append("verdicts")
        if differ:  # the guard is one more checked item
            failures.append(f"differ under PYTHONHASHSEED {HASH_SEEDS}: {differ}")
        before, traced, after = main_run["walls"]
        metrics = dict(main_run["layers"])
        metrics["trace.traced_wall_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced - (before + after) / 2, "s")
        attempted = main_run["attempted"] + guard["attempted"] + 1
    else:
        runs = [worker(args, "setup") for _ in range(SETUP_PROBES)]
        runs.append(worker(args, "run"))
        main_run = runs[-1][1]
        lat = main_run["latencies"]
        failures = main_run["failures"]
        attempted = main_run["attempted"]
        raw = {"setup_s": statistics.median(t["ready"] - spawned for spawned, t in runs),
               "wall_s": statistics.median(main_run["walls"]),
               "latency_p50_s": statistics.median(lat),
               "latency_p90_s": quantile(lat, 90)}
        k = main_run["scale"]
        metrics = {
            "setup_s": (statistics.median((t["ready"] - spawned) * t["setup_scale"]
                                          for spawned, t in runs), "s"),
            "wall_s": (raw["wall_s"] * k, "s"),
            "latency_p50_s": (raw["latency_p50_s"] * k, "s"),
            "peak_rss_mb": (main_run["rss_mb"], "MB"),
        }
        beyond = len(lat) - int(0.9 * len(lat))
        print(f"{args.workload} seed {args.seed}: {len(main_run['walls'])} passes, "
              f"{len(runs)} set-ups, {len(lat)} latency samples ({beyond} beyond p90), "
              f"speed scale {k:.4f}; unscaled seconds: "
              + ", ".join(f"{n} {v:.4f}" for n, v in raw.items()), file=sys.stderr)
    try:
        os.rmdir(os.path.join(HERE, ".work"))
    except OSError:  # absent, or still used by another run
        pass
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    failed = len(failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
