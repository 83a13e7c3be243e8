"""Re-measure the recorded baseline in ``baseline.json``.

    python3 perfbench/record.py

Runs every workload at the default and the held-out seed, once untraced and
once traced, with the run length from ``BENCHMARK.json``, and stores the
metrics with host information.  Keys it does not measure (exclusions, notes)
are kept as they are.  Takes about ten minutes.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import sympy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORD = os.path.join(HERE, "baseline.json")
DEFAULT_SEED = 0
HELD_OUT_SEED = 97
TOP = 8  # self times kept per traced run


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    record = {}
    if os.path.exists(RECORD):
        with open(RECORD, encoding="utf-8") as fh:
            record = json.load(fh)
    record["seeds"] = {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED}
    record["host"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                      "sympy": sympy.__version__, "platform": platform.platform()}
    record["run_seconds"] = spec["run_seconds"]
    measured = {}
    for w in spec["workloads"]:
        entry = {"why": w["why"]}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            plain = bench(w["name"], seed, spec["run_seconds"], 0)
            traced = bench(w["name"], seed, spec["run_seconds"], 1)
            m = {k: v["value"] for k, v in traced["metrics"].items()}
            selfs = sorted(((k[:-len(".self_s")], v) for k, v in m.items() if k.endswith(".self_s")),
                           key=lambda kv: -kv[1])
            entry[f"seed {seed}"] = {
                "attempted": plain["attempted"] + traced["attempted"],
                "failed": plain["failed"] + traced["failed"],
                "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
                "trace_overhead_s": m["trace.overhead_s"],
                "traced_wall_s": m["trace.traced_wall_s"],
                "top_self_s": {k: v for k, v in selfs[:TOP]},
                "counts": {k: m[k] for k in ("endo.case_nodes", "endo.leaves",
                                             "endo.constraints", "cohomology.cache_entries")},
            }
            print(w["name"], seed, entry[f"seed {seed}"]["end_to_end"], flush=True)
        measured[w["name"]] = entry
    record["workloads"] = measured
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
