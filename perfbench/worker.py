"""One workload process: set up, run timed passes, check every result.

Started by ``run.py``; prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

Modes: ``setup`` stops at the first timed item (a set-up probe); ``run``
repeats passes for about S seconds with tracing off; ``trace`` runs an
untraced, a traced and an untraced pass; ``guard`` runs the traced pass only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from minmod import cli  # noqa: E402  (imports are part of set-up time)

import cleanroom  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")

# On a shared host all code can run up to 1.6x slower for minutes at a time,
# which moves every time in a run alike.  Each process therefore also times a
# fixed computation that runs no minmod code (the clean room's arithmetic),
# before each unit and outside the timed region, and the launcher scales the
# run's times to the reference speed: by REF_BASE_S over their median.
_REF_ALG = cleanroom.Algebra([("x", 2), ("y", 4), ("a", 3), ("b", 5), ("c", 7)])
_REF = cleanroom.parse_element(_REF_ALG, " + ".join(
    f"{i + 1}/{j + 2}*x^{i}*y^{j}" + ("*a" if (i + j) % 2 else "*b*c" if i * j % 3 == 1 else "")
    for i in range(7) for j in range(6)))
REF_BASE_S = 0.012
REF_CALLS = 3


def reference_times(n=REF_CALLS) -> list:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        cleanroom.mul(_REF, _REF)
        out.append(time.perf_counter() - t0)
    return out


def speed_scale(refs) -> float:
    """Factor from the host's speed while ``refs`` ran to the reference speed."""
    return REF_BASE_S / statistics.median(refs)

def load_expected(workload) -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["certify" if workload == "certify" else "products"]


def run_pass(workload, units, workdir, refs):
    """Run each unit once; (results, seconds spent in minmod)."""
    results = []
    for u in units:
        refs += reference_times()
        results.append(workloads.run_unit(workload, u, workdir))
    return results, sum(r.busy for r in results)


def item_failures(results, expected) -> dict:
    """{item key: reason} for items whose result differs from the expected one."""
    failures = {}
    for r in results:
        for item in r.items:
            unit, _, command = item.key.partition("/")
            want = expected.get(unit)
            if want is not None and command:
                want = want.get(command)
            if item.observed is None:
                failures[item.key] = f"raised {item.error}"
            elif want is None:
                failures[item.key] = "no expected result"
            elif item.observed != want:
                failures[item.key] = f"got {item.observed}, expected {want}"
    return failures


def check_witnesses(job) -> list:
    """Clean-room rejections for one unit's witnesses."""
    if job[0] == "source":
        _, key, source, representative, functional, wits = job
        alg, _ = cleanroom.parse_source(source)
        phi = {}
        for mono_text, value in functional:
            (mono, c), = cleanroom.parse_element(alg, mono_text).items()
            phi[mono] = Fraction(value) / c
        checker = cleanroom.Checker(alg, cleanroom.parse_element(alg, representative), phi)
        pairs = [(checker.images_from_lines(lines), degree) for lines, degree in wits]
    else:
        _, key, source_a, source_b, names, phi_items, wits = job
        (a, vol_a), (b, vol_b) = cleanroom.parse_source(source_a), cleanroom.parse_source(source_b)
        alg, left, right = cleanroom.tensor(a, b)
        if alg.names != names:
            return [f"{key}: product generators {names} differ from {alg.names}"]
        phi = {alg.mono_from_exponents(names, m): c for m, c in phi_items}
        checker = cleanroom.Checker(alg, cleanroom.mul(left(vol_a), right(vol_b)), phi)
        pairs = []
        for images, degree in wits:
            mine = [dict() for _ in names]
            for name, terms in images.items():
                mine[alg.index[name]] = {alg.mono_from_exponents(names, m): c for m, c in terms}
            pairs.append((mine, degree))
    out = []
    for n, (images, degree) in enumerate(pairs):
        reason = checker.check(images, degree)
        if reason:
            out.append(f"{key}: witness {n} rejected: {reason}")
    return out


def verdict_digest(results) -> list:
    return [(item.key, item.observed) for r in results for item in r.items]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", required=True, choices=("setup", "run", "trace", "guard"))
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    units = workloads.draw(args.workload, args.seed)
    expected = load_expected(args.workload)
    ready = time.time()
    reference_times(2)  # the first calls after start-up run slow
    refs = reference_times(5)
    out = {"ready": ready, "setup_scale": speed_scale(refs)}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0
    os.makedirs(args.workdir, exist_ok=True)
    passes = []  # (results, seconds spent in minmod)
    try:
        if args.mode == "run":
            start = time.perf_counter()
            while True:
                passes.append(run_pass(args.workload, units, args.workdir, refs))
                if len(passes) == 1:
                    # later passes repeat the same work; how many fit depends
                    # on the machine, so memory is read after exactly one
                    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                walls = sorted(w for _, w in passes)
                elapsed = time.perf_counter() - start
                if elapsed + walls[len(walls) // 2] > args.seconds:
                    break
        else:
            # trace: untraced, traced, untraced, so drift cancels in the overhead;
            # guard: the traced pass alone (no pass reuses another's caches)
            if args.mode == "trace":
                passes.append(run_pass(args.workload, units, args.workdir, refs))
            tr = tracer.Tracer()
            before, entries_before = tracer.cache_stats()
            tr.install()
            try:
                traced = run_pass(args.workload, units, args.workdir, refs)
            finally:
                tr.uninstall()
            after, entries_after = tracer.cache_stats()
            passes.append(traced)
            out["layers"] = tr.metrics(before, after, entries_after - entries_before)
            out["digest"] = verdict_digest(traced[0])
            if args.mode == "trace":
                passes.append(run_pass(args.workload, units, args.workdir, refs))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    out["walls"] = [w for _, w in passes]
    out["scale"] = speed_scale(refs)
    done = [item for results, _ in passes for r in results for item in r.items]
    out["latencies"] = [item.latency for item in done if item.observed is not None]
    rejected, checked = {}, set()
    for results, _ in passes:
        for job in (job for r in results for job in r.witnesses):
            if job[1] in checked:
                continue
            checked.add(job[1])
            try:
                reasons = check_witnesses(job)
            except Exception as exc:  # the checker's own failure also rejects
                reasons = [f"clean-room check raised {exc!r}"]
            if reasons:
                rejected[job[1]] = "; ".join(reasons)
    failures = []
    for results, _ in passes:
        found = item_failures(results, expected)
        for r in results:
            for item in r.items:
                if item.key in rejected and item.key not in found:
                    found[item.key] = rejected[item.key]
        failures += [f"{k}: {v}" for k, v in found.items()]
    out["attempted"] = len(done)
    out["failures"] = failures
    out["witness_units"] = len(checked)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
