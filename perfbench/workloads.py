"""Seeded inputs for the three workloads, and the code that runs one unit.

A unit is what a workload repeats: one catalog instance in ``certify`` (six
commands, then four replays, each command one timed item) and one tensor
product in ``products`` and ``casetree`` (one timed item).  minmod functions
are looked up on their modules at call time, so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field

WORKLOADS = ("certify", "products", "casetree")

COMMANDS = ("check", "dim", "volume", "spectrum", "flex", "betti")
REPLAYED = ("check", "volume", "spectrum", "flex")

# Parameter ranges of the seeded certify draw: (family, ((name, low, high, step), ...)).
FAMILIES = (
    ("lemma", (("i", 0, 12, 1),)),
    ("chiral1", (("l1", 2, 8, 1), ("l2", 2, 8, 1))),
    ("chiral2", (("l", 4, 10, 1),)),
    ("chiral3", (("l", 5, 20, 1),)),
    ("cp", (("n", 1, 60, 1),)),
    ("sphere", (("k", 2, 20, 2),)),
)
FIXED = ("chain-base", "chain-reduced", "lower-grading")

# Vetted pair shapes for ``products``; the first pair of each pool is the
# default item.  Pool members ran in 1.2-2.7 s each when measured alone;
# costlier variants of these shapes (3-7 s) and other pairs among
# lemma/chain-base/chain-reduced/chiral* (over 25 s for some) stay out, so a
# pass costs about the same whatever the seed.
PRODUCT_POOLS = (
    (("chiral3(l=5)", "chiral3(l=5)"), ("chiral3(l=5)", "chiral3(l=6)"),
     ("chiral3(l=6)", "chiral3(l=5)")),
    (("chiral1(l1=4,l2=2)", "chiral3(l=5)"), ("chiral1(l1=3,l2=2)", "chiral3(l=5)"),
     ("chiral1(l1=4,l2=2)", "chiral3(l=6)")),
    (("chain-base", "cp(n=4)"), ("chain-base", "cp(n=5)"), ("chain-base", "cp(n=7)"),
     ("chain-base", "cp(n=8)")),
    tuple((f"lemma(i={i})", "lower-grading") for i in range(5)),
    (("chiral2(l=4)", "chiral3(l=5)"), ("chiral2(l=5)", "chiral3(l=5)"),
     ("chiral2(l=4)", "chiral3(l=6)"), ("chiral2(l=5)", "chiral3(l=6)")),
)
# chiral2(l) (x) lower-grading: one l from each stratum; the first of each is the default
CASETREE_STRATA = ((4, 5), (6, 7, 8), (9, 10))
NODE_BUDGET = 400


def spec(family, params) -> str:
    return family if not params else family + "(" + ",".join(f"{k}={v}" for k, v in params) + ")"


def certify_space() -> list:
    """Every instance a certify draw can produce."""
    out = []
    for family, ranges in FAMILIES:
        grids = [[]]
        for name, lo, hi, step in ranges:
            grids = [g + [(name, v)] for g in grids for v in range(lo, hi + 1, step)]
        out += [spec(family, g) for g in grids]
    return out + list(FIXED)


def product_space() -> list:
    pairs = [p for pool in PRODUCT_POOLS for p in pool]
    pairs.append(("lower-grading", "lower-grading"))
    pairs += [(f"chiral2(l={l})", "lower-grading") for stratum in CASETREE_STRATA for l in stratum]
    return pairs


def draw(workload: str, seed: int) -> list:
    """The units of one pass.  The same seed always gives the same units.

    Certify families are drawn as antithetic pairs (an instance and its mirror
    through the middle of the ranges) and the casetree chiral2 parameter once
    per stratum, so a pass does about the same work whatever the seed.  Seed 0
    gives the default products and case trees.
    """
    rng = random.Random(seed)
    if workload == "certify":
        units = []
        for family, ranges in FAMILIES:
            first, mirror = [], []
            for name, lo, hi, step in ranges:
                v = rng.randrange(lo, hi + 1, step)
                first.append((name, v))
                mirror.append((name, lo + hi - v))
            units += [spec(family, first), spec(family, mirror)]
        return units + list(FIXED)
    if workload == "products":
        return [pool[0] if seed == 0 else rng.choice(pool) for pool in PRODUCT_POOLS]
    if workload == "casetree":
        ls = [stratum[0] if seed == 0 else rng.choice(stratum) for stratum in CASETREE_STRATA]
        return [("lower-grading", "lower-grading")] + [
            (f"chiral2(l={l})", "lower-grading") for l in ls]
    raise ValueError(f"unknown workload {workload!r}")


def unit_key(unit) -> str:
    return unit if isinstance(unit, str) else "*".join(unit)


@dataclass
class Item:
    """One timed item: its latency and what it produced."""

    key: str                  # unit key, plus "/command" in certify
    latency: float
    observed: dict | None     # None when it raised
    error: str = ""


@dataclass
class UnitResult:
    items: list
    busy: float               # seconds spent in minmod, preparation included
    witnesses: list = field(default_factory=list)  # clean-room jobs


def _run_cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        dt = time.perf_counter() - t0
    return code, out.getvalue(), dt


def _summary(command, code, doc) -> dict:
    """The verdict fields of a report that the expected file pins."""
    out = {"code": code}
    if doc is None:
        return out
    if command == "check":
        out["exponents"] = {c["generator"]: c["exponent"]
                            for c in doc["certificates"]["ellipticity"]}
    elif command == "dim":
        out["dimension"] = doc["dimension"]
    elif command == "volume":
        out["degree"] = doc.get("degree")
    elif command == "spectrum":
        for k in ("classification", "spectrum", "families", "complete"):
            out[k] = doc[k]
    elif command == "flex":
        out["scaling_degree"] = (doc.get("scaling") or {}).get("degree")
    elif command == "betti":
        out["betti"] = doc["betti"]
    return out


def run_certify(unit: str, workdir: str) -> UnitResult:
    """Six commands on one instance, then replay of four of their reports."""
    from minmod import cli

    items, docs, busy = [], {}, 0.0
    for command in COMMANDS:
        try:
            code, text, dt = _run_cli(cli, ["--json", command, unit])
        except Exception as exc:  # a crash is a failed item, not a dead run
            items.append(Item(f"{unit}/{command}", 0.0, None, repr(exc)))
            continue
        busy += dt
        doc = json.loads(text) if text.strip() else None
        docs[command] = (doc, text)
        items.append(Item(f"{unit}/{command}", dt, _summary(command, code, doc)))
    for command in REPLAYED:
        doc, text = docs.get(command, (None, ""))
        key = f"{unit}/replay-{command}"
        if doc is None:
            items.append(Item(key, 0.0, None, "no report to replay"))
            continue
        path = os.path.join(workdir, f"{command}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            code, _, dt = _run_cli(cli, ["replay", path])
        except Exception as exc:
            items.append(Item(key, 0.0, None, repr(exc)))
            continue
        busy += dt
        items.append(Item(key, dt, {"code": code}))
    jobs = []
    volume = docs.get("volume", (None,))[0]
    for command in ("spectrum", "flex"):
        doc = docs.get(command, (None,))[0]
        if doc is None or volume is None or "functional" not in volume:
            continue
        if command == "spectrum":
            wits = [(w["morphism"], w["degree"]) for w in doc["witnesses"]]
        else:
            wits = [(doc["scaling"]["morphism"], doc["scaling"]["degree"])] if doc.get("scaling") else []
        if wits:
            jobs.append(("source", f"{unit}/{command}", doc["algebra"]["source"],
                         volume["representative"],
                         [(p["monomial"], p["value"]) for p in volume["functional"]], wits))
    return UnitResult(items, busy, jobs)


def _product_summary(verdict) -> dict:
    return {"classification": verdict.classification,
            "spectrum": [str(q) for q in verdict.spectrum],
            "families": [f.describe() for f in verdict.families],
            "complete": verdict.complete}


def run_product(unit) -> UnitResult:
    """degree_spectrum on A (x) B, built the way the tensor-square test builds it.

    Factor algebras and certificates are prepared per unit (counted in busy
    time, not in the item's latency), so every pass starts from cold caches.
    """
    from minmod import cli, cohomology, dsl, endo, sullivan

    key = unit_key(unit)
    t_prep = time.perf_counter()
    try:
        a, b = (cli.load_algebra(s) for s in unit)
        cert_a = sullivan.ellipticity_certificate(a.algebra)
        cert_b = sullivan.ellipticity_certificate(b.algebra)
        prep = time.perf_counter() - t_prep
        t0 = time.perf_counter()
        prod = sullivan.tensor_product(a.algebra, b.algebra, cert_a, cert_b, a.volume, b.volume)
        pcert = sullivan.ellipticity_certificate(prod)
        pv = prod.embed_left(a.volume) * prod.embed_right(b.volume)
        pvol = cohomology.verify_volume_form(prod, pv, pcert)
        verdict = endo.degree_spectrum(prod, pvol, endo.SolverConfig(node_budget=NODE_BUDGET))
        dt = time.perf_counter() - t0
    except Exception as exc:  # a crash is a failed item, not a dead run
        return UnitResult([Item(key, 0.0, None, repr(exc))], time.perf_counter() - t_prep)
    names = [g.name for g in prod.generators]
    wits = [({n: [(m, c) for m, c in img.terms.items()] for n, img in morphism.images.items()},
             degree)
            for leaf in verdict.leaves for morphism, degree in leaf.witnesses]
    job = ("product", key, dsl.print_algebra(a), dsl.print_algebra(b), names,
           list(pvol.functional.phi.items()), wits)
    return UnitResult([Item(key, dt, _product_summary(verdict))], prep + dt, [job])


def run_unit(workload: str, unit, workdir: str) -> UnitResult:
    if workload == "certify":
        return run_certify(unit, workdir)
    return run_product(unit)
