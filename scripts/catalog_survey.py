#!/usr/bin/env python3
"""Run the full verification pipeline over every catalog entry.

For each entry: structural checks, ellipticity, formal dimension, volume
verification, and the degree spectrum.  Prints one summary row per entry.

Usage: python scripts/catalog_survey.py [--case-depth N]
"""

import argparse
import os
import sys
import time

# run from a checkout without installing: minmod lives in ../src
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from minmod import catalog
from minmod.cohomology import verify_volume_form
from minmod.endo import SolverConfig, degree_spectrum
from minmod.sullivan import (Undecided, check_d_squared, check_minimality,
                             dimension_formula, ellipticity_certificate)

DEFAULT_PARAMS = {
    "lemma": [{"i": 0}, {"i": 1}, {"i": 2}],
    "chain-fibered": [{}],
    "chain-reduced": [{}],
    "chiral1": [{"l1": 4, "l2": 2}],
    "chiral2": [{"l": 4}],
    "chiral3": [{"l": 5}],
    "lower-grading": [{}],
    "cp": [{"n": 4}],
    "sphere": [{"k": 6}],
}


def survey(cfg):
    rows = []
    for entry in catalog.ENTRIES:
        for params in DEFAULT_PARAMS.get(entry.key, [{}]):
            label = entry.key + (str(params) if params else "")
            af = catalog.build(entry.key, **params)
            alg = af.algebra
            ok = bool(check_d_squared(alg)) and bool(check_minimality(alg))
            try:
                cert = ellipticity_certificate(alg)
            except Undecided:
                cert = None
            dim = dimension_formula(alg)
            if not (ok and cert and af.volume is not None):
                rows.append((label, dim, "structural" if not ok else "no volume", "", ""))
                continue
            vol = verify_volume_form(alg, af.volume, cert)
            t0 = time.perf_counter()
            v = degree_spectrum(alg, vol, cfg)
            dt = time.perf_counter() - t0
            fams = ", ".join(f.describe() for f in v.families) or "-"
            rows.append((label, dim, v.classification, fams, f"{dt:.1f}s"))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--case-depth", type=int, default=SolverConfig.case_depth)
    args = parser.parse_args(argv)
    rows = survey(SolverConfig(case_depth=args.case_depth))
    width = max(len(r[0]) for r in rows)
    print(f"{'entry':{width}s}  {'dim':>4s}  {'classification':22s}  families")
    for label, dim, cls, fams, dt in rows:
        print(f"{label:{width}s}  {dim:4d}  {cls:22s}  {fams}  {dt}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
