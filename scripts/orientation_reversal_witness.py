#!/usr/bin/env python3
"""Exhibit verified orientation-reversing self-maps of the two-stage families.

The two-parameter family chiral1(l1, l2) and the one-parameter family
chiral2(l) admit self-maps of negative degree: the top odd generator can be
sent to a multiple of itself plus a non-closed tail, and the tails cancel in
d-commutation.  This script runs the solver, prints the degree families it
closes, and independently re-verifies every witness morphism, flagging the
negative-degree ones.

Usage: python scripts/orientation_reversal_witness.py [key] [NAME=INT ...]
"""

import os
import sys

# run from a checkout without installing: minmod lives in ../src
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from minmod.cli import ERRORS, _build, _volume, error_exit
from minmod.dsl import element_str
from minmod.endo import degree_spectrum, verify_morphism

DEFAULT_PARAMS = {"chiral1": ["l1=4", "l2=2"], "chiral2": ["l=4"]}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    key = argv[0] if argv else "chiral1"
    try:
        af = _build(key, argv[1:] or DEFAULT_PARAMS.get(key, ()))
        vol = _volume(af)
    except ERRORS as exc:
        return error_exit(exc)
    alg = af.algebra
    verdict = degree_spectrum(alg, vol)
    print(f"{alg.name}: {verdict.classification}")
    for fam in verdict.families:
        print(f"  degree family: {fam.describe()}"
              + ("" if fam.never_negative else "  (takes negative values)"))
    negatives = 0
    for leaf in verdict.leaves:
        for morphism, degree in leaf.witnesses:
            rep = verify_morphism(alg, morphism.images, vol)
            assert rep.valid and rep.degree == degree, morphism.label
            if degree < 0:
                negatives += 1
                print(f"  verified self-map of degree {degree}:")
                for name, img in sorted(morphism.images.items()):
                    print(f"    f {name} = {element_str(img)}")
    if not negatives:
        print("  no negative-degree witness found")
        return 1
    print(f"  {negatives} orientation-reversing witness(es) re-verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
