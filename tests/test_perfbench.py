"""The bench harness's instruments, run in tier-1 against the current sources.

``perfbench/cleanroom.py`` re-checks self-map witnesses with arithmetic that
shares no code with minmod, so it catches a bug that the solver and
``verify_morphism`` would share.  ``perfbench/tracer.py`` patches minmod
functions by name; a renamed or moved one must fail here, not in a later
traced bench run.
"""

import os
import sys

import pytest

from conftest import ALL_KEYS, certified
from minmod import cli, endo  # noqa: F401  (the tracer resolves minmod.cli by name)
from minmod.cohomology import verify_volume_form
from minmod.dsl import print_algebra
from minmod.endo import SolverConfig, degree_spectrum
from minmod.gca import Element
from minmod.poly import MPoly
from minmod.sullivan import ellipticity_certificate, tensor_product

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import cleanroom  # noqa: E402
import tracer  # noqa: E402

PRODUCTS = (
    (("chiral3", {"l": 5}), ("chiral3", {"l": 5})),
    (("chiral2", {"l": 4}), ("lower-grading", {})),
    (("lower-grading", {}), ("lower-grading", {})),
)


def _single(key, params):
    """(clean-room algebra, its volume, minmod algebra, minmod volume form, verdict)."""
    af, _, vol = certified(key, **params)
    alg, cvol = cleanroom.parse_source(print_algebra(af))
    return alg, cvol, af.algebra, vol, degree_spectrum(af.algebra, vol)


def _product(left, right):
    a, cert_a, _ = certified(left[0], **left[1])
    b, cert_b, _ = certified(right[0], **right[1])
    prod = tensor_product(a.algebra, b.algebra, cert_a, cert_b, a.volume, b.volume)
    pvol = verify_volume_form(prod, prod.embed_left(a.volume) * prod.embed_right(b.volume),
                              ellipticity_certificate(prod))
    (ca, vol_a), (cb, vol_b) = (cleanroom.parse_source(print_algebra(a)),
                                cleanroom.parse_source(print_algebra(b)))
    alg, embed_a, embed_b = cleanroom.tensor(ca, cb)
    cvol = cleanroom.mul(embed_a(vol_a), embed_b(vol_b))
    return alg, cvol, prod, pvol, degree_spectrum(prod, pvol, SolverConfig(node_budget=400))


CASES = [(f"{k}({','.join(f'{n}={v}' for n, v in p.items())})", _single, (k, p))
         for k, p in ALL_KEYS] + [(f"{l[0]}x{r[0]}", _product, (l, r)) for l, r in PRODUCTS]


@pytest.mark.parametrize("build,args", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_cleanroom_accepts_every_witness_and_rejects_a_wrong_degree(build, args):
    alg, cvol, src_alg, vol, verdict = build(*args)
    names = [g.name for g in src_alg.generators]
    assert alg.names == names
    phi = {alg.mono_from_exponents(names, m): c for m, c in vol.functional.phi.items()}
    checker = cleanroom.Checker(alg, cvol, phi)
    witnesses = []
    for leaf in verdict.leaves:
        for morphism, degree in leaf.witnesses:
            images = [{} for _ in names]
            for name, img in morphism.images.items():
                images[alg.index[name]] = {alg.mono_from_exponents(names, m): c
                                           for m, c in img.terms.items()}
            witnesses.append((images, degree))
    assert witnesses
    assert [checker.check(images, degree) for images, degree in witnesses] == \
        [None] * len(witnesses)
    images, degree = witnesses[0]
    assert checker.check(images, degree + 1).startswith("phi(f(vol))")


def test_tracer_installs_counts_and_restores():
    originals = (MPoly.__mul__, MPoly.__rmul__, Element.__mul__, endo.simplify)
    af, _, vol = certified("chiral3", l=5)
    tr = tracer.Tracer()
    before, entries_before = tracer.cache_stats()
    tr.install()
    try:
        assert endo.simplify is not originals[3]
        degree_spectrum(af.algebra, vol)
    finally:
        tr.uninstall()
    after, entries_after = tracer.cache_stats()
    metrics = tr.metrics(before, after, entries_after - entries_before)
    assert metrics["endo.case_nodes"][0] == 5
    assert metrics["endo.simplify.calls"][0] > 0
    assert metrics["poly.MPoly.mul.calls"][0] > 0
    restored = (MPoly.__mul__, MPoly.__rmul__, Element.__mul__, endo.simplify)
    assert all(now is then for now, then in zip(restored, originals))
