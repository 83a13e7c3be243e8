"""Shared fixtures: catalog builds are cached so d-matrix caches are reused."""

from fractions import Fraction
from functools import lru_cache

from minmod import catalog
from minmod.cohomology import verify_volume_form
from minmod.sullivan import ellipticity_certificate, tensor_product


def canonical_rational(c) -> bool:
    """The one form of an exact scalar: an int (not a bool), or a Fraction
    whose denominator is not 1.  A float never is."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


@lru_cache(maxsize=None)
def built(key, **params):
    """(AlgebraFile, certificate) for a catalog entry, built once per session."""
    af = catalog.build(key, **params)
    return af, ellipticity_certificate(af.algebra)


@lru_cache(maxsize=None)
def certified(key, **params):
    """(AlgebraFile, certificate, VolumeForm) for entries declaring a volume."""
    af, cert = built(key, **params)
    vol = verify_volume_form(af.algebra, af.volume, cert)
    return af, cert, vol


def product(left, right):
    """The tensor product of two ``(key, params)`` catalog entries with its
    verified volume form."""
    a, cert_a, _ = certified(left[0], **left[1])
    b, cert_b, _ = certified(right[0], **right[1])
    prod = tensor_product(a.algebra, b.algebra, cert_a, cert_b, a.volume, b.volume)
    pv = prod.embed_left(a.volume) * prod.embed_right(b.volume)
    return prod, verify_volume_form(prod, pv, ellipticity_certificate(prod))


# products whose case trees split, from the benchmark's products and casetree units
PRODUCT_PAIRS = ((("chiral3", {"l": 5}), ("chiral3", {"l": 5})),
                 (("chiral2", {"l": 4}), ("lower-grading", {})),
                 (("lower-grading", {}), ("lower-grading", {})))


ALL_KEYS = (
    ("lemma", {"i": 0}),
    ("lemma", {"i": 1}),
    ("chain-base", {}),
    ("chain-reduced", {}),
    ("chiral1", {"l1": 4, "l2": 2}),
    ("chiral2", {"l": 4}),
    ("chiral3", {"l": 5}),
    ("lower-grading", {}),
    ("cp", {"n": 4}),
    ("sphere", {"k": 6}),
)
