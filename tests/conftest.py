"""Shared fixtures: catalog builds are cached so d-matrix caches are reused."""

from fractions import Fraction
from functools import lru_cache

from minmod import catalog
from minmod.cohomology import verify_volume_form
from minmod.sullivan import ellipticity_certificate


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
