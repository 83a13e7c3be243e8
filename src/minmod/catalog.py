"""Built-in algebra presentations.

Every entry is one DSL template (see :mod:`minmod.dsl`), so the catalog
doubles as a corpus of parser examples.  ``ENTRIES`` is the one table of
parameter ranges: ``build`` checks a family's parameters against it, then
prepends them to the template as ``param`` lines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dsl import AlgebraFile, parse_algebra

LEMMA_FAMILY = """\
# elliptic algebras with spectrum {0, 1, (-1)^(i+1)}
gen x1 : 4
gen x2 : 6
gen y1 : 27
gen y2 : 29
gen y3 : 31
gen z : 77
gen z' : 75 + 4*i
d y1 = x1^4*x2^2
d y2 = x1^3*x2^3
d y3 = x1^2*x2^4
d z = x1*x2^3*y1*y2 - x1^2*x2^2*y1*y3 + x1^3*x2*y2*y3 + x2*x1^18 + x2^13
d z' = x1^(19 + i)
volume x2^26*z' - x1^(15 + i)*x2^24*y1
"""

CHAIN_BASE = """\
# base of the fibration example
gen x1 : 2
gen x2 : 4
gen y1 : 9
gen y2 : 11
gen y3 : 13
gen z : 35
d y1 = x1^3*x2
d y2 = x1^2*x2^2
d y3 = x1*x2^3
d z = x2^4*y1*y2 - x1*x2^3*y1*y3 + x1^2*x2^2*y2*y3 + x1^18 + x2^9
volume x2^16
"""

CHAIN_FIBERED = """\
# total space: base extended by a contractible pair (x2', x2)
gen x1 : 2
gen x2 : 4
gen xb2 : 2
gen x2' : 3
gen y1 : 9
gen y2 : 11
gen y3 : 13
gen z : 35
d x2' = xb2^2 - x2
d y1 = x1^3*x2
d y2 = x1^2*x2^2
d y3 = x1*x2^3
d z = x2^4*y1*y2 - x1*x2^3*y1*y3 + x1^2*x2^2*y2*y3 + x1^18 + x2^9
"""

CHAIN_REDUCED = """\
# the fibered presentation with the contractible pair eliminated by hand
gen x1 : 2
gen xb2 : 2
gen y1 : 9
gen y2 : 11
gen y3 : 13
gen z : 35
d y1 = x1^3*xb2^2
d y2 = x1^2*xb2^4
d y3 = x1*xb2^6
d z = xb2^8*y1*y2 - x1*xb2^6*y1*y3 + x1^2*xb2^4*y2*y3 + x1^18 + xb2^18
volume xb2^33
"""

CHIRAL_1 = """\
# no orientation-reversing self-maps; degrees are even powers of k1
gen x1 : 2
gen x2 : 4
gen n1 : 11
gen n2 : 11
gen n3 : 4*l1 + 1
gen n4 : 8*l2 + 3
d n1 = x1^4*x2
d n2 = x1^2*x2^2 + x2^3
d n3 = x1^(2*l1 + 1)
d n4 = x2^(2*l2 + 1)
volume x1^(2*l1)*x2^(2*l2)*n1*n2 - (x1^(2*l1 + 2)*x2 + x1^(2*l1)*x2^2)*n1*n4 + x1^(2*l1 + 4)*n2*n4
"""

CHIRAL_2 = """\
gen x1 : 2
gen x2 : 4
gen n1 : 13
gen n2 : 11
gen n3 : 4*l + 1
gen n4 : 19
gen n5 : 17
d n1 = x1^5*x2
d n2 = x1^2*x2^2 + x2^3
d n3 = x1^(2*l + 1)
d n4 = x2^5
d n5 = x1^3*x2^3
volume x1^(2*l)*x2^4*n1*n2*n5 - x1^(2*l + 3)*x2^2*n1*n2*n4 - (x1^(2*l + 2)*x2 + x1^(2*l)*x2^2)*n1*n4*n5 + x1^(2*l + 5)*n2*n4*n5
"""

CHIRAL_3 = """\
gen x1 : 2
gen x2 : 4
gen n1 : 11
gen n2 : 19
gen n3 : 4*l + 1
d n1 = x1^2*x2^2 + x2^3
d n2 = x2^5
d n3 = x1^(2*l + 1)
volume x2^4*x1^(2*l)*n1 - x1^(2*l + 2)*x2*n2 - x1^(2*l)*x2^2*n2
"""

LOWER_GRADING_EXAMPLE = """\
# flexible algebra whose differential is monomial, with lower grading (0,0,1,2)
gen a : 3
gen b : 3
gen n : 5
gen m : 7
d n = a*b
d m = a*n
volume a*b*n*m
"""

CP = """\
gen x : 2
gen y : 4*n + 1
d y = x^(2*n + 1)
volume x^(2*n)
"""

SPHERE = """\
gen x : k
gen y : 2*k - 1
d y = x^2
volume x
"""


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    summary: str
    template: str  # DSL text; each parameter arrives as a ``param`` line
    parameters: tuple = ()  # ((name, least value, listing text), ...)


ENTRIES = (
    CatalogEntry("lemma", "7-generator elliptic family, dim 231+4i", LEMMA_FAMILY, (("i", 0, "i >= 0"),)),
    CatalogEntry("chain-base", "base algebra of the fibration chain, dim 64", CHAIN_BASE),
    CatalogEntry("chain-fibered", "total space with a contractible pair", CHAIN_FIBERED),
    CatalogEntry("chain-reduced", "reduced total space, dim 66", CHAIN_REDUCED),
    CatalogEntry("chiral1", "orientation-chirality family, dim 4*l1+8*l2+22", CHIRAL_1, (("l1", 2, "l1 >= 2"), ("l2", 2, "l2 >= 2"))),
    CatalogEntry("chiral2", "orientation-chirality family, dim 4*l+57", CHIRAL_2, (("l", 4, "l >= 4"),)),
    CatalogEntry("chiral3", "orientation-chirality family, dim 4*l+27", CHIRAL_3, (("l", 5, "l >= 5"),)),
    CatalogEntry("lower-grading", "monomial-differential flexible example, dim 18", LOWER_GRADING_EXAMPLE),
    CatalogEntry("cp", "even complex projective space model, dim 4n", CP, (("n", 1, "n >= 1"),)),
    CatalogEntry("sphere", "even sphere model", SPHERE, (("k", 2, "even, k >= 2"),)),
)

_BY_KEY = {e.key: e for e in ENTRIES}


def build(key: str, **params) -> AlgebraFile:
    """Instantiate a catalog entry; validates parameter ranges."""
    if key not in _BY_KEY:
        raise KeyError(f"unknown catalog entry {key!r}; known: {sorted(_BY_KEY)}")
    entry = _BY_KEY[key]
    extra = set(params) - {p for p, _, _ in entry.parameters}
    if extra:
        raise ValueError(f"unexpected parameters for {key!r}: {sorted(extra)}")
    for p, low, _ in entry.parameters:
        if p not in params:
            raise ValueError(f"missing parameter {p!r}")
        v = params[p]
        if not isinstance(v, int) or v < low:
            raise ValueError(f"parameter {p} must be an integer >= {low}, got {v!r}")
    if key == "sphere" and params["k"] % 2:
        raise ValueError("sphere requires an even degree")
    name = key + ("" if not params else "(" + ",".join(f"{k}={v}" for k, v in sorted(params.items())) + ")")
    text = "".join(f"param {p} = {params[p]}\n" for p, _, _ in entry.parameters)
    return parse_algebra(text + entry.template, name=name)


def describe() -> list:
    """Rows for the catalog listing: (key, summary, parameter constraints)."""
    return [(e.key, e.summary, "; ".join(f"{n}: {c}" for n, _, c in e.parameters) or "-")
            for e in ENTRIES]
