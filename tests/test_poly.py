"""Multivariate polynomial helpers used by the constraint solver."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from minmod.gca import FreeGCA, Generator
from minmod.poly import MPoly, quotient


def test_ring_ops():
    a = MPoly.var("k1")
    b = MPoly.var("k2")
    p = (a + b) * (a - b)
    assert p == a * a - b * b
    assert p - p == MPoly()
    assert (a + 1) ** 2 == a * a + 2 * a + 1


def test_constant_value():
    assert MPoly.const(Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert MPoly().constant_value() == 0
    assert MPoly.var("k1").constant_value() is None


def test_coefficients_are_ints_unless_a_quotient_is_not_integral():
    k1, k2 = MPoly.var("k1"), MPoly.var("k2")
    half = (k1 + 3 * k2).scale(Fraction(1, 2))
    assert [type(c) for c in half.terms.values()] == [Fraction, Fraction]
    # a Fraction product or sum that is integral is stored as an int
    for p in (half * 2, half + half, half * MPoly.const(Fraction(4))):
        assert all(type(c) is int for c in p.terms.values()), p
    assert type(MPoly.const(Fraction(6, 3)).constant_value()) is int
    assert [type(c) for c in MPoly.var("k1").terms.values()] == [int]
    assert (quotient(6, 3), quotient(3, 6), quotient(Fraction(3, 2), Fraction(3, 4))) == \
        (2, Fraction(1, 2), 2)
    assert type(quotient(6, 3)) is int and type(quotient(Fraction(3, 2), Fraction(3, 4))) is int
    # eliminating against a coefficient of 2 halves the rest, exactly
    elim = (2 * k1 + 4 * k2 + 1).eliminate("k1", 2)
    assert elim.terms == {(("k2", 1),): -2, (): Fraction(-1, 2)}
    assert type(elim.terms[(("k2", 1),)]) is int


def test_variables():
    p = MPoly.var("k1") * MPoly.var("k2") + MPoly.var("k1")
    assert p.variables() == {"k1", "k2"}


def test_bare_linear_var():
    p = MPoly.var("k3") - MPoly.var("k1") ** 4 * MPoly.var("k2") ** 2
    v, c = p.bare_linear_var()
    assert v == "k3" and c == 1
    elim = p.eliminate(v, c)
    assert elim == MPoly.var("k1") ** 4 * MPoly.var("k2") ** 2
    # no bare linear var when it also appears in another term
    q = MPoly.var("k1") + MPoly.var("k1") * MPoly.var("k2")
    assert q.bare_linear_var() is None


def test_monomial_content_and_division():
    k1, k2 = MPoly.var("k1"), MPoly.var("k2")
    p = k1 ** 2 * k2 + k1 ** 3
    assert p.monomial_content() == {"k1": 2}
    assert p.divide_monomial({"k1": 2}) == k2 + k1


def test_single_monomial_and_binomial():
    k1, k2 = MPoly.var("k1"), MPoly.var("k2")
    c, exps = (k1 ** 2 * k2 * 3).as_single_monomial()
    assert c == 3 and exps == {"k1": 2, "k2": 1}
    b = (k1 ** 8 * k2 ** 8 - k1 ** 18 * k2).as_binomial()
    assert b is not None
    (c1, e1), (c2, e2) = b
    assert {c1, c2} == {1, -1}


def test_substitute():
    k1, k2 = MPoly.var("k1"), MPoly.var("k2")
    p = k1 ** 2 + k2
    assert p.substitute({"k1": Fraction(2)}) == k2 + 4
    assert p.substitute({"k2": k1}) == k1 ** 2 + k1
    assert p.substitute({"k9": Fraction(5)}) is p  # untouched fast path
    # simultaneous: the values are not substituted into each other
    assert p.substitute({"k1": k2, "k2": k1}) == k2 ** 2 + k1
    assert p.substitute({"k1": MPoly(), "k2": MPoly.const(Fraction(1, 2))}) == Fraction(1, 2)
    assert (k1 ** 4 * k2).substitute({"k1": k2 + 1}) == (k2 + 1) ** 4 * k2


def test_str_round_trip_shape():
    p = MPoly.var("k1") ** 2 - MPoly.var("k2")
    assert str(p) == "k1^2 - k2"


def test_scalar_equal_sums_look_up_like_the_scalar():
    assert {MPoly.const(3): "x"}.get(3) == "x"
    assert 3 in {MPoly.const(3)}
    assert {MPoly(): 1}.get(0) == 1
    free = FreeGCA([Generator("x", 2)])
    assert {free.zero(): 1}.get(0) == 1


_FREE = FreeGCA([Generator("x", 2), Generator("y", 3)])
_SMALL = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1), Fraction(2)])


@st.composite
def _value(draw):
    """A scalar, an MPoly or an Element over few monomials and coefficients,
    built through arithmetic so that equal values arise different ways."""
    kind = draw(st.sampled_from(["int", "fraction", "mpoly", "element"]))
    c = draw(_SMALL)
    if kind == "int":
        return int(c)
    if kind == "fraction":
        return c
    if kind == "mpoly":
        k = MPoly.var("k1", draw(st.integers(0, 1)))
        return k * c + MPoly.const(draw(_SMALL)) - k * draw(_SMALL)
    x = _FREE.gen(draw(st.sampled_from(["x", "y"])))
    return x.scale(c) + _FREE.one().scale(draw(_SMALL)) - x.scale(draw(_SMALL))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(_value(), min_size=2, max_size=6))
def test_equal_values_hash_alike(values):
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
