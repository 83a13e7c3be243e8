"""Parsing, semantic validation, and round-trip printing."""

from fractions import Fraction

import pytest

from minmod import catalog
from minmod.dsl import (ParseError, element_str, parse_algebra, parse_element,
                        parse_morphism, print_algebra)

A0_TEXT = """\
gen x1 : 4
gen x2 : 6
gen y1 : 27
gen y2 : 29
gen y3 : 31
gen z : 77
gen z' : 75
d y1 = x1^4*x2^2
d y2 = x1^3*x2^3
d y3 = x1^2*x2^4
d z = x1*x2^3*y1*y2 - x1^2*x2^2*y1*y3 + x1^3*x2*y2*y3 + x2*x1^18 + x2^13
d z' = x1^19
volume x2^26*z' - x1^15*x2^24*y1
"""


def test_parse_full_presentation():
    af = parse_algebra(A0_TEXT, name="a0")
    assert [g.degree for g in af.algebra.generators] == [4, 6, 27, 29, 31, 77, 75]
    assert len(af.algebra.d_gen("z").terms) == 5
    assert af.volume is not None and af.volume.degree() == 231


def test_parse_single_monomial_coefficient():
    af = parse_algebra(A0_TEXT)
    dy1 = af.algebra.d_gen("y1")
    assert list(dy1.terms.values()) == [Fraction(1)]


def test_params_in_degrees_and_exponents():
    text = "param i = 2\ngen x : 4\ngen z' : 75 + 4*i\nd z' = x^(19 + i)\n"
    af = parse_algebra(text)
    assert af.algebra.generators[1].degree == 83
    assert af.algebra.d_gen("z'") == af.algebra.gen("x") ** 21


def test_degree_mismatch_rejected():
    with pytest.raises(ParseError) as exc:
        parse_algebra("gen x1 : 4\ngen x2 : 6\ngen y1 : 27\nd y1 = x1 + x2\n")
    assert "homogeneous" in str(exc.value)


def test_unknown_name_with_position():
    with pytest.raises(ParseError) as exc:
        parse_algebra("gen x : 4\nd x = w^2\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("text,stray,line,col", [
    ("gen x : 4 !\n", "!", 1, 11),
    ("gen x : 2\nd x =   x ; 2\n", ";", 2, 11),
    ("gen x : 2\n  d x = x @ 2\n", "@", 2, 11),
], ids=["after-a-degree", "inside-a-differential", "on-an-indented-line"])
def test_stray_character_reported_at_its_own_column(text, stray, line, col):
    with pytest.raises(ParseError) as exc:
        parse_algebra(text)
    assert f"unexpected character {stray!r}" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_odd_square_rejected():
    with pytest.raises(ParseError):
        parse_algebra("gen a : 3\ngen m : 7\nd m = a^2\n")


def test_vanishing_power_of_an_odd_factor_is_refused_at_its_caret():
    gens = "gen x : 2\ngen y : 3\ngen z : 5\n"
    with pytest.raises(ParseError) as exc:
        parse_algebra(gens + "d z = y^2\n")
    assert str(exc.value) == "power vanishes: odd factor squared (line 4, column 8)"
    alg = parse_algebra(gens).algebra
    x, y = alg.free.gen("x"), alg.free.gen("y")
    assert parse_element(alg, "y^1") == y
    assert parse_element(alg, "y^0") == alg.free.one()
    assert parse_element(alg, "(x + y)^2") == x * x + (x * y).scale(2)


def test_duplicate_generators_rejected():
    with pytest.raises(ParseError):
        parse_algebra("gen x : 4\ngen x : 6\n")


@pytest.mark.parametrize("text,statement,line", [
    ("gen x : 2\ngen y : 3\nd y = 0\nd y = x^2\nvolume x\nvolume x^5\n", "d y", 4),
    ("gen x : 2\ngen y : 3\nd y = x^2\nvolume x\nvolume x^5\n", "volume", 5),
    ("param n = 2\nparam n = 3\ngen x : 2*n\n", "param n", 2),
    ("gen x : 4\ngen x : 6\n", "gen x", 2),
], ids=["d", "volume", "param", "gen"])
def test_repeated_statement_rejected_at_its_line(text, statement, line):
    with pytest.raises(ParseError) as exc:
        parse_algebra(text)
    assert f"repeated statement {statement!r}" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (line, 1)


def test_degree_below_two_rejected():
    with pytest.raises(ParseError):
        parse_algebra("gen x : 1\n")


def test_precedence_and_unary_minus():
    af = parse_algebra("gen x : 2\ngen y : 4\n")
    alg = af.algebra
    e = parse_element(alg, "-x^2 + 2*y")
    assert e == alg.gen("y").scale(2) - alg.gen("x") ** 2
    # ^ binds tighter than unary minus: -x^2 = -(x^2)
    assert parse_element(alg, "-x^2") == -(alg.gen("x") ** 2)
    # right-associativity of ^ via nested exponent: x^(2^2) wait - integers only
    assert parse_element(alg, "3/2*x") == alg.gen("x").scale(Fraction(3, 2))


def test_a_sign_binds_looser_than_power_and_tighter_than_product():
    alg = parse_algebra("gen x : 2\ngen y : 4\n").algebra
    x, y = alg.gen("x"), alg.gen("y")
    assert parse_element(alg, "x*-y^2") == -(x * y ** 2)
    assert parse_element(alg, "x - -y^2") == x + y ** 2
    assert parse_element(alg, "+x") == x
    assert parse_element(alg, "-(x)^2 - +y") == -(x ** 2) - y
    with pytest.raises(ParseError) as exc:
        parse_element(alg, "2^-1")
    assert str(exc.value) == "exponent must be a non-negative integer, got -1 (line 1, column 2)"


@pytest.mark.parametrize("text,morphism,line,col", [
    ("gen x : 2\ngen y : 3\nd y = x^\n", None, 3, 9),
    ("gen x : 2\nvolume\n", None, 2, 7),
    ("gen x : 2\ngen y : 3\nd y = (x  # open\n", None, 3, 9),
    ("gen x : 2\ngen y : 3\n", "f x = 2*\nf y = y\n", 1, 9),
], ids=["power", "volume-alone", "open-parenthesis", "morphism"])
def test_end_of_expression_names_the_column_after_the_last_token(text, morphism, line, col):
    with pytest.raises(ParseError) as exc:
        alg = parse_algebra(text).algebra
        parse_morphism(alg, morphism)
    assert str(exc.value) == f"unexpected end of expression (line {line}, column {col})"


def test_rational_division_only_by_literals():
    af = parse_algebra("gen x : 2\n")
    with pytest.raises(ParseError):
        parse_element(af.algebra, "x/x")
    assert parse_element(af.algebra, "x/2*4").terms == {(1,): 2}


@pytest.mark.parametrize("text", ["x/0", "x/(1-1)", "3/(2-2)*x"])
def test_division_by_zero_is_a_parse_error(text):
    af = parse_algebra("gen x : 2\n")
    with pytest.raises(ParseError) as exc:
        parse_element(af.algebra, text)
    assert str(exc.value).startswith("division by zero (line 1, column ")


def test_round_trip():
    af = parse_algebra(A0_TEXT, name="a0")
    text = print_algebra(af)
    af2 = parse_algebra(text, name="a0")
    assert [g.name for g in af2.algebra.generators] == [g.name for g in af.algebra.generators]
    for g in af.algebra.generators:
        assert af2.algebra.d_gen(g.name).terms == {
            m: c for m, c in af.algebra.d_gen(g.name).terms.items()}
    assert element_str(af2.volume) == element_str(af.volume)


def test_element_str_inverse():
    af = parse_algebra(A0_TEXT)
    alg = af.algebra
    for text in ("x2^26*z' - x1^15*x2^24*y1", "x1^2", "3/2*x1",
                 "-y1 + x1^5*x2"):
        e = parse_element(alg, text)
        assert parse_element(alg, element_str(e)) == e


def test_parse_morphism():
    af = parse_algebra("gen x : 2\ngen y : 3\nd y = x^2\n")
    images = parse_morphism(af.algebra, "f x = 2*x\nf y = 4*y\n")
    assert images["x"] == af.algebra.gen("x").scale(2)
    with pytest.raises(ParseError):
        parse_morphism(af.algebra, "f x = 2*x\n")  # y missing
    with pytest.raises(ParseError):
        parse_morphism(af.algebra, "f x = 2*x\nf w = 0\n")


def test_repeated_morphism_statement_rejected_at_its_line():
    alg = catalog.build("cp", n=4).algebra
    with pytest.raises(ParseError) as exc:
        parse_morphism(alg, "f x = 2*x\nf y = 512*y\nf x = 3*x\n")
    assert "repeated statement 'f x'" in str(exc.value)
    assert (exc.value.line, exc.value.col) == (3, 1)


@pytest.mark.parametrize("text,morphism", [
    ("gen x : 4\ngen x : 6\n", None),
    ("gen x : 1\n", None),
    ("gen x : 2\nd x = y\n", None),
    ("gen x : 2\ngen y : 3\nd z = x^2\n", None),
    ("gen x : 2\ngen y : 3\nd y = x^\n", None),
    ("gen x : 2\ngen y : 3\nvolume 2\n", None),
    ("gen x : 2\ngen y : 3\nd y = x^2\n", "f x = 2*x\n"),
    ("gen x : 2\ngen y : 3\nd y = x^2\n", "f x = 2*x\nf x = x\n"),
], ids=["repeated-gen", "low-degree", "unknown-name", "unknown-generator", "end-of-expression",
        "numeric-volume", "missing-image", "repeated-image"])
def test_parse_errors_name_no_line_zero(text, morphism):
    with pytest.raises(ParseError) as exc:
        alg = parse_algebra(text).algebra
        parse_morphism(alg, morphism)
    assert "line 0" not in str(exc.value) and "column 0" not in str(exc.value)


def test_whole_file_errors_carry_no_location():
    af = parse_algebra("gen x : 2\ngen y : 3\nd y = x^2\n")
    with pytest.raises(ParseError) as exc:
        parse_morphism(af.algebra, "f x = 2*x\n")
    assert str(exc.value) == "morphism gives no image for generator y"
    assert exc.value.line is None


def test_morphism_zero_image():
    af = parse_algebra("gen x : 2\ngen y : 3\nd y = x^2\n")
    images = parse_morphism(af.algebra, "f x = 0\nf y = 0\n")
    assert not images["x"] and not images["y"]


def test_comments_and_blank_lines():
    af = parse_algebra("# header\n\ngen x : 2  # trailing\n")
    assert len(af.algebra.generators) == 1


GX_GY = "gen x : 2\ngen y : 3\n"


@pytest.mark.parametrize("text,morphism,message,line,col", [
    ("param 3 = 4\n", None, "expected: param NAME = INT", 1, 1),
    ("param n 3\n", None, "expected: param NAME = INT", 1, 1),
    ("param n = 1/2\n", None, "param value must be an integer", 1, 11),
    ("gen x 2\n", None, "expected: gen NAME : DEGREE", 1, 1),
    (GX_GY + "d y x^2\n", None, "expected: d NAME = EXPR", 3, 1),
    ("gen x : 2\nfoo x\n", None, "unknown statement 'foo'", 2, 1),
    ("gen x : 2 3\n", None, "trailing input '3'", 1, 11),
    (GX_GY + "d y = x^x\n", None, "exponent must be numeric", 3, 8),
    ("gen x : *\n", None, "unexpected token '*'", 1, 9),
    ("gen x : (2 3\n", None, "expected ')', got '3'", 1, 12),
    (GX_GY + "d y = 3\n", None, "d y must be an algebra element", 3, 1),
    (GX_GY + "d y = x^2\n", "g x = 2*x\n", "expected: f NAME = EXPR", 1, 1),
], ids=["param-number-name", "param-without-equals", "param-fraction", "gen-without-colon",
        "d-without-equals", "unknown-statement", "trailing-input", "symbolic-exponent",
        "unexpected-token", "unclosed-parenthesis", "numeric-differential", "not-f"])
def test_parse_errors_name_message_line_and_column(text, morphism, message, line, col):
    with pytest.raises(ParseError) as exc:
        alg = parse_algebra(text).algebra
        parse_morphism(alg, morphism)
    assert str(exc.value) == f"{message} (line {line}, column {col})"
    assert (exc.value.line, exc.value.col) == (line, col)


def test_zero_differential_parses_as_zero():
    alg = parse_algebra(GX_GY + "d y = 0\n").algebra
    assert not alg.d_gen("y")
