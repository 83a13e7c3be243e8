"""Catalog entries: structure, parameter validation, headline invariants."""

import pytest

from conftest import ALL_KEYS, built
from minmod import catalog
from minmod.dsl import print_algebra
from minmod.sullivan import check_d_squared, check_minimality, dimension_formula


def test_all_entries_pass_structural_checks():
    for key, params in ALL_KEYS:
        af, cert = built(key, **params)
        assert check_d_squared(af.algebra), key
        assert check_minimality(af.algebra), key
        assert cert.replay(), key


def test_lemma_shape():
    af = catalog.build("lemma", i=0)
    assert [g.degree for g in af.algebra.generators] == [4, 6, 27, 29, 31, 77, 75]
    assert dimension_formula(af.algebra) == 231
    af = catalog.build("lemma", i=3)
    assert af.algebra.generators[-1].degree == 75 + 12
    assert dimension_formula(af.algebra) == 231 + 12


def test_chiral_shapes():
    af = catalog.build("chiral1", l1=4, l2=2)
    assert [g.degree for g in af.algebra.generators] == [2, 4, 11, 11, 17, 19]
    assert dimension_formula(af.algebra) == 54
    assert dimension_formula(catalog.build("chiral2", l=4).algebra) == 73
    assert dimension_formula(catalog.build("chiral3", l=5).algebra) == 47


def test_cp_and_sphere():
    af = catalog.build("cp", n=4)
    assert [g.degree for g in af.algebra.generators] == [2, 17]
    assert dimension_formula(af.algebra) == 16
    af = catalog.build("sphere", k=6)
    assert dimension_formula(af.algebra) == 6
    assert print_algebra(catalog.build("cp", n=3)) == (
        "gen x : 2\ngen y : 13\nd y = x^7\nvolume x^6\n")
    assert print_algebra(catalog.build("sphere", k=8)) == (
        "gen x : 8\ngen y : 15\nd y = x^2\nvolume x\n")
    with pytest.raises(ValueError, match="^sphere requires an even degree$"):
        catalog.build("sphere", k=7)


def test_parameter_validation():
    with pytest.raises(ValueError):
        catalog.build("lemma", i=-1)
    with pytest.raises(ValueError):
        catalog.build("chiral1", l1=1, l2=2)
    with pytest.raises(ValueError):
        catalog.build("chiral3", l=4)
    with pytest.raises(ValueError):
        catalog.build("sphere", k=5)
    with pytest.raises(ValueError):
        catalog.build("lemma")  # missing i
    with pytest.raises(ValueError):
        catalog.build("lower-grading", i=1)  # unexpected parameter
    with pytest.raises(KeyError):
        catalog.build("nonesuch")


def test_describe_lists_every_entry():
    rows = catalog.describe()
    assert {r[0] for r in rows} == {e.key for e in catalog.ENTRIES}
    assert rows == [
        ("lemma", "7-generator elliptic family, dim 231+4i", "i: i >= 0"),
        ("chain-base", "base algebra of the fibration chain, dim 64", "-"),
        ("chain-fibered", "total space with a contractible pair", "-"),
        ("chain-reduced", "reduced total space, dim 66", "-"),
        ("chiral1", "orientation-chirality family, dim 4*l1+8*l2+22", "l1: l1 >= 2; l2: l2 >= 2"),
        ("chiral2", "orientation-chirality family, dim 4*l+57", "l: l >= 4"),
        ("chiral3", "orientation-chirality family, dim 4*l+27", "l: l >= 5"),
        ("lower-grading", "monomial-differential flexible example, dim 18", "-"),
        ("cp", "even complex projective space model, dim 4n", "n: n >= 1"),
        ("sphere", "even sphere model", "k: even, k >= 2"),
    ]


@pytest.mark.parametrize("entry", catalog.ENTRIES, ids=lambda e: e.key)
def test_least_parameter_values_build_and_one_less_does_not(entry):
    least = {name: low for name, low, _ in entry.parameters}
    assert catalog.build(entry.key, **least).algebra.generators
    for name in least:
        with pytest.raises(ValueError, match=f"parameter {name} must be an integer >= "):
            catalog.build(entry.key, **dict(least, **{name: least[name] - 1}))
