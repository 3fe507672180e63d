"""Diagram basis, multiplication kernel, relations and involutions."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycbrauer.diagrams import (Diagram, DiagramAlgebra, NumericParams,
                                SymbolicParams, associativity_check,
                                associativity_witness, basis_size,
                                enumerate_basis, generator, identity_diagram,
                                iota_diagram, is_admissible, make_diagram,
                                multiply_diagrams, star_diagram,
                                symbolic_algebra, verify_relations,
                                wreath_to_diagram)
from cycbrauer.scalars import CyclotomicField
from cycbrauer.wreath import enumerate_group, inverse

Q = CyclotomicField(1)


def admissible_numeric(m, seed=0):
    rng = random.Random(seed)
    free = [Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            for _ in range(m // 2 + 1)]
    return NumericParams(Q, [free[min(j, m - j)] for j in range(m)])


def test_dimension_counts():
    for m in (1, 2, 3, 4):
        for n in (1, 2, 3):
            dfac = 1
            for k in range(1, 2 * n, 2):
                dfac *= k
            assert basis_size(m, n) == m ** n * dfac
            if basis_size(m, n) <= 2000:
                assert len(enumerate_basis(m, n)) == basis_size(m, n)


def test_json_roundtrip():
    for d in enumerate_basis(3, 2):
        assert Diagram.from_json(d.to_json()) == d


def test_make_diagram_validates():
    with pytest.raises(ValueError):
        make_diagram(2, 2, [((1, 2), 0), ((2, 3), 0)])


@pytest.mark.parametrize("mn", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                (4, 2), (4, 3)])
def test_relation_suite(mn):
    m, n = mn
    results = verify_relations(m, n)
    bad = [r for r in results if not r["ok"]]
    assert not bad, bad


def test_basis_closure_exhaustive():
    # a product of basis diagrams is always a delta monomial times a basis
    # diagram; exhaustively at (2,2) and (3,2)
    for (m, n) in [(2, 2), (3, 2)]:
        basis = set(enumerate_basis(m, n))
        for x in basis:
            for y in basis:
                prod, loops = multiply_diagrams(x, y)
                assert prod in basis
                assert all(0 <= a < m for a in loops)


def test_associativity_sampling():
    rep = associativity_check(2, 3, trials=300, seed=7)
    assert rep["ok"], rep
    rep = associativity_check(3, 3, trials=100, seed=7)
    assert rep["ok"] and rep["admissible"], rep


def test_associativity_admissible_numeric():
    for (m, n) in [(3, 2), (4, 2)]:
        rep = associativity_check(m, n, params=admissible_numeric(m),
                                  trials=400, seed=1)
        assert rep["ok"], rep


@lru_cache(maxsize=None)
def cached_basis(m, n):
    return enumerate_basis(m, n)


@st.composite
def admissible_triples(draw):
    """(algebra at an admissible rational point, three basis elements)."""
    m, n = draw(st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2), (3, 3),
                                 (4, 2), (5, 2)]))
    free = draw(st.lists(st.fractions(-9, 9, max_denominator=7),
                         min_size=m // 2 + 1, max_size=m // 2 + 1))
    alg = DiagramAlgebra(m, n, NumericParams(
        Q, [free[min(j, m - j)] for j in range(m)]))
    basis = cached_basis(m, n)
    picks = st.integers(0, len(basis) - 1)
    return alg, [alg.element(basis[draw(picks)]) for _ in range(3)]


@settings(max_examples=150, deadline=None)
@given(admissible_triples())
def test_associativity_property(sample):
    _, (x, y, z) = sample
    assert (x * y) * z == x * (y * z)


@settings(max_examples=150, deadline=None)
@given(admissible_triples())
def test_star_is_an_anti_involution_property(sample):
    alg, (x, y, z) = sample
    s = x + y.scale(Fraction(-3, 2))  # a sum, not only a basis diagram
    assert (s * z).star() == z.star() * s.star()
    assert s.star().star() == s
    assert alg.one().star() == alg.one()


def test_associativity_needs_admissible_parameters():
    """The defining relations force delta_a = delta_{m-a} in an associative
    algebra; off that locus the product has a nonzero associator."""
    w = associativity_witness(3)
    assert w is not None
    assert w["left"] != w["right"]
    params = w["left"].params
    e1 = generator(3, 2, "e", 1)
    assert w["left"].coefficient(e1) == params.delta(1)
    assert w["right"].coefficient(e1) == params.delta(2)
    assert associativity_witness(2) is None
    rep = associativity_check(3, 2, params=SymbolicParams(3),
                              trials=200, seed=0)
    assert not rep["admissible"] and not rep["ok"]


def test_identity_and_powers():
    alg = symbolic_algebra(3, 3)
    one = alg.one()
    x = alg.s(1) * alg.t(2) + alg.e(2).scale(alg.params.delta(1))
    assert one * x == x and x * one == x
    assert alg.t(1) ** 3 == one


def test_e_squared_and_ete():
    alg = symbolic_algebra(4, 2)
    d = alg.params.delta
    assert alg.e(1) * alg.e(1) == alg.e(1).scale(d(0))
    for a in range(1, 4):
        assert alg.e(1) * alg.t(1) ** a * alg.e(1) == alg.e(1).scale(d(a))


def test_star_anti_involution():
    rng = random.Random(9)
    for (m, n) in [(2, 3), (3, 2), (3, 3)]:
        params = admissible_numeric(m, seed=m)
        alg = DiagramAlgebra(m, n, params)
        basis = enumerate_basis(m, n)
        for _ in range(150):
            x = alg.element(rng.choice(basis))
            y = alg.element(rng.choice(basis))
            assert (x * y).star() == y.star() * x.star()
            assert x.star().star() == x


def test_iota_is_an_involution():
    for (m, n) in [(2, 2), (3, 2), (2, 3)]:
        for d in enumerate_basis(m, n):
            assert iota_diagram(iota_diagram(d)) == d
            assert star_diagram(star_diagram(d)) == d


def test_iota_group_action():
    # iota(w * x) = iota(x) * w^{-1}, with no loops involved on either side
    rng = random.Random(13)
    for (m, n) in [(2, 3), (3, 2), (3, 3)]:
        params = admissible_numeric(m, seed=m + 1)
        alg = DiagramAlgebra(m, n, params)
        basis = enumerate_basis(m, n)
        W = enumerate_group(m, n)
        for _ in range(150):
            w, x = rng.choice(W), rng.choice(basis)
            lhs = (alg.element(wreath_to_diagram(w)) * alg.element(x)).iota()
            rhs = alg.element(x).iota() * alg.element(wreath_to_diagram(inverse(w)))
            assert lhs == rhs


def test_wreath_embedding_is_a_homomorphism():
    rng = random.Random(17)
    from cycbrauer.wreath import compose
    for (m, n) in [(2, 3), (3, 2)]:
        alg = symbolic_algebra(m, n)
        W = enumerate_group(m, n)
        for _ in range(100):
            g, h = rng.choice(W), rng.choice(W)
            assert alg.embed_wreath(g) * alg.embed_wreath(h) == \
                alg.embed_wreath(compose(g, h))


def test_is_admissible():
    assert is_admissible(SymbolicParams(2))
    assert not is_admissible(SymbolicParams(3))
    assert is_admissible(SymbolicParams(3, symmetric=True))
    assert is_admissible(NumericParams(Q, [1, 5, 5]))
    assert not is_admissible(NumericParams(Q, [1, 5, 6]))
