"""Field tower tests: cyclotomic fields, prime fields and extensions."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycbrauer.scalars import (CyclotomicField, FiniteField, NoRootError,
                               _smallest_irreducible, cyclotomic_polynomial,
                               field_with_root, is_prime)


def random_elements(field, rng, count):
    out = []
    for _ in range(count):
        if isinstance(field, CyclotomicField):
            out.append(field.element([Fraction(rng.randint(-9, 9),
                                               rng.randint(1, 7))
                                      for _ in range(field.degree)]))
        else:
            out.append(field.element([rng.randrange(field.p)
                                      for _ in range(field.k)]))
    return out


@pytest.mark.parametrize("field", [
    CyclotomicField(1), CyclotomicField(3), CyclotomicField(4),
    CyclotomicField(5), CyclotomicField(12),
    FiniteField(7, 1), FiniteField(5, 2), FiniteField(2, 3),
])
def test_field_axioms(field):
    rng = random.Random(11)
    xs = random_elements(field, rng, 12)
    for a, b, c in zip(xs[0::3], xs[1::3], xs[2::3]):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + field.zero == a
        assert a * field.one == a
        assert a - a == field.zero
        if a:
            assert a * a.inverse() == field.one


def test_cyclotomic_polynomials():
    assert list(cyclotomic_polynomial(1)) == [-1, 1]
    assert list(cyclotomic_polynomial(2)) == [1, 1]
    assert list(cyclotomic_polynomial(3)) == [1, 1, 1]
    assert list(cyclotomic_polynomial(4)) == [1, 0, 1]
    assert list(cyclotomic_polynomial(6)) == [1, -1, 1]
    assert list(cyclotomic_polynomial(12)) == [1, 0, -1, 0, 1]
    for m in range(1, 30):
        totient = sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
        assert len(cyclotomic_polynomial(m)) - 1 == totient


def test_root_of_unity_orders():
    for m in (3, 4, 5, 6, 12):
        F = CyclotomicField(m)
        z = F.root_of_unity(m)
        assert z ** m == F.one
        for k in range(1, m):
            assert z ** k != F.one


def test_parse_format_roundtrip():
    F = CyclotomicField(5)
    rng = random.Random(3)
    for x in random_elements(F, rng, 10):
        assert F.parse_element(F.format_element(x)) == x


def test_field_with_root():
    F = field_with_root(0, 6)
    assert F.characteristic == 0
    K = field_with_root(7, 3)  # 7 = 1 mod 3
    assert K.characteristic == 7
    z = K.root_of_unity(3)
    assert z ** 3 == K.one and z != K.one
    # GF(5) has no cube root of unity; an extension is required
    K2 = field_with_root(5, 3)
    assert K2.characteristic == 5
    assert K2.root_of_unity(3) ** 3 == K2.one
    with pytest.raises(NoRootError):
        CyclotomicField(4).root_of_unity(3)


def test_reduction_hom():
    F = CyclotomicField(3)
    p = 13  # 13 = 1 mod 3, larger than any test denominator
    hom = F.reduction_hom(p)
    rng = random.Random(5)
    xs = random_elements(F, rng, 6)
    for a, b in zip(xs[0::2], xs[1::2]):
        assert hom(a * b) == hom(a) * hom(b) % p
        assert hom(a + b) == (hom(a) + hom(b)) % p


def test_prod_one_minus_roots():
    # prod_{a=1}^{m-1}(1 - zeta^a) = m for every m >= 2 (derivative of x^m-1)
    for m in range(2, 9):
        F = CyclotomicField(m)
        prod = F.one
        for a in range(1, m):
            prod = prod * (F.one - F.zeta ** a)
        assert prod == F.embed(m)


# the moduli of GF(p^k) for p <= 7, k <= 4 (ascending coefficients); they
# fix the power basis, hence how elements print, so they must not change
SMALLEST_IRREDUCIBLE = {
    (2, 1): (0, 1), (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 1): (0, 1), (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (5, 1): (0, 1), (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1),
    (7, 1): (0, 1), (7, 2): (1, 0, 1), (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1),
}


def test_smallest_irreducible_table():
    for (p, k), f in SMALLEST_IRREDUCIBLE.items():
        assert _smallest_irreducible(p, k) == f, (p, k)
        assert FiniteField(p, k).modulus == f


@st.composite
def nonzero_ff_elements(draw):
    p, k = draw(st.sampled_from([(2, 1), (2, 4), (3, 3), (5, 2), (7, 1),
                                 (7, 3), (11, 2)]))
    F = FiniteField(p, k)
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k)
                  .filter(any))
    return F, F.element(coeffs)


@settings(max_examples=200, deadline=None)
@given(nonzero_ff_elements())
def test_ff_inverse_property(sample):
    F, a = sample
    assert a * a.inverse() == F.one
    assert a ** -1 == a.inverse() and (a ** -1) ** -1 == a
    assert a ** (F.order - 1) == F.one


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(2000) if is_prime(n)] == \
        [n for n in range(2000) if trial(n)]
    assert is_prime(2_147_483_647) and not is_prime(2_147_483_649)
    assert not is_prime(3_215_031_751)  # strong pseudoprime to bases 2..7
    with pytest.raises(ValueError):
        FiniteField(12, 1)
