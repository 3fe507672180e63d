"""Field tower tests: cyclotomic fields, prime fields and extensions."""

import itertools
import pickle
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cycbrauer import scalars
from cycbrauer.criterion import VARIANTS, bar_deltas, decide
from cycbrauer.deltapoly import SymbolicParams
from cycbrauer.diagrams import NumericParams, symbolic_algebra
from cycbrauer.oracle import semisimple_verdict
from cycbrauer.scalars import (CyclotomicField, FiniteField,
                               NoRootError, _gf_xgcd, _poly_mul, _poly_xgcd,
                               _smallest_irreducible,
                               cyclotomic_polynomial, field_with_root,
                               is_prime, power)


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
    for m in range(1, 31):
        phi = cyclotomic_polynomial(m)
        totient = sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
        assert len(phi) - 1 == totient
        assert all(type(c) is int for c in phi)
        # x^m - 1 is the product of the Phi_d over the divisors d of m
        product = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                product = _poly_mul(product, list(cyclotomic_polynomial(d)), 0)
        assert product == [-1] + [0] * (m - 1) + [1]


def test_cyclotomic_polynomial_raises_on_inexact_division(monkeypatch):
    # a wrong factor (x + 1 for Phi_1) leaves a remainder in x^3 - 1
    real = scalars.cyclotomic_polynomial
    monkeypatch.setattr(scalars, "cyclotomic_polynomial",
                        lambda d: (1, 1) if d == 1 else real(d))
    with pytest.raises(ArithmeticError):
        real.__wrapped__(3)


def test_root_of_unity_orders():
    for m in (3, 4, 5, 6, 12):
        F = CyclotomicField(m)
        z = F.root_of_unity(m)
        assert z ** m == F.one
        for k in range(1, m):
            assert z ** k != F.one


@pytest.mark.parametrize("x", [
    CyclotomicField(3).element([1, Fraction(2, 3)]),
    CyclotomicField(1).embed(Fraction(-7, 2)),
    FiniteField(5, 2).element([1, 2]),
    FiniteField(7, 1).embed(3),
], ids=lambda x: repr(x.field))
def test_pickle_round_trip_keeps_the_field_instance(x):
    # a pickled element comes back on the one shared instance of its field
    y = pickle.loads(pickle.dumps(x))
    assert y == x and hash(y) == hash(x) and y.field is x.field
    assert pickle.loads(pickle.dumps(x.field)) is x.field


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


def _enumerated_root(F, m):
    """The search that root_of_unity replaced, kept as the reference: the
    first nonzero g, in itertools.product order, with g^((q-1)/m) of
    order m.  The product lists range(p) before its first tuple."""
    e = (F.order - 1) // m
    for coeffs in itertools.product(range(F.p), repeat=F.k):
        z = F.element(list(coeffs)) ** e
        if any(coeffs) and all(z ** d != F.one for d in range(1, m)):
            return z


def test_root_of_unity_matches_the_enumeration():
    # every prime p < 200, k <= 3 and m <= 12 dividing p^k - 1, 217 of
    # them with the first p candidates skipped; reduction_hom sends zeta
    # to the root of GF(p)
    for p in filter(is_prime, range(200)):
        for k in (1, 2, 3):
            F = FiniteField(p, k)
            for m in range(1, 13):
                if (F.order - 1) % m == 0:
                    z = _enumerated_root(F, m)
                    assert F.root_of_unity(m) == z, (p, k, m)
                    if k == 1 and m > 1:
                        hom = CyclotomicField(m).reduction_hom(p)
                        assert hom(CyclotomicField(m).zeta) == z.coeffs[0]


@pytest.mark.parametrize("m", [1, 3, 5])
def test_odd_m_holds_the_roots_of_order_dividing_2m(m):
    # Q(zeta_m) = Q(zeta_2m) for odd m: -zeta^(2m/k) has order k
    F = CyclotomicField(m)
    for k in (k for k in range(1, 2 * m + 1) if 2 * m % k == 0):
        z = F.root_of_unity(k)
        assert z ** k == F.one
        assert all(z ** d != F.one for d in range(1, k)), k
    with pytest.raises(NoRootError):
        F.root_of_unity(4)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("deltas", [[0, 3], [1, 1], [Fraction(1, 2), -2],
                                    [2, 0], [0, 0]])
def test_decide_over_q_as_q_zeta_1_and_q_zeta_2(n, deltas):
    # CyclotomicField(1) and CyclotomicField(2) are both Q
    for variant in VARIANTS:
        one, two = (decide(2, n, CyclotomicField(k), deltas, variant)
                    for k in (1, 2))
        assert one.to_json() == two.to_json(), variant


def test_reduction_hom():
    F = CyclotomicField(3)
    p = 13  # 13 = 1 mod 3, larger than any test denominator
    hom = F.reduction_hom(p)
    rng = random.Random(5)
    xs = random_elements(F, rng, 6)
    for a, b in zip(xs[0::2], xs[1::2]):
        assert hom(a * b) == hom(a) * hom(b) % p
        assert hom(a + b) == (hom(a) + hom(b)) % p


def test_modular_inverses_match_fermat():
    # pow(x, -1, p) at the GF(p) sites, against x^(p-2) mod p
    for p in (7, 13):
        K = FiniteField(p, 1)
        hom = CyclotomicField(3).reduction_hom(p)
        for x in range(1, p):
            fermat = pow(x, p - 2, p)
            assert K.embed(x).inverse().coeffs == (fermat,)
            assert K.embed(Fraction(5, x)).coeffs == (5 * fermat % p,)
            assert hom(CyclotomicField(3).embed(Fraction(5, x))) == \
                5 * fermat % p


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


def _plain_walk(p, k):
    """The modulus search with no codes skipped: the first f in base-p
    order with gcd(x^(p^d) - x, f) = 1 for every d <= k/2."""
    for code in range(p ** k):
        f = tuple(code // p ** i % p for i in range(k)) + (1,)
        ring = object.__new__(FiniteField)
        ring._setup(p, k, f)
        x = pw = ring.element([0, 1])
        for _ in range(k // 2):
            pw = pw ** p
            if any(_gf_xgcd(p, f, (pw - x).coeffs)[0][1:]):
                break
        else:
            return f


def test_smallest_irreducible_skips_only_reducible_binomials():
    # the walk skips the binomials x^k + a where Thm 3.75 of Lidl and
    # Niederreiter rules them all out; the modulus found stays the same
    for p in filter(is_prime, range(100)):
        for k in range(2, 7):
            assert _smallest_irreducible(p, k) == _plain_walk(p, k), (p, k)


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


class _Exponent:
    """Stands for x^e and counts every product it takes part in."""

    products = 0

    def __init__(self, e):
        self.e = e

    def __mul__(self, other):
        _Exponent.products += 1
        return _Exponent(self.e + other.e)


def test_power_multiplication_count():
    # bit_length(k) - 1 squares and popcount(k) - 1 multiplies for k >= 1;
    # nothing is multiplied by one
    counts = [0, 0, 1, 2, 2, 3, 3, 4, 3, 4, 4, 5, 4, 5, 5, 6, 4]
    for k, want in enumerate(counts):
        _Exponent.products = 0
        assert power(_Exponent(1), k, _Exponent(0)).e == k
        assert _Exponent.products == want, k
        if k:
            assert want == k.bit_length() - 1 + bin(k).count("1") - 1


def test_power_equals_repeated_multiplication():
    F = CyclotomicField(5)
    ring = SymbolicParams(2, F)
    algebra = symbolic_algebra(2, 2)
    cases = [
        (F.element([Fraction(1, 2), -1, 3, Fraction(2, 7)]), F.one),
        (FiniteField(5, 2).element([2, 3]), FiniteField(5, 2).one),
        (ring.delta(0) + ring.embed(F.zeta) * ring.delta(1), ring.one),
        (algebra.s(1) + algebra.t(1), algebra.one),
    ]
    for x, one in cases:
        want = one
        for k in range(10):
            assert power(x, k, one) == want, (x, k)
            want = want * x


def test_power_rejects_negative_exponents():
    F = CyclotomicField(2)
    ring = SymbolicParams(2, F)
    algebra = symbolic_algebra(2, 2)
    for x, one in [(F.zeta, F.one), (ring.delta(0), ring.one),
                   (algebra.s(1), algebra.one)]:
        with pytest.raises(ValueError):
            power(x, -2, one)
    with pytest.raises(ValueError):
        ring.delta(0) ** -1
    with pytest.raises(ValueError):
        algebra.s(1) ** -1
    # field elements invert first, then take the positive power
    assert F.zeta ** -2 == F.one and CyclotomicField(5).zeta ** -1 == \
        CyclotomicField(5).zeta ** 4


@pytest.mark.parametrize("bad", [np.int64(3), 0.5, True],
                         ids=["int64", "float", "bool"])
def test_foreign_scalars_are_refused(bad):
    # once read as None and so as zero: decide took (int64 0, int64 3) for
    # delta = 0, and NumericParams stored [None, None]; a bool was read as
    # the int 0 or 1 (semisimple_verdict gave radical 3 at (True, 1))
    F = CyclotomicField(2)
    for field in (F, FiniteField(7, 1)):
        with pytest.raises(TypeError):
            field.coerce(bad)
    for call in (lambda: decide(2, 2, F, [bad, bad]),
                 lambda: decide(2, 2, F, [0, bad], "gmu"),
                 lambda: semisimple_verdict(2, 2, F, [bad, bad]),
                 lambda: bar_deltas(F, [bad, 1]),
                 lambda: NumericParams(F, [bad, bad]),
                 lambda: SymbolicParams(2).embed(bad)):
        with pytest.raises(TypeError):
            call()
    # the operator path declines, so Python raises TypeError
    assert F.one.__add__(bad) is NotImplemented
    assert SymbolicParams(2).one.__mul__(bad) is NotImplemented
    assert decide(2, 2, F, [0, 3]).semisimple


@pytest.mark.parametrize("field", [CyclotomicField(1), CyclotomicField(3),
                                   FiniteField(7, 1), FiniteField(5, 2)],
                         ids=repr)
def test_element_and_embed_refuse_floats_and_bools(field):
    # CyclotomicField(3).element([0.1]) once gave
    # 3602879701896397/36028797018963968 and FiniteField(7, 1).element([2.0])
    # stored the float 2.0
    for bad in (0.1, 2.0, True, False):
        for call in (lambda: field.element([bad]),
                     lambda: field.element([1, bad]),
                     lambda: field.embed(bad)):
            with pytest.raises(TypeError):
                call()
    assert field.element([2, Fraction(1, 2)]) == \
        field.embed(2) + field.embed(Fraction(1, 2)) * field.element([0, 1])


# the product and inverse the fold-table kernel replaced: a generic
# polynomial product reduced by long division in field.element, and the
# extended Euclid inverse for every nonzero element
def reference_mul(a, b):
    zero = a.field.zero.coeffs[0]
    return a.field.element(_poly_mul(list(a.coeffs), list(b.coeffs), zero))


def reference_inverse(a):
    F = a.field
    g, s = _poly_xgcd([Fraction(c) for c in F.modulus], a.coeffs,
                      Fraction(0), Fraction(1))
    return F.element([x / g[0] for x in s])


def reference_ff_inverse(a):
    """The extended Euclid inverse over GF(p) that GF(p^k), k > 1, used
    before a^(q-2)."""
    F = a.field
    gf = FiniteField(F.p, 1)
    g, s = _poly_xgcd([gf.embed(c) for c in F.modulus],
                      [gf.embed(c) for c in a.coeffs], gf.zero, gf.one)
    return F.element([(c / g[0]).coeffs[0] for c in s])


@pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 5, 7)
                                 for k in (1, 2, 3)])
def test_ff_inverse_matches_euclid(p, k):
    F = FiniteField(p, k)
    for coeffs in itertools.product(range(p), repeat=k):
        a = F.element(list(coeffs))
        if a:
            assert a.inverse().coeffs == reference_ff_inverse(a).coeffs


def make_element(F, kind, coeffs):
    """A zero, a prime-field or a full element of F from drawn
    coefficients (full: some coefficient beyond the constant one nonzero,
    when F is not Q)."""
    if kind == "zero":
        return F.zero
    if kind == "rational":
        return F.embed(coeffs[0])
    coeffs = list(coeffs[:F.degree])
    if F.degree > 1 and not any(coeffs[1:]):
        coeffs[-1] = 1
    return F.element(coeffs)


KINDS = st.sampled_from(["zero", "rational", "full"])
# phi(m) <= 10 for m <= 12; small parts and some beyond 2^64
HUGE = st.integers(2 ** 64, 2 ** 80)
RATIONALS = st.lists(st.builds(Fraction,
                               st.integers(-50, 50) | HUGE | HUGE.map(int.__neg__),
                               st.integers(1, 30) | HUGE),
                     min_size=10, max_size=10)
# reduced mod p by FiniteField.element
RESIDUES = st.lists(st.integers(0, 420), min_size=4, max_size=4)
# no explain phase: it traces every line of a failing case, which turns
# a failure of these Fraction-heavy tests into minutes of tracing
NO_EXPLAIN = [Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink]


@pytest.mark.parametrize("m", range(1, 13))
@settings(max_examples=60, deadline=None, phases=NO_EXPLAIN)
@given(KINDS, RATIONALS, KINDS, RATIONALS)
def test_cyclotomic_kernel_matches_reference(m, kind_a, ca, kind_b, cb):
    F = CyclotomicField(m)
    a, b = make_element(F, kind_a, ca), make_element(F, kind_b, cb)
    for got, want in [(a * b, reference_mul(a, b)),
                      (b * a, reference_mul(b, a))] + \
            [(x.inverse(), reference_inverse(x)) for x in (a, b) if x]:
        assert got.coeffs == want.coeffs and hash(got) == hash(want)
        assert len(got.coeffs) == F.degree
        assert_canonical(got)


def assert_canonical(x):
    """x in lowest terms over a positive denominator (1 for zero), with
    Fraction coefficients and the hash of (m, coeffs)."""
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    assert x.den == 1 or any(x.num)
    assert len(x.num) == x.field.degree
    assert all(type(c) is int for c in x.num)
    assert all(type(c) is Fraction for c in x.coeffs)
    assert hash(x) == hash((x.field.m, x.coeffs))


# the sum and difference before zero pairs were skipped: every
# coefficient pair added as Fractions
def reference_add(a, b):
    return a.field.element([x + y for x, y in zip(a.coeffs, b.coeffs)])


def reference_sub(a, b):
    return a.field.element([x - y for x, y in zip(a.coeffs, b.coeffs)])


@pytest.mark.parametrize("m", range(1, 13))
@settings(max_examples=60, deadline=None, phases=NO_EXPLAIN)
@given(KINDS, RATIONALS, KINDS, RATIONALS)
def test_cyclotomic_add_sub_match_reference(m, kind_a, ca, kind_b, cb):
    F = CyclotomicField(m)
    a, b = make_element(F, kind_a, ca), make_element(F, kind_b, cb)
    two = F.embed(2)
    for got, want in [(a + b, reference_add(a, b)),
                      (b + a, reference_add(b, a)),
                      (a - b, reference_sub(a, b)),
                      (b - a, reference_sub(b, a)),
                      (a + 2, reference_add(a, two)),
                      (2 - a, reference_sub(two, a))]:
        assert got.coeffs == want.coeffs and hash(got) == hash(want)
        assert_canonical(got)


@pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 5, 7)
                                 for k in range(1, 5)])
@settings(max_examples=40, deadline=None, phases=NO_EXPLAIN)
@given(KINDS, RESIDUES, KINDS, RESIDUES)
def test_finite_field_kernel_matches_reference(p, k, kind_a, ca, kind_b, cb):
    F = FiniteField(p, k)
    a, b = make_element(F, kind_a, ca), make_element(F, kind_b, cb)
    got = a * b
    assert got.coeffs == reference_mul(a, b).coeffs
    assert hash(got) == hash(reference_mul(a, b))
    assert all(type(c) is int and 0 <= c < p for c in got.coeffs)
