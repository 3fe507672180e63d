"""Semisimplicity criterion: bar transform, Z sets, cell factors, verdicts."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cycbrauer.criterion import (VARIANTS, bar_deltas, brauer_z, decide,
                                 g_lambda_mu, g_mu, g_mu_values, z_set,
                                 z_tilde)
from cycbrauer.oracle import (StructureTable, _hyperplane_point,
                              semisimple_verdict, semisimple_verdicts)
from cycbrauer.partitions import admissible_set, multipartitions
from cycbrauer.scalars import (CyclotomicField, FiniteField, NoRootError,
                               field_with_root)

Q = CyclotomicField(1)
REPORT = Path(__file__).resolve().parent.parent / "reports" / "concordance.json"


def test_bar_deltas_m2():
    F = CyclotomicField(2)
    a, b = F.embed(3), F.embed(5)
    bars = bar_deltas(F, [a, b])
    assert bars[0] == a + b
    assert bars[1] == a - b


def _reference_inverse(field, bars):
    """The inverse bar transform as the loop the sweep once ran:
    delta_j = (1/m) sum_i bar_i xi^{-ji}."""
    m = len(bars)
    xi = field.root_of_unity(m)
    minv = field.embed(Fraction(1, m))
    deltas = []
    for j in range(m):
        acc = field.zero
        for i in range(m):
            acc = acc + bars[i] * xi ** ((-j * i) % m)
        deltas.append(acc * minv)
    return deltas


def test_bar_deltas_inverts():
    # the transform is a bijection: recover deltas by the inverse transform
    F = CyclotomicField(3)
    deltas = [F.embed(Fraction(1, 2)), F.embed(2), F.embed(-7)]
    assert _reference_inverse(F, bar_deltas(F, deltas)) == deltas


def test_z_tilde_printed_small():
    assert z_tilde(2, 2, "printed") == frozenset()
    assert z_tilde(3, 2, "printed") == frozenset({0})
    assert z_tilde(2, 3, "printed") == frozenset({0, 3})
    assert z_tilde(3, 3, "printed") == frozenset({-1, 0, 1, 3})


def test_z_variants_agree_for_large_n():
    for m in range(1, 6):
        for n in range(4, 9):
            assert z_tilde(m, n, "printed") == z_tilde(m, n, "combinatorial")


def test_z_variants_differ_on_thin_locus():
    # frozen observation: the combinatorial set has the extra element 1 at
    # n = 2 (every m) and at n = 3 for m <= 2; equality otherwise
    for m in range(1, 6):
        diff = z_tilde(m, 2, "combinatorial") ^ z_tilde(m, 2, "printed")
        assert diff == {1}
    for m in (1, 2):
        assert z_tilde(m, 3, "combinatorial") ^ z_tilde(m, 3, "printed") == {1}
    for m in (3, 4, 5):
        assert z_tilde(m, 3, "combinatorial") == z_tilde(m, 3, "printed")


def test_z_set_scaling():
    assert z_set(3, 2, "printed") == frozenset({0})
    assert z_set(2, 3, "printed") == frozenset({0, 6})


def test_brauer_z():
    assert brauer_z(2) == frozenset({0})
    assert 1 in brauer_z(3)  # B_3(1) is famously not semisimple
    assert 2 not in brauer_z(3)


def test_g_mu_generic_nonzero():
    F = CyclotomicField(3)
    deltas = [F.embed(Fraction(22, 7)), F.embed(5), F.embed(-9)]
    for mu in multipartitions(3, 1):
        assert g_mu(F, deltas, mu)


def test_g_lambda_mu_vanishes_on_hyperplane():
    # pick an admissible pair and solve bar_0 = m - m c by hand
    F = CyclotomicField(2)
    mu = ((), ())
    pair = admissible_set(mu, 2)[0]
    c = pair.content
    # deltas with bar_0 = 2 - 2c and bar_1 generic: delta = ((b0+b1)/2, (b0-b1)/2)
    b0, b1 = F.embed(2 - 2 * c), F.embed(17)
    half = F.embed(Fraction(1, 2))
    deltas = [(b0 + b1) * half, (b0 - b1) * half]
    assert not g_lambda_mu(F, bar_deltas(F, deltas), c)


def test_decide_delta_zero():
    for m in (2, 3):
        F = CyclotomicField(m)
        for variant in VARIANTS:
            v = decide(m, 2, F, [F.zero] * m, variant)
            assert not v.semisimple
            assert v.reasons[0]["kind"] == "delta-zero"


def test_decide_m1_brauer():
    v = decide(1, 3, Q, [Q.embed(1)])
    assert not v.semisimple and v.reasons[0]["kind"] == "brauer-z"
    assert decide(1, 3, Q, [Q.embed(2)]).semisimple


def test_decide_m1_delta_zero_follows_rui():
    # Rui (2005): B_n(0) is semisimple iff n is in {1, 3, 5}
    for n in range(1, 9):
        v = decide(1, n, Q, [Q.zero])
        assert v.semisimple == (n in (1, 3, 5)), n
        assert v.reasons == ([] if v.semisimple else [{"kind": "delta-zero"}])


def test_decide_m1_delta_zero_matches_oracle():
    # radicals 1, 0, 36 and 0 at n = 2, 3, 4, 5
    for n in (2, 3, 4, 5):
        rad = semisimple_verdict(1, n, Q, [Q.zero], cap=945)["radical"]
        assert decide(1, n, Q, [Q.zero]).semisimple == (rad == 0), (n, rad)


@pytest.mark.parametrize("n,locus", [(2, []), (3, [-2, 1]),
                                     (4, [-4, -2, 1, 2]),
                                     (5, [-6, -4, -2, -1, 1, 2, 3])])
def test_decide_m1_matches_oracle_at_integer_deltas(n, locus):
    # every integer delta != 0 in [-2n-1, 2n+1], on one table per n (945
    # basis diagrams at n = 5); the oracle's non-semisimple values are
    # Rui's Z(n) = [4-2n, n-2] less the odd i in (4-2n, 3-n], without 0
    table = StructureTable(1, n, cap=945)
    found = []
    for d in range(-2 * n - 1, 2 * n + 2):
        if d:
            (v,) = semisimple_verdicts(table, Q, [[d]])
            rad = v["radical"]
            assert decide(1, n, Q, [d]).semisimple == (rad == 0), (n, d, rad)
            found += [d] if rad else []
    assert found == locus


def _gmu_reasons_reference(m, n, field, deltas):
    """decide's gmu reasons, from the public g_mu of each mu."""
    return [{"kind": "gmu-zero", "mu": [list(p) for p in mu]}
            for mu in multipartitions(m, n - 2) if not g_mu(field, deltas, mu)]


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 4), n=st.integers(2, 6), i=st.integers(0, 2),
       content=st.one_of(st.none(), st.integers(-6, 6)),
       free=st.lists(st.fractions(min_value=-9, max_value=9,
                                  max_denominator=9), min_size=3, max_size=3))
def test_decide_gmu_reasons_match_g_mu(m, n, i, content, free):
    # generic points, and points on the hyperplane of one content c, where
    # the factor bar_i + m c (bar_0 - m + m c at i = 0) vanishes
    F = CyclotomicField(m)
    if content is None:
        deltas = [F.embed(free[min(j, m - j)] + 20) for j in range(m)]
    else:
        deltas = _hyperplane_point(F, m, i % (m // 2 + 1), m * content,
                                   random.Random(str(free)))
    v = decide(m, n, F, deltas, "gmu")
    assert v.reasons == _gmu_reasons_reference(m, n, F, deltas)
    assert v.semisimple == (not v.reasons)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 4), n=st.integers(2, 6), i=st.integers(0, 2),
       content=st.one_of(st.none(), st.integers(-6, 6)),
       free=st.lists(st.fractions(min_value=-9, max_value=9,
                                  max_denominator=9), min_size=3, max_size=3))
def test_g_mu_values_match_g_mu(m, n, i, content, free):
    # one factor per content, repeated once per pair of that content
    # (at (2,2) the one mu has two pairs of content 1), against the public
    # g_mu of each mu, at generic points and on content hyperplanes
    F = CyclotomicField(m)
    if content is None:
        deltas = [F.embed(free[min(j, m - j)]) for j in range(m)]
    else:
        deltas = _hyperplane_point(F, m, i % (m // 2 + 1), m * content,
                                   random.Random(str(free)))
    assert g_mu_values(m, n, F, deltas) == \
        [(mu, g_mu(F, deltas, mu)) for mu in multipartitions(m, n - 2)]


def test_decide_char_p():
    F = FiniteField(2, 1)
    v = decide(2, 2, F, [F.one, F.one])
    assert not v.semisimple
    assert any(r["kind"] == "char" for r in v.reasons)


def test_decide_fixture_c1():
    """(2,2), delta = (1,-1): the printed set is empty so that variant says
    semisimple, while the combinatorial and gmu variants flag the point."""
    F = CyclotomicField(2)
    deltas = [F.embed(1), F.embed(-1)]
    assert decide(2, 2, F, deltas, "printed-z").semisimple
    assert not decide(2, 2, F, deltas, "combinatorial-rho").semisimple
    assert not decide(2, 2, F, deltas, "gmu").semisimple


def test_decide_generic_semisimple():
    F = CyclotomicField(2)
    deltas = [F.embed(Fraction(355, 113)), F.embed(Fraction(22, 7))]
    for variant in VARIANTS:
        assert decide(2, 3, F, deltas, variant).semisimple


def test_decide_n1():
    F = FiniteField(3, 1)
    assert not decide(3, 1, F, [F.one, F.zero, F.zero]).semisimple
    assert decide(2, 1, CyclotomicField(2),
                  [CyclotomicField(2).zero] * 2).semisimple


def test_decide_rejects_bad_input():
    with pytest.raises(ValueError):
        decide(2, 2, Q, [Q.one], "printed-z")
    with pytest.raises(ValueError):
        decide(2, 2, CyclotomicField(2), [0, 0], "no-such-variant")


def _reference_hyperplane_point(field, m, i, k, rng):
    """oracle._hyperplane_point with its own inverse loop."""
    bars = [None] * m
    for j in range(m // 2 + 1):
        bars[j] = field.embed(rng.randint(2 * m + 1, 6 * m))
        bars[(m - j) % m] = bars[j]
    bars[i] = field.embed((m if i == 0 else 0) - k)
    bars[(m - i) % m] = bars[i]
    return _reference_inverse(field, bars)


@pytest.mark.parametrize("m", range(1, 8))
def test_hyperplane_point_matches_the_inverse_loop(m):
    F = CyclotomicField(m)
    for i in range(m // 2 + 1):
        for k in (-2 * m, 0, m, 3 * m):
            rng, ref_rng = random.Random(m * 100 + i), random.Random(m * 100 + i)
            deltas = _hyperplane_point(F, m, i, k, rng)
            assert deltas == _reference_hyperplane_point(F, m, i, k, ref_rng)
            assert rng.getstate() == ref_rng.getstate()
            bars = bar_deltas(F, deltas)
            assert F.embed(m if i == 0 else 0) - bars[i] == F.embed(k)


# no explain phase: it traces every line of a failing case, which turns a
# failure of this Fraction-heavy test into minutes of tracing
@settings(max_examples=60, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(data=st.data(), m=st.integers(1, 7))
def test_bar_transform_inverts_irrational_bars(data, m):
    # applied to a bar vector the transform gives m delta_{-j}: the inverse
    F = CyclotomicField(m)
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    bars = [F.element(data.draw(st.lists(coeff, min_size=F.degree,
                                         max_size=F.degree)))
            for _ in range(m)]
    twice = bar_deltas(F, bars)
    deltas = [twice[-j % m] / m for j in range(m)]
    assert deltas == _reference_inverse(F, bars)
    assert bar_deltas(F, deltas) == bars


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_decide_at_n0_matches_the_oracle(m):
    # B_{m,0} is the field (and B_{m,1} the group algebra of Z/m):
    # semisimple in characteristic 0 in every variant, at delta = 0 too
    F = CyclotomicField(m)
    generic = [F.embed(Fraction(355, 113 + min(j, m - j))) for j in range(m)]
    for n in (0, 1):
        for deltas in ([F.zero] * m, generic):
            oracle = semisimple_verdict(m, n, F, deltas)["verdict"]
            assert oracle == "semisimple"
            for variant in VARIANTS:
                v = decide(m, n, F, deltas, variant)
                assert v.decision == oracle and v.reasons == [], (n, variant)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), n=st.integers(0, 6),
       p=st.sampled_from([0, 2, 3, 5, 7, 11, 13]))
def test_gmu_and_combinatorial_rho_always_agree(data, m, n, p):
    # g_{lambda,mu} vanishes iff one of its factors m eps_{i,0} - bar_i - m c
    # does, and the combinatorial Z_{m,n} is m times the same contents
    if p == 0:
        F = CyclotomicField(m)
        i = data.draw(st.integers(0, m // 2))
        content = data.draw(st.one_of(st.none(), st.integers(-6, 6)))
        if content is None:
            deltas = [F.embed(data.draw(st.fractions(
                min_value=-9, max_value=9, max_denominator=9)))
                for _ in range(m)]
        else:
            deltas = _hyperplane_point(F, m, i, m * content,
                                       random.Random(data.draw(st.integers())))
    else:
        try:
            F = field_with_root(p, m)
        except NoRootError:  # p divides m: no bar transform
            return
        deltas = [F.element(data.draw(st.lists(st.integers(0, p - 1),
                                               min_size=F.degree,
                                               max_size=F.degree)))
                  for _ in range(m)]
    assert decide(m, n, F, deltas, "gmu").decision == \
        decide(m, n, F, deltas, "combinatorial-rho").decision


def test_gmu_and_combinatorial_rho_agree_on_the_report():
    with open(REPORT) as fh:
        points = json.load(fh)["points"]
    assert len(points) == 46
    for p in points:
        assert p["criteria"]["gmu"]["decision"] == \
            p["criteria"]["combinatorial-rho"]["decision"], p["deltas"]
