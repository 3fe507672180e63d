"""Trace-form oracle and the concordance harness."""

import random
from fractions import Fraction

import numpy as np
import pytest

from cycbrauer.diagrams import basis_size, multiply_diagrams
from cycbrauer.oracle import (StructureTable, _monomial_value,
                              _product_is_zero, _rank_exact_certified,
                              _to_rational_blocks,
                              concordance_sweep, deltas_admissible,
                              radical_dimension,
                              report_csv, semisimple_verdict, trace_matrix)
from cycbrauer.linalg import gauss_rank, primes_for_modular
from cycbrauer.scalars import CyclotomicField, FiniteField
from cycbrauer.wreath import compose, enumerate_group, identity


def test_structure_table_closure():
    t = StructureTable(3, 2)
    assert t.size == 27
    assert t.products.shape == (27 * 27, 1 + 3)
    for k, *exps in t.products.tolist():
        assert 0 <= k < t.size
        assert len(exps) == 3 and all(e >= 0 for e in exps)


def _product_row(table, index, i, j):
    """Table row of b_i * b_j computed by multiply_diagrams."""
    prod, loops = multiply_diagrams(table.basis[i], table.basis[j])
    return [index[prod]] + [loops.count(a) for a in range(table.m)]


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5)
                                 for n in range(1, 4)
                                 if basis_size(m, n) <= 405])
def test_structure_table_matches_multiply_diagrams(m, n):
    t = StructureTable(m, n)
    index = {d: k for k, d in enumerate(t.basis)}
    want = [_product_row(t, index, i, j)
            for i in range(t.size) for j in range(t.size)]
    assert t.products.dtype == np.int32
    assert np.array_equal(t.products, np.array(want))


@pytest.mark.parametrize("m,n", [(4, 3), (2, 4)])
def test_structure_table_sampled_at_reach_points(m, n):
    t = StructureTable(m, n, cap=basis_size(m, n))
    index = {d: k for k, d in enumerate(t.basis)}
    rng = random.Random(1000 * m + n)
    for _ in range(2000):
        i, j = rng.randrange(t.size), rng.randrange(t.size)
        assert t.products[i * t.size + j].tolist() == \
            _product_row(t, index, i, j), (i, j)


def _reference_trace_matrix(table, field, deltas):
    """The product-by-product trace form, straight from multiply_diagrams:
    the slow reference for trace_matrix."""
    N = table.size
    deltas = [d if not isinstance(d, (int, Fraction)) else field.embed(d)
              for d in deltas]
    index = {d: k for k, d in enumerate(table.basis)}
    rows = {(i, j): _product_row(table, index, i, j)
            for i in range(N) for j in range(N)}
    traces = []
    for k in range(N):
        acc = field.zero
        for r in range(N):
            kk, *exps = rows[(k, r)]
            if kk == r:
                acc = acc + _monomial_value(field, deltas, exps)
        traces.append(acc)
    return [[_monomial_value(field, deltas, rows[(i, j)][1:])
             * traces[rows[(i, j)][0]] for j in range(N)] for i in range(N)]


def _trace_points():
    F2, F3 = CyclotomicField(2), CyclotomicField(3)
    z = F3.zeta
    m2 = [[F2.zero, F2.zero], [1, -1], [Fraction(7, 3), Fraction(-5, 4)]]
    m3 = [[F3.zero] * 3,
          [F3.embed(Fraction(7, 3))] + [F3.embed(Fraction(-5, 4))] * 2,
          [F3.embed(1), F3.embed(2), F3.embed(3)],  # off the locus
          [F3.embed(2), z + F3.embed(1), z ** 2 + F3.embed(1)]]  # off, zeta
    return ([(2, 2, ds) for ds in m2] + [(3, 2, ds) for ds in m3]
            + [(2, 3, ds) for ds in m2])


@pytest.mark.parametrize("m,n,deltas", _trace_points())
def test_trace_matrix_matches_reference(m, n, deltas):
    F = CyclotomicField(m)
    t = StructureTable(m, n)
    assert trace_matrix(t, F, deltas) == _reference_trace_matrix(t, F, deltas)


@pytest.mark.parametrize("big", [1, 10 ** 30])
def test_product_is_zero_is_exact(big):
    # entries of 10^30 take the Python-integer path, 1 the int64 one
    a = np.array([[big, 2 * big], [3, 6]], dtype=object)
    assert _product_is_zero(a, np.array([[2], [-1]], dtype=object))
    assert not _product_is_zero(a, np.array([[2, 0], [-1, 1]], dtype=object))
    assert not _product_is_zero(a, np.array([[2 * big + 1], [-big]],
                                            dtype=object))


def test_product_is_zero_bounds_the_sum():
    # each product fits int64 but the sum 2^64 wraps to 0 there
    a = np.array([[2 ** 32, 2 ** 32]], dtype=object)
    assert not _product_is_zero(a, np.array([[2 ** 31], [2 ** 31]],
                                            dtype=object))


def test_rank_certificate_with_entries_beyond_int64():
    # rank 1; the scaled entries overflow int64, so the exact T v = 0 check
    # runs in Python integers (the kernel ratio b/a = 21/11 stays small
    # enough for rational reconstruction)
    a, b = Fraction(10 ** 30, 7), Fraction(3 * 10 ** 30, 11)
    big = [[a, 2 * a, b], [2 * a, 4 * a, 2 * b], [a, 2 * a, b]]
    assert _rank_exact_certified(big, primes_for_modular(1)[:2]) == \
        (1, "modular-certified-kernel")
    # full rank with the same magnitudes
    big[2][2] = b + 1
    assert _rank_exact_certified(big, primes_for_modular(1)[:2])[0] == 2


def _flattening_points():
    F3, F5 = CyclotomicField(3), CyclotomicField(5)
    z3, z5 = F3.zeta, F5.zeta
    return [
        # off the admissible locus, with zeta components
        (3, 2, [F3.embed(2), z3 + F3.one, z3 ** 2 + F3.one]),
        # admissible: delta_0 = zeta + zeta^4 is real but irrational
        (5, 2, [z5 + z5 ** 4] + [F5.zero] * 4),
    ]


@pytest.mark.parametrize("m,n,deltas", _flattening_points())
def test_radical_with_irrational_trace_form(m, n, deltas):
    F = CyclotomicField(m)
    t = StructureTable(m, n)
    T = trace_matrix(t, F, deltas)
    assert any(any(x.coeffs[1:]) for row in T for x in row)
    assert _to_rational_blocks(F, T)[1] == F.degree
    assert radical_dimension(t, F, deltas) == t.size - gauss_rank(T)


def test_group_algebra_semisimple_maschke():
    # regular-representation trace form of Q(zeta_m) W_{m,2} has full rank
    for m in (2, 3, 4):
        F = CyclotomicField(m)
        group = enumerate_group(m, 2)
        N = len(group)
        e = identity(m, 2)
        T = [[F.embed(N) if compose(g, h) == e else F.zero for h in group]
             for g in group]
        big, deg = _to_rational_blocks(F, T)
        rank, method = _rank_exact_certified(big, primes_for_modular(m)[:3])
        assert rank == N * deg, (m, rank, method)


def test_radical_at_delta_zero():
    frozen = {(2, 2): 4, (3, 2): 9, (2, 3): 54}
    for (m, n), want in frozen.items():
        F = CyclotomicField(m)
        v = semisimple_verdict(m, n, F, [F.zero] * m)
        assert v["verdict"] == "not-semisimple"
        assert v["radical"] == want
        assert v["cross_check_agrees"]


def test_fixture_points_2_2():
    F = CyclotomicField(2)
    frozen = {(1, -1): 3, (1, 1): 3, (0, 2): 0}
    for ds, rad in frozen.items():
        v = semisimple_verdict(2, 2, F, [F.embed(d) for d in ds])
        assert v["radical"] == rad
        assert v["cross_check_agrees"]


def test_generic_point_semisimple():
    F = CyclotomicField(3)
    ds = [F.embed(Fraction(7, 3)), F.embed(Fraction(-5, 4)),
          F.embed(Fraction(-5, 4))]
    v = semisimple_verdict(3, 2, F, ds)
    assert v["verdict"] == "semisimple" and v["admissible"]


def test_oracle_flags_off_locus_points():
    F = CyclotomicField(3)
    v = semisimple_verdict(3, 2, F, [F.embed(1), F.embed(2), F.embed(3)])
    assert v["admissible"] is False and "note" in v


def test_oracle_refuses_char_p():
    K = FiniteField(5, 1)
    v = semisimple_verdict(2, 2, K, [K.one, K.one])
    assert v["verdict"] == "unsupported"


def test_oracle_cap():
    F = CyclotomicField(2)
    v = semisimple_verdict(2, 4, F, [F.one, F.one], cap=100)
    assert v["verdict"] == "unsupported"


def galois_conjugate_deltas(field, deltas, a):
    """Apply the Galois map zeta -> zeta^a (gcd(a, m) = 1) entrywise."""
    z = field.zeta
    return [sum((c * z ** (k * a % field.m) for k, c in enumerate(d.coeffs)),
                field.zero) for d in deltas]


def test_radical_galois_invariant():
    F = CyclotomicField(3)
    z = F.zeta
    ds = [F.embed(2), z + F.embed(1), z ** 2 + F.embed(1)]
    t = StructureTable(3, 2)
    r1 = radical_dimension(t, F, ds)
    r2 = radical_dimension(t, F, galois_conjugate_deltas(F, ds, 2))
    assert r1 == r2


def test_deltas_admissible():
    F = CyclotomicField(3)
    assert deltas_admissible([F.embed(1), F.embed(2), F.embed(2)])
    assert not deltas_admissible([F.embed(1), F.embed(2), F.embed(3)])
    assert deltas_admissible([F.embed(4), F.embed(9)])  # m = 2, always


def test_concordance_sweep_small():
    rep = concordance_sweep([(2, 2)], seed=5, generic_points=2,
                            hyperplane_points=2)
    assert rep["schema_version"] == 1
    assert rep["summary"]["num_points"] == 5
    assert not rep["summary"]["generic_disagreements"]
    assert rep["summary"]["cross_check_failures"] == 0
    strata = {p["provenance"] for p in rep["points"]}
    assert strata == {"delta-zero", "generic-random", "on-hyperplane"}
    # deterministic under the seed
    rep2 = concordance_sweep([(2, 2)], seed=5, generic_points=2,
                             hyperplane_points=2)
    assert rep == rep2
    csv_text = report_csv(rep)
    assert csv_text.count("\n") == 6  # header + 5 points


def test_concordance_sweep_points_are_admissible():
    rep = concordance_sweep([(3, 2)], seed=1, generic_points=2,
                            hyperplane_points=3)
    for p in rep["points"]:
        assert p["oracle"]["admissible"], p["provenance"]
