"""Trace-form oracle and the concordance harness."""

import hashlib
import importlib
import itertools
import json
import os
import pkgutil
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cycbrauer
from cycbrauer import criterion, diagrams, gram, oracle
from cycbrauer.criterion import z_set
from cycbrauer.diagrams import (Diagram, NumericParams,
                                basis_involutions, basis_size,
                                enumerate_basis, generator, identity_diagram,
                                star_diagram)
from cycbrauer.gram import cell_form
from cycbrauer.oracle import (StructureTable, _cell_det_values,
                              _character_blocks, _code_pairs,
                              _hyperplane_point,
                              _product_is_zero, _rank_exact_certified,
                              _to_rational_blocks,
                              concordance_sweep, deltas_admissible,
                              report_csv, semisimple_verdict,
                              semisimple_verdicts, sweep_item,
                              sweep_points, trace_matrix)
from cycbrauer.linalg import gauss_det, gauss_rank, primes_for_modular
from cycbrauer.scalars import CyclotomicField, FiniteField
from cycbrauer.wreath import compose, enumerate_group, identity
from strands import reference_product


def radical_dimension(table, field, deltas):
    """The oracle's radical at one point, on the given table."""
    return semisimple_verdicts(table, field, [deltas])[0]["radical"]


def test_structure_table_closure():
    t = StructureTable(3, 2)
    assert t.size == 27
    assert t.products.shape == (27 * 27, 2)
    for k, u in t.products.tolist():
        assert 0 <= k < t.size
        exps = t.monomials[u].tolist()
        assert len(exps) == 3 and all(e >= 0 for e in exps)


def _product_row(table, index, i, j):
    """Product index and loop exponents of b_i * b_j computed by the strand
    walker."""
    prod, loops = reference_product(table.basis[i], table.basis[j])
    return [index[prod]] + [loops.count(a) for a in range(table.m)]


def _decoded(table):
    """The table's rows as (k, exponents of delta_0..delta_{m-1})."""
    k, u = table.products[:, :1], table.products[:, 1]
    return np.hstack([k, table.monomials[u]])


# sha256 of the decoded table as C-contiguous int64, which does not depend
# on how the monomials are numbered.  StructureTable composes by array
# gathers and _product_row by the strand walker; these fixed values also
# catch a sign rule changed in both.
PINNED_TABLES = {
    (1, 1): "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
    (1, 2): "fce827ad2aed119c1693b8b0947eba3cdf058fab2885416815e32ff55ac07af0",
    (1, 3): "650fa60330c6b073b50285cd86c4f397a7086059f10c680fb3d39c96b5bcf204",
    (2, 1): "7df6973789f664a29b5ebf9fa81f9b1a899689587d8ddf4478dd14bd4c8630f5",
    (2, 2): "8ed3fa4f1d8938fd6a69aa3b9d27b84c6de0825eb84d4ba27c03487d3f5e0938",
    (2, 3): "10a227257386687f31a3a768b19ec0801079bab51315f4dc9ebdfeba0f48c8bd",
    (3, 1): "41332c87921b7a146935910dc36db066ccafd10a0b59548df69edff2e120f088",
    (3, 2): "9f10022f1fe8482d987eca75f9c4fdbf06c75d3a0b877912c1a329cf98d7c972",
    (3, 3): "9198b0d0dcc48c03cfe60caa1381dde3a48aba954ee738abfcc57ee97b3cb9ab",
    (4, 1): "ef313bf970b9934b4b20c41cdb1ea771cf53126f30c24126e1546a67ae2f56bc",
    (4, 2): "e3180f9155b24302229f84f34723e18e5f22edf812b3619c8f03ec7881835130",
    (4, 3): "06b747b7ce8e014129db7a504225106b18338bd85c348112e24d8ab9e97d697b",
    (2, 4): "a8c9903037050dfb658d224d94db311b2e05d3f5d7e6328913523f5d31af2dc2",
}


def _table_hash(rows):
    return hashlib.sha256(
        np.ascontiguousarray(rows, dtype=np.int64).tobytes()).hexdigest()


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5)
                                 for n in range(1, 4)
                                 if basis_size(m, n) <= 405])
def test_structure_table_matches_multiply_diagrams(m, n):
    t = StructureTable(m, n)
    index = {d: k for k, d in enumerate(t.basis)}
    want = [_product_row(t, index, i, j)
            for i in range(t.size) for j in range(t.size)]
    assert t.products.dtype == np.int32
    assert t.products.shape == (t.size * t.size, 2)
    assert np.array_equal(_decoded(t), np.array(want))
    assert _table_hash(_decoded(t)) == PINNED_TABLES[m, n]


@pytest.mark.parametrize("m,n", [(4, 3), (2, 4)])
def test_structure_table_sampled_at_reach_points(m, n):
    t = StructureTable(m, n, cap=basis_size(m, n))
    index = {d: k for k, d in enumerate(t.basis)}
    # each loop monomial is listed once, whatever the order of its loops
    assert len(np.unique(t.monomials, axis=0)) == len(t.monomials)
    rows = _decoded(t)
    assert _table_hash(rows) == PINNED_TABLES[m, n]
    rng = random.Random(1000 * m + n)
    for _ in range(2000):
        i, j = rng.randrange(t.size), rng.randrange(t.size)
        assert rows[i * t.size + j].tolist() == \
            _product_row(t, index, i, j), (i, j)


def _reference_table(m, n):
    """StructureTable(m, n)'s products, monomials and trace plan, from the
    strand walker and plain Python.  Loop monomials are numbered in
    increasing order of their code, n // 2 base-(m + 1) digits: zeros, then
    the sorted loop labels plus one; trace classes and entries of T in
    sorted order."""
    basis = enumerate_basis(m, n)
    N = len(basis)
    position = {d: k for k, d in enumerate(basis)}
    rows = []
    for x in basis:
        for y in basis:
            prod, loops = reference_product(x, y)
            digits = [0] * (n // 2 - len(loops)) + [a + 1 for a in loops]
            code = sum(d * (m + 1) ** s for s, d in enumerate(digits))
            rows.append((position[prod], code, loops))
    number = {c: u for u, c in enumerate(sorted({c for _, c, _ in rows}))}
    products = [(k, number[c]) for k, c, _ in rows]
    monomials = {number[c]: [loops.count(a) for a in range(m)]
                 for _, c, loops in rows}
    # trace(L_{b_k}) sums mono over the r with b_k b_r = mono b_r
    counts = [[0] * len(number) for _ in range(N)]
    for i, (k, u) in enumerate(products):
        if k == i % N:
            counts[i // N][u] += 1
    classes = sorted(set(map(tuple, counts)))
    trace_class = [classes.index(tuple(row)) for row in counts]
    value_pairs = sorted({(u, trace_class[k]) for k, u in products})
    entry = {pair: v for v, pair in enumerate(value_pairs)}
    index = [entry[u, trace_class[k]] for k, u in products]
    return {"products": products,
            "monomials": [monomials[u] for u in range(len(number))],
            "trace_rows": [[(u, c) for u, c in enumerate(row) if c]
                           for row in classes],
            "value_pairs": value_pairs,
            "index": [index[i * N:(i + 1) * N] for i in range(N)]}


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3)])
def test_structure_table_equals_the_reference(m, n):
    t = StructureTable(m, n)
    want = _reference_table(m, n)
    assert t.products.tolist() == [list(row) for row in want["products"]]
    assert t.monomials.tolist() == want["monomials"]
    assert t.trace_rows == want["trace_rows"]
    assert [tuple(pair) for pair in t.value_pairs] == want["value_pairs"]
    assert t.index.tolist() == want["index"]


def _monomial_value(field, deltas, exps):
    """prod_a delta_a^{exps[a]} by repeated multiplication: the reference
    for the monomial values in trace_matrix."""
    out = field.one
    for d, e in zip(deltas, exps):
        for _ in range(e):
            out = out * d
    return out


def _expand(values, index):
    """The full matrix values[index] as a list of lists."""
    return [[values[v] for v in row] for row in index.tolist()]


def _reference_trace_matrix(table, field, deltas):
    """The product-by-product trace form, straight from the strand walker:
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
    values, index = trace_matrix(t, F, deltas)
    assert index.shape == (t.size, t.size)
    assert _expand(values, index) == _reference_trace_matrix(t, F, deltas)


def _m3_points():
    """delta = 0, a generic point, a point on a hyperplane of the printed
    locus and a fixture off the admissible locus, at m = 3."""
    F = CyclotomicField(3)
    return [[F.zero] * 3,
            [F.embed(Fraction(7, 3))] + [F.embed(Fraction(-5, 4))] * 2,
            _hyperplane_point(F, 3, 1, min(z_set(3, 2)), random.Random(0)),
            [F.embed(1), F.embed(2), F.embed(3)]]


@settings(max_examples=12, deadline=None)
@given(order=st.permutations(range(4)))
def test_one_table_serves_points_in_any_order(order):
    # the trace plan is built once per table; what a point evaluates must
    # not depend on the points the table served before it
    F = CyclotomicField(3)
    points = _m3_points()
    shared = StructureTable(3, 2)
    for k in order:
        values, index = trace_matrix(shared, F, points[k])
        assert _expand(values, index) == \
            _reference_trace_matrix(StructureTable(3, 2), F, points[k]), k
        with pytest.raises(ValueError):
            index[0, 0] = 0  # the plan's index is shared, so read-only


def _unique_trace_matrix(table, field, deltas):
    """trace_matrix with its (monomial, trace) codes numbered by np.unique,
    as before the dense-code lookup: the reference for that lookup."""
    N = table.size
    deltas = [field.coerce(d) for d in deltas]
    monos = [_monomial_value(field, deltas, exps)
             for exps in table.monomials.tolist()]
    k, mono = table.products[:, 0], table.products[:, 1]
    i, j = np.nonzero(k.reshape(N, N) == np.arange(N))
    counts = np.bincount(i * len(monos) + mono.reshape(N, N)[i, j],
                         minlength=N * len(monos)).reshape(N, len(monos))
    count_rows, trace_class = np.unique(counts, axis=0, return_inverse=True)
    traces = [sum((monos[u] * c for u, c in enumerate(row) if c), field.zero)
              for row in count_rows.tolist()]
    pairs, index = np.unique(mono * len(traces) + trace_class[k],
                             return_inverse=True)
    values = [monos[pair // len(traces)] * traces[pair % len(traces)]
              for pair in pairs.tolist()]
    return values, index.reshape(N, N)


@pytest.mark.parametrize("m,n,deltas", _trace_points())
def test_trace_matrix_numbers_values_as_np_unique(m, n, deltas):
    F = CyclotomicField(m)
    t = StructureTable(m, n)
    values, index = trace_matrix(t, F, deltas)
    want_values, want_index = _unique_trace_matrix(t, F, deltas)
    assert values == want_values and (index == want_index).all()


@pytest.mark.parametrize("big", [1, 10 ** 30])
def test_product_is_zero_is_exact(big):
    # entries of 10^30 take the Python-integer path, 1 the float64 one
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


def test_product_is_zero_leaves_float64_beyond_2_53():
    # the sum is 1, but 2^53 + 1 rounds to 2^53 in float64, which would
    # make it 0; the bound 2^54 + 1 sends the product to int64
    a = np.array([[1, 1]], dtype=object)
    assert not _product_is_zero(a, np.array([[2 ** 53 + 1], [-2 ** 53]],
                                            dtype=object))


# int64 operands around the float64 (2^53) and int64 (2^63) limits, each
# with its exact product's zero test
_INT64_EDGES = [
    ([[1, 1]], [[2 ** 53 + 1], [-2 ** 53]], False),  # 1 rounds to 0 in float64
    ([[1, 1]], [[2 ** 53], [-2 ** 53]], True),
    ([[2 ** 32, 2 ** 32]], [[2 ** 31], [2 ** 31]], False),  # 2^64 wraps to 0
    ([[2 ** 62, -2 ** 62]], [[1], [1]], True),
    ([[2 ** 62, 2 ** 62]], [[1], [1]], False),  # 2^63 wraps negative
    ([[1, 1, 1, 1]], [[2 ** 62], [2 ** 62], [-2 ** 62], [-2 ** 62]], True),
    ([[-2 ** 63]], [[1]], False),  # abs overflows in int64
    ([[3, -1]], [[2 ** 61 - 1], [3 * (2 ** 61 - 1)]], True),
]


@pytest.mark.parametrize("a,b,zero", _INT64_EDGES)
def test_product_is_zero_on_int64_matches_python_integers(a, b, zero):
    exact = not any(sum(x * y for x, y in zip(row, col))
                    for row in a for col in zip(*b))
    assert exact == zero
    as_object = _product_is_zero(np.array(a, dtype=object),
                                 np.array(b, dtype=object))
    assert as_object == zero
    assert _product_is_zero(np.array(a, dtype=np.int64),
                            np.array(b, dtype=np.int64)) == zero
    # in a stack, beside a zero product of small entries, which must not
    # lower the bound taken over the whole stack
    small = np.zeros_like(np.array(a)), np.ones_like(np.array(b))
    for dtype in (object, np.int64):
        got = _product_is_zero(np.array([small[0], a], dtype=dtype),
                               np.array([small[1], b], dtype=dtype))
        assert got.tolist() == [True, zero]


def test_product_is_zero_on_stacks_matches_each_matrix():
    rng = np.random.default_rng(7)
    for big in (1, 2 ** 40, 10 ** 30):
        a = rng.integers(-9, 9, (5, 4, 6)).astype(object) * big
        b = rng.integers(-9, 9, (5, 6, 3)).astype(object)
        b[::2] = 0  # some products are zero, the others not
        want = [not (x @ y).any() for x, y in zip(a, b)]
        assert _product_is_zero(a, b).tolist() == want
        if big <= 2 ** 40:
            assert _product_is_zero(a.astype(np.int64),
                                    b.astype(np.int64)).tolist() == want


def test_rank_certificate_at_3_3_delta_zero_stays_typed(monkeypatch):
    # the (3,3) trace form at delta = 0 has rank 243 of 405; its certificate
    # is checked on int64 or float64 arrays, never on an N x N object array
    F = CyclotomicField(3)
    values, index = trace_matrix(StructureTable(3, 3), F, [F.zero] * 3)
    values, blocks, deg = _to_rational_blocks(F, values, [index[None]])
    seen = []
    check = cycbrauer.oracle._product_is_zero

    def typed(a, b):
        seen.append((a.dtype, b.dtype, a.shape, b.shape))
        return check(a, b)

    monkeypatch.setattr(cycbrauer.oracle, "_product_is_zero", typed)
    assert _rank_exact_certified([values], blocks, primes_for_modular(3)) \
        == ([243], "modular-certified-kernel")
    assert seen == [(np.dtype(np.int64), np.dtype(np.int64), (1, 405, 405),
                     (1, 405, 162))]


def test_rank_certificate_with_entries_beyond_int64():
    # rank 1; the scaled entries overflow int64, so the exact T v = 0 check
    # runs in Python integers (the kernel ratio b/a = 21/11 stays small
    # enough for rational reconstruction)
    a, b = Fraction(10 ** 30, 7), Fraction(3 * 10 ** 30, 11)
    values = [a, 2 * a, b, 4 * a, 2 * b]
    index = np.array([[0, 1, 2], [1, 3, 4], [0, 1, 2]])
    assert _rank_exact_certified([values], [index[None]],
                                 primes_for_modular(1)[:2]) \
        == ([1], "modular-certified-kernel")
    # full rank with the same magnitudes
    index[2, 2] = len(values)
    values.append(b + 1)
    assert _rank_exact_certified([values], [index[None]],
                                 primes_for_modular(1)[:2])[0] == [2]


def test_rank_certificate_scales_each_vector_by_all_its_denominators():
    # rows 1 and 2 are independent and row 3 is their sum; the kernel
    # vector (-2, -1/3, 1) has its only denominator off the pivot column
    values = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 3),
              Fraction(7, 3)]
    index = np.array([[1, 0, 2], [0, 1, 3], [1, 1, 4]])
    assert _rank_exact_certified([values], [index[None]],
                                 primes_for_modular(1)[:2]) \
        == ([2], "modular-certified-kernel")


def test_rank_certificate_scales_every_kernel_vector_by_one_denominator(
        monkeypatch):
    # rows (2, 0, -1, 0) and (0, 3, 0, -1), each twice: the kernel vectors
    # (1/2, 0, 1, 0) and (0, 1/3, 0, 1) are both scaled by 6, as int64
    values = [Fraction(0), Fraction(2), Fraction(3), Fraction(-1)]
    rows = [[1, 0, 3, 0], [0, 2, 0, 3]]
    index = np.array(rows + rows)
    seen = []
    check = cycbrauer.oracle._product_is_zero
    monkeypatch.setattr(cycbrauer.oracle, "_product_is_zero",
                        lambda a, b: seen.append(b.swapaxes(1, 2))
                        or check(a, b))
    assert _rank_exact_certified([values], [index[None]],
                                 primes_for_modular(1)[:2]) \
        == ([2], "modular-certified-kernel")
    ((vectors,),) = seen
    assert vectors.dtype == np.int64
    assert vectors.tolist() == [[3, 0, 6, 0], [0, 2, 0, 6]]


def test_rank_deficit_mod_p_alone_is_not_trusted():
    # det = p vanishes mod the first prime only: the lifted kernel vector
    # fails the exact check there, and the second prime finds full rank
    p = primes_for_modular(1)[0]
    values = [Fraction(0), Fraction(1), Fraction(p)]
    index = np.array([[1, 0], [0, 2]])
    assert _rank_exact_certified([values], [index[None]],
                                 primes_for_modular(1)[:2]) \
        == ([2], "modular-full-rank")


def test_rank_skips_a_prime_dividing_a_denominator(monkeypatch):
    # delta = 1/p puts p in the denominators of T at m = 1, n = 2, so the
    # first prime is skipped and the verdict comes from the second
    p, q = primes_for_modular(1)[:2]
    Q = CyclotomicField(1)
    values, index = trace_matrix(StructureTable(1, 2), Q, [Fraction(1, p)])
    values = [x.coeffs[0] for x in values]
    assert any(x.denominator % p == 0 for x in values)
    used = []
    rref = cycbrauer.oracle.rref_mod_p
    monkeypatch.setattr(cycbrauer.oracle, "rref_mod_p",
                        lambda a, prime: used.append(prime) or rref(a, prime))
    ordinary, _ = trace_matrix(StructureTable(1, 2), Q, [Fraction(3)])
    ordinary = [x.coeffs[0] for x in ordinary]
    ranks, method = _rank_exact_certified([values, ordinary], [index[None]],
                                          [p, q])
    # one list of primes per call: the ordinary T is ranked at q as well
    assert used == [q] and method.startswith("modular")
    assert ranks == [gauss_rank(_expand(values, index)),
                     gauss_rank(_expand(ordinary, index))]


_SMALL = st.fractions(-3, 3, max_denominator=3)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_of_several_value_lists_matches_gauss_rank(data):
    # 1-4 value lists share 1-3 index stacks (|G| of 1 or 2, often several
    # of one shape); a value may carry the first prime in its denominator,
    # which moves the whole call to the second prime
    p = primes_for_modular(1)[0]
    V = data.draw(st.integers(1, 5))
    value = st.one_of(_SMALL, _SMALL.map(lambda x: x / p))
    lists = data.draw(st.lists(st.lists(value, min_size=V, max_size=V),
                               min_size=1, max_size=4))
    blocks = []
    for b in data.draw(st.lists(st.sampled_from([1, 3, 12]), min_size=1,
                                max_size=3)):
        size = data.draw(st.integers(1, 2)) * b * b
        blocks.append(np.array(data.draw(st.lists(
            st.integers(0, V - 1), min_size=size, max_size=size)))
            .reshape(-1, b, b))
    ranks, _ = _rank_exact_certified(lists, blocks, primes_for_modular(1))
    assert ranks == [
        sum(gauss_rank([[sum(values[v] for v in entry) for entry in row]
                        for row in np.moveaxis(stack, 0, -1).tolist()])
            for stack in blocks)
        for values in lists]


def test_radical_replaces_every_prime_dividing_a_denominator(monkeypatch):
    # delta_0 = 1/q, q the product of the four primes tried first at m = 2:
    # each one divides a denominator of T, so the next four primes
    # p = 1 (mod 2) below them rank it, without the exact fallback
    first = primes_for_modular(2)
    used, methods = set(), []
    rref, certified = oracle.rref_mod_p, oracle._rank_exact_certified

    def recorded(*args):
        rank, method = certified(*args)
        methods.append(method)
        return rank, method

    monkeypatch.setattr(oracle, "rref_mod_p",
                        lambda a, p: used.add(p) or rref(a, p))
    monkeypatch.setattr(oracle, "_rank_exact_certified", recorded)
    F = CyclotomicField(2)
    deltas = [F.embed(Fraction(1, prod(first))), F.embed(3)]
    assert radical_dimension(StructureTable(2, 3), F, deltas) == 0
    assert methods == ["modular-full-rank"]
    assert used and all(p < first[-1] and p % 2 == 1 for p in used)


def test_rank_falls_back_to_exact_elimination():
    # with no prime to try, a small matrix is ranked by fraction elimination
    values = [Fraction(1, 3), Fraction(2, 3), Fraction(-5, 7)]
    index = np.array([[0, 1, 2], [1, 1, 2], [0, 1, 2]])
    assert _rank_exact_certified([values], [index[None]], []) \
        == ([2], "exact-gauss")


def test_rank_of_the_zero_matrix_is_certified():
    # every column is free: the kernel is the identity, and T = 0 is
    # checked exactly (a block wholly in the radical ends here)
    assert _rank_exact_certified([[Fraction(0)]],
                                 [np.zeros((1, 3, 3), dtype=np.int64)],
                                 primes_for_modular(2)) \
        == ([0], "modular-certified-kernel")


# ---------------------------------------------------------------------------
# the symmetry blocks of the trace form
# ---------------------------------------------------------------------------

REPORTS = Path(__file__).resolve().parent.parent / "reports"
GENERIC = {2: [Fraction(-617, 113), Fraction(389, 271)],
           3: [Fraction(-617, 113), Fraction(389, 271), Fraction(389, 271)],
           4: [Fraction(-617, 113), Fraction(389, 271), Fraction(-733, 149),
               Fraction(389, 271)]}


def _unsplit_radical(table, field, deltas):
    """N minus the rank of the whole trace form, flattened and certified
    in one piece (the trivial group's one block): the reference for
    radical_dimension's block ranks."""
    values, index = trace_matrix(table, field, deltas)
    flat, big, deg = _to_rational_blocks(field, values, [index[None]])
    (rank,), _ = _rank_exact_certified([flat], big,
                                       primes_for_modular(field.m))
    return table.size - rank // deg


def _reference_involutions(table):
    """_involutions from the diagrams themselves: star_diagram, labels
    negated one by one, and g b g^-1 by the strand walker, with the same
    rule for leaving a candidate out."""
    m, n, basis = table.m, table.n, table.basis
    where = {d: k for k, d in enumerate(basis)}
    negated = [Diagram(m, n, d.arcs, tuple(-a % m for a in d.labels))
               for d in basis]
    candidates = [[where[star_diagram(d)] for d in basis],
                  [where[d] for d in negated]]
    if m % 2:
        elements = [generator(m, n, "s", i) for i in range(1, n, 2)]
    else:
        one = identity_diagram(m, n)
        elements = [Diagram(m, n, one.arcs,
                            tuple(m // 2 * (k == i - 1) for k in range(n)))
                    for i in range(1, n + 1)]
    for g in elements:
        row = []
        for d in basis:
            gd, loops = reference_product(g, d)
            gdg, more = reference_product(gd, g)
            assert loops == more == ()
            row.append(where[gdg])
        candidates.append(row)
    group, gens = {tuple(range(len(basis)))}, []
    for g in map(tuple, candidates):
        if g not in group:
            gens.append(g)
            group |= {tuple(g[x] for x in e) for e in group}
    return gens


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5)
                                 for n in range(1, 4)
                                 if basis_size(m, n) <= 405])
def test_planned_symmetries_match_the_diagrams(m, n):
    t = StructureTable(m, n)
    assert [tuple(g.tolist()) for g, _ in t.symmetries] \
        == _reference_involutions(t)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5)
                                 for n in range(1, 4)
                                 if basis_size(m, n) <= 405])
def test_code_pairs_decide_invariance_like_the_whole_matrix(m, n):
    # the code-pair check of a permutation g agrees with comparing T and
    # g T g^T entry by entry: every planned symmetry passes at a generic
    # admissible point, and some swap of two basis diagrams fails
    F = CyclotomicField(m)
    t = StructureTable(m, n)
    free = GENERIC.get(m, [Fraction(5, 7)])
    values, index = trace_matrix(
        t, F, [F.embed(free[min(j, m - j)]) for j in range(m)])
    T = np.array(_expand(values, index), dtype=object)
    swaps = []
    for i in range(1, min(t.size, 6)):
        swaps.append(np.arange(t.size))
        swaps[-1][[0, i]] = [i, 0]
    fixes = []
    for g in [g for g, _ in t.symmetries] + swaps:
        fixes.append((T[np.ix_(g, g)] == T).all())
        assert all(values[v] == values[w]
                   for v, w in _code_pairs(t.index, g, len(values))) \
            == fixes[-1]
    assert all(fixes[:len(t.symmetries)])
    assert t.size <= 2 or not all(fixes)


@pytest.mark.parametrize("m,n,blocks", [(2, 3, 8), (3, 3, 8), (4, 3, 16),
                                        (2, 4, 16)])
def test_block_sizes_partition_the_basis(m, n, blocks):
    # for every subset of the generators: all of them at an admissible
    # point, fewer where some fail their check
    t = StructureTable(m, n, cap=basis_size(m, n))
    gens = [g for g, _ in t.symmetries]
    assert len(_character_blocks(t.index, gens, len(t.value_pairs))) \
        == 2 ** len(gens) == blocks
    for k in range(len(gens) + 1):
        for subset in itertools.combinations(gens, k):
            stacks = _character_blocks(t.index, list(subset),
                                       len(t.value_pairs))
            assert sum(s.shape[-1] for s in stacks) == t.size
            assert all(s.shape == (2 ** k,) + s.shape[-1:] * 2
                       for s in stacks)


def test_block_radical_matches_the_unsplit_one_on_the_concordance_grid():
    config = json.loads((REPORTS / "concordance.config.json").read_text())
    tracked = json.loads((REPORTS / "concordance.json").read_text())
    items = sweep_points(config["grid"], config["seed"],
                         config["generic_points"], config["hyperplane_points"])
    radicals = []
    for m, n, todo in items:
        F, t = CyclotomicField(m), StructureTable(m, n)
        for _, deltas in todo:
            radicals.append(radical_dimension(t, F, deltas))
            assert radicals[-1] == _unsplit_radical(t, F, deltas)
    assert radicals == [p["oracle"]["radical"] for p in tracked["points"]]


@pytest.mark.parametrize("m,n,radicals", [(4, 3, (486, 0)), (2, 4, (630, 0))])
def test_block_radical_matches_the_unsplit_one_at_reach_points(m, n,
                                                               radicals):
    F = CyclotomicField(m)
    t = _table(m, n)
    for deltas, want in zip(([F.zero] * m, [F.embed(d) for d in GENERIC[m]]),
                            radicals):
        assert radical_dimension(t, F, deltas) == want
        assert _unsplit_radical(t, F, deltas) == want


_TABLES = {}


def _table(m, n):
    """One structure table per (m, n), shared by the tests below."""
    if (m, n) not in _TABLES:
        _TABLES[m, n] = StructureTable(m, n, cap=basis_size(m, n))
    return _TABLES[m, n]


_COORDINATE = st.one_of(st.integers(-6, 6).map(Fraction),
                        st.fractions(-9, 9, max_denominator=12))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 4), n=st.integers(1, 3), data=st.data())
def test_block_radical_matches_the_unsplit_one_on_the_admissible_locus(
        m, n, data):
    # small integers put many points on the variants' hyperplanes, where
    # some blocks lose rank
    F = CyclotomicField(m)
    t = _table(m, n)
    free = [data.draw(_COORDINATE) for _ in range(m // 2 + 1)]
    deltas = [F.embed(free[min(j, m - j)]) for j in range(m)]
    values, _ = trace_matrix(t, F, deltas)
    assert all(values[v] == values[w]
               for _, pairs in t.symmetries for v, w in pairs)
    assert radical_dimension(t, F, deltas) == _unsplit_radical(t, F, deltas)


# B_{2,n}(d0, d1) = B_{2,n}(d0, -d1) by t_i -> -t_i, and the radical
# commutes with zeta -> zeta^k: both are theorems the oracle was not
# fitted to


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), d0=_COORDINATE, d1=_COORDINATE)
def test_radical_is_invariant_under_the_m2_sign_isomorphism(n, d0, d1):
    F = CyclotomicField(2)
    t = _table(2, n)
    assert radical_dimension(t, F, [F.embed(d0), F.embed(d1)]) \
        == radical_dimension(t, F, [F.embed(d0), F.embed(-d1)])


def test_radical_is_invariant_under_the_m2_sign_isomorphism_at_2_4():
    # the criterion variants misjudge the first three points on one side
    # or both; the oracle has radical 23 on both sides of the last
    F = CyclotomicField(2)
    t = _table(2, 4)
    for (d0, d1), want in [(("7/2", "11/2"), 0), (("5/2", "17/2"), 0),
                           ((-1, 9), 0), (("-59/58", "405/58"), 23)]:
        for sign in (1, -1):
            deltas = [F.embed(Fraction(d0)), F.embed(sign * Fraction(d1))]
            assert radical_dimension(t, F, deltas) == want, (d0, d1, sign)


@pytest.mark.parametrize("m,n,point,want", [
    (3, 3, lambda z: [3 - 2 * z, z, z], 32),
    (3, 2, lambda z: [z, z, z], 8),
    # bar_0 = delta_0 + 2 delta_1 + 2 delta_2 = 0
    (5, 2, lambda z: [-2 * z - 2, z, 1, 1, z], 9),
], ids=["3-3", "3-2", "5-2"])
def test_radical_is_invariant_under_galois_conjugation(m, n, point, want):
    # admissible points whose trace form is irrational: each is ranked on
    # flattened symmetry blocks, through a kernel certificate
    F = CyclotomicField(m)
    t = _table(m, n)
    for k in range(1, m):
        if gcd(k, m) == 1:
            deltas = point(F.zeta ** k)
            assert deltas_admissible(deltas)
            values, _ = trace_matrix(t, F, deltas)
            assert any(any(x.coeffs[1:]) for x in values)
            assert radical_dimension(t, F, deltas) == want, k


def test_a_symmetry_that_fails_at_a_point_is_dropped():
    # off the admissible locus label negation no longer fixes T (nor, at
    # this point, does any other generator): it fails its check, T stays
    # one block, and the radical is the unsplit one
    F = CyclotomicField(3)
    t = StructureTable(3, 3)
    _, negation = basis_involutions(t.basis)
    pairs, = [p for g, p in t.symmetries if np.array_equal(g, negation)]
    deltas = [F.embed(2), F.embed(1), F.embed(3)]
    values, index = trace_matrix(t, F, deltas)
    assert not all(values[v] == values[w] for v, w in pairs)
    (stack,) = t.blocks(values)
    assert np.array_equal(stack, index[None])
    assert radical_dimension(t, F, deltas) == _unsplit_radical(t, F, deltas)


def _flattening_points():
    F3, F5 = CyclotomicField(3), CyclotomicField(5)
    z3, z5 = F3.zeta, F5.zeta
    return [
        # off the admissible locus, with zeta components
        (3, 2, [F3.embed(2), z3 + F3.one, z3 ** 2 + F3.one]),
        # admissible: delta_0 = zeta + zeta^4 is real but irrational
        (5, 2, [z5 + z5 ** 4] + [F5.zero] * 4),
    ]


def _reference_blocks(field, T):
    """The entry-by-entry flattening of a matrix over Q(zeta_m) to
    Fractions: the reference for the indexed one in _to_rational_blocks."""
    deg = field.degree
    N = len(T)
    big = [[Fraction(0)] * (N * deg) for _ in range(N * deg)]
    basis = [field.element([0] * k + [1]) for k in range(deg)]
    for i in range(N):
        for j in range(N):
            x = T[i][j]
            if not x:
                continue
            for c in range(deg):
                col = x * basis[c]
                for r in range(deg):
                    big[i * deg + r][j * deg + c] = col.coeffs[r]
    return big


@pytest.mark.parametrize("m,n,deltas", _flattening_points())
def test_radical_with_irrational_trace_form(m, n, deltas):
    F = CyclotomicField(m)
    t = StructureTable(m, n)
    values, index = trace_matrix(t, F, deltas)
    T = _expand(values, index)
    assert any(any(x.coeffs[1:]) for x in values)
    flat, (big,), deg = _to_rational_blocks(F, values, [index[None]])
    assert deg == F.degree and big.shape == (1, t.size * deg, t.size * deg)
    assert _expand(flat, big[0]) == _reference_blocks(F, T)
    assert radical_dimension(t, F, deltas) == t.size - gauss_rank(T)


def test_rational_trace_form_keeps_its_index():
    F = CyclotomicField(3)
    t = StructureTable(3, 2)
    values, index = trace_matrix(t, F, [F.embed(Fraction(7, 3))]
                                 + [F.embed(Fraction(-5, 4))] * 2)
    blocks = [index[None]]
    flat, same, deg = _to_rational_blocks(F, values, blocks)
    assert deg == 1 and same is blocks
    assert flat == [x.coeffs[0] for x in values]


def test_group_algebra_semisimple_maschke():
    # regular-representation trace form of Q(zeta_m) W_{m,2} has full rank
    for m in (2, 3, 4):
        F = CyclotomicField(m)
        group = enumerate_group(m, 2)
        N = len(group)
        e = identity(m, 2)
        index = np.array([[int(compose(g, h) == e) for h in group]
                          for g in group])
        values, blocks, deg = _to_rational_blocks(F, [F.zero, F.embed(N)],
                                                  [index[None]])
        (rank,), method = _rank_exact_certified([values], blocks,
                                                primes_for_modular(m)[:3])
        assert rank == N * deg, (m, rank, method)


def test_radical_at_delta_zero():
    frozen = {(2, 2): 4, (3, 2): 9, (2, 3): 54}
    for (m, n), want in frozen.items():
        F = CyclotomicField(m)
        v = semisimple_verdict(m, n, F, [F.zero] * m)
        assert v["verdict"] == "not-semisimple"
        assert v["radical"] == want
        assert v["cross_check_agrees"]


@pytest.mark.parametrize("deltas,radical", [
    ([0, 0, 0, 0], 486),
    ([Fraction(-617, 113), Fraction(389, 271), Fraction(-733, 149),
      Fraction(389, 271)], 0)])
def test_radical_at_4_3(deltas, radical):
    # N = 960 in 16 symmetry blocks; the largest, of 180 rows, spans six
    # elimination panels
    F = CyclotomicField(4)
    v = semisimple_verdict(4, 3, F, [F.embed(d) for d in deltas], cap=960)
    assert v["radical"] == radical and v["cross_check_agrees"]


def test_fixture_deltas_are_field_scalars():
    # a float fixture delta once became 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        concordance_sweep([{"m": 2, "n": 2, "deltas": [[0.1, 1]]}])


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


def test_cold_verdict_leaves_numpy_ma_unimported():
    # some numpy set routines (np.unique without return flags, np.isin,
    # np.setdiff1d) import numpy.ma lazily, which costs several MiB of
    # memory per process; a verdict must not pull it in
    code = "\n".join([
        "import sys",
        "from cycbrauer.oracle import semisimple_verdict",
        "from cycbrauer.scalars import CyclotomicField",
        "F = CyclotomicField(3)",
        "v = semisimple_verdict(3, 2, F, [F.zero] * 3)",
        "assert v['radical'] == 9 and v['cross_check_agrees']",
        "print('numpy.ma' in sys.modules)"])
    src = os.path.dirname(os.path.dirname(cycbrauer.__file__))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


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


def test_sweep_computes_one_bar_transform_per_point(monkeypatch):
    # the three variants and g_mu_values at a point share one transform
    # (criterion._bars), the cell-determinant cross-check takes one more
    # per point, and generating an on-hyperplane point inverts one more.
    # Every binding of bar_deltas in the package is counted, by caller
    calls, transform = Counter(), criterion.bar_deltas

    def counted(*args):
        calls[sys._getframe(1).f_code.co_name] += 1
        return transform(*args)
    for info in pkgutil.iter_modules(cycbrauer.__path__):
        mod = importlib.import_module("cycbrauer." + info.name)
        if getattr(mod, "bar_deltas", None) is transform:
            monkeypatch.setattr(mod, "bar_deltas", counted)
    criterion._bars.cache_clear()
    report = concordance_sweep([(2, 2), (3, 2), (2, 3)], seed=4,
                               generic_points=3, hyperplane_points=2)
    provenance = Counter(p["provenance"] for p in report["points"])
    points = sum(provenance.values())
    assert calls == {"_bars": points, "_cell_det_values": points,
                     "_hyperplane_point": provenance["on-hyperplane"]}


def test_concordance_sweep_points_are_admissible():
    rep = concordance_sweep([(3, 2)], seed=1, generic_points=2,
                            hyperplane_points=3)
    for p in rep["points"]:
        assert p["oracle"]["admissible"], p["provenance"]


def _cell_points(m):
    """An admissible point, one on an n = 2 cell hyperplane (bar_0 = 0, so
    det G = 0) and one off the admissible locus with a zeta entry."""
    F = CyclotomicField(m)
    free = [F.embed(Fraction(3 * a - 4, a + 2)) for a in range(m // 2 + 1)]
    return [[free[min(a, m - a)] for a in range(m)],
            _hyperplane_point(F, m, 0, m, random.Random(m)),
            [F.embed(a + 2) for a in range(m - 1)] + [F.zeta + F.one]]


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in (2, 3)])
def test_cell_det_values_match_cell_gram(m, n):
    # the cross-check's determinants against gauss_det of cell_gram's
    # entries, an expansion that shares nothing with the bar coordinates
    F = CyclotomicField(m)
    mus = [tuple((1,) if c == j and n == 3 else () for c in range(m))
           for j in range(m if n == 3 else 1)]
    for deltas in _cell_points(m):
        got = _cell_det_values(m, n, F, deltas)
        want = [gauss_det(cell_form(m, n, mu, NumericParams(F, deltas),
                                    compute_det=False).entries, F.one)
                for mu in mus]
        assert [v for _, v in got] == want, (m, n, deltas)
        assert [tag for tag, _ in got] == (
            ["empty"] if n == 2 else
            ["box-comp-%d" % j for j in range(1, m + 1)])


def test_cell_factors_are_built_once_per_pair_and_field(monkeypatch):
    # the tracked sweep builds the factors of each (m, n, field) once, and
    # further verdicts there build nothing new
    builds, build = Counter(), gram._cell_factors

    def counted(pairing, m, n, field):
        builds[(m, n, field)] += 1
        return build(pairing, m, n, field)
    monkeypatch.setattr(gram, "_cell_factors", counted)
    gram.cell_factors.cache_clear()
    config = json.loads((REPORTS / "concordance.config.json").read_text())
    items = sweep_points(config["grid"], config["seed"],
                         config["generic_points"], config["hyperplane_points"])
    concordance_sweep(config["grid"], config["seed"], config["cap"],
                      config["generic_points"], config["hyperplane_points"])
    want = {(m, n, CyclotomicField(m)): 1 for m, n, _ in items}
    assert builds == want
    for m, n, todo in items:
        F, table = CyclotomicField(m), StructureTable(m, n)
        for _, deltas in todo[:3]:
            semisimple_verdicts(table, F, [deltas])
    assert builds == want


@pytest.fixture
def strand_calls(monkeypatch):
    """Calls of multiply_diagrams and the skeleton pairs composed by
    _compose_skeletons, through every binding of them in the package."""
    calls = Counter()
    for name, count in (("multiply_diagrams", lambda x, y: 1),
                        ("_compose_skeletons",
                         lambda n, x_succ, y_succ, *rest:
                             len(x_succ) * len(y_succ))):
        orig = getattr(diagrams, name)

        def counted(*args, name=name, orig=orig, count=count):
            calls[name] += count(*args)
            return orig(*args)
        for mod in [mod for key, mod in sys.modules.items()
                    if key.split(".")[0] == "cycbrauer"]:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3)])
def test_sweep_item_pairs_the_half_diagrams_once(strand_calls, m, n):
    # one table per item, however many points the item has, and one cell
    # pairing per (m, n) in the process, composed on first use: b^2
    # skeleton pairs, b = 1 arc at n = 2 and 3 at n = 3; no product goes
    # through multiply_diagrams
    StructureTable(m, n)
    table = strand_calls["_compose_skeletons"]
    assert table == (basis_size(m, n) // m ** n) ** 2
    (item,) = sweep_points([(m, n)], seed=3, generic_points=3)
    gram.cell_pairing.cache_clear()
    gram.cell_factors.cache_clear()
    for k, pairing in ((1, (1 if n == 2 else 3) ** 2), (len(item[2]), 0)):
        strand_calls.clear()
        sweep_item((m, n, item[2][:k]))
        assert strand_calls == {"_compose_skeletons": table + pairing}, k


def test_refused_delta_builds_no_table(monkeypatch):
    # the deltas are coerced before any structure table is built
    def no_table(*args, **kwargs):
        raise AssertionError("structure table built")
    monkeypatch.setattr(cycbrauer.oracle, "StructureTable", no_table)
    F = CyclotomicField(2)
    for bad in (np.int64(0), 0.5):
        with pytest.raises(TypeError):
            semisimple_verdict(2, 2, F, [bad, 1])


@pytest.mark.parametrize("deltas", [[1], [1, 2, 2, 5]])
def test_oracle_refuses_a_delta_vector_of_the_wrong_length(monkeypatch,
                                                           deltas):
    # as decide does, and before any table is built, for every point of a
    # stacked call; the length used to go unchecked ([1] gave radical 8)
    def no_table(*args, **kwargs):
        raise AssertionError("structure table built")
    monkeypatch.setattr(cycbrauer.oracle, "StructureTable", no_table)
    F = CyclotomicField(3)
    with pytest.raises(ValueError, match="need m loop parameters"):
        criterion.decide(3, 2, F, deltas)
    with pytest.raises(ValueError, match="need m loop parameters"):
        semisimple_verdict(3, 2, F, deltas)
    with pytest.raises(ValueError, match="need m loop parameters"):
        semisimple_verdicts(_table(3, 2), F, [[1, 2, 2], deltas, [0, 0, 0]])


@pytest.mark.parametrize("m,n,radical", [(2, 3, 54), (3, 2, 9)])
def test_oracle_pass_answers_for_its_tables_pair(m, n, radical):
    # the pass takes (m, n) from its table: a (2,2) table once answered for
    # (2,3) with its own radical, 4
    F = CyclotomicField(m)
    assert radical_dimension(_table(m, n), F, [F.zero] * m) == radical


def _assert_sweep_matches_single_verdicts(grid, seed=2, cap=500, **settings):
    """concordance_sweep's oracle records against one cold
    semisimple_verdict per point, record for record."""
    report = concordance_sweep(grid, seed=seed, cap=cap, **settings)
    items = sweep_points(grid, seed, **settings)
    points = [(m, n, deltas) for m, n, todo in items for _, deltas in todo]
    assert len(report["points"]) == len(points)
    for rec, (m, n, deltas) in zip(report["points"], points):
        assert rec["oracle"] == semisimple_verdict(
            m, n, CyclotomicField(m), deltas, cap=cap), rec["deltas"]
    return report


def test_sweep_matches_single_verdicts_on_the_tracked_grid():
    config = json.loads((REPORTS / "concordance.config.json").read_text())
    _assert_sweep_matches_single_verdicts(
        config["grid"], config["seed"],
        generic_points=config["generic_points"],
        hyperplane_points=config["hyperplane_points"])


def test_sweep_matches_single_verdicts_at_reach_points():
    _assert_sweep_matches_single_verdicts([(2, 4), (4, 3)], cap=2000,
                                          generic_points=1,
                                          hyperplane_points=1)


def test_sweep_matches_single_verdicts_across_stacks():
    # one item whose points fall in different stacks: off the locus the
    # generators are dropped (other blocks), at delta_0 = 1/q the four
    # primes tried first each divide a denominator (other primes), beside
    # the generated points
    q = prod(primes_for_modular(3))
    grid = [{"m": 3, "n": 2,
             "deltas": [[1, 2, 3], [Fraction(1, q), 3, 3], [1, 2, 2]]}]
    report = _assert_sweep_matches_single_verdicts(grid, generic_points=2,
                                                   hyperplane_points=2)
    F, t = CyclotomicField(3), _table(3, 2)
    kept = {id(t.blocks(trace_matrix(t, F, [F.coerce(x) for x in d])[0]))
            for d in ([1, 2, 3], [1, 2, 2])}
    assert len(kept) == 2
    assert [p["oracle"]["admissible"] for p in report["points"]][-3:] \
        == [False, True, True]


def test_fresh_verdicts_share_no_structure(strand_calls):
    # no structure table outlives its verdict: the tenth cold verdict
    # composes the table's skeleton pairs as the first did.  The cell
    # pairing of the cross-check is kept per (m, n): only the first
    # verdict after the caches are emptied composes it
    F = CyclotomicField(2)
    gram.cell_pairing.cache_clear()
    gram.cell_factors.cache_clear()
    counts = []
    for _ in range(10):
        strand_calls.clear()
        semisimple_verdict(2, 3, F, [F.one, F.embed(3)])
        counts.append(dict(strand_calls))
    # 15 skeletons in the table, 3 in the cell pairing
    assert counts == ([{"_compose_skeletons": 15 ** 2 + 3 ** 2}]
                      + [{"_compose_skeletons": 15 ** 2}] * 9)
