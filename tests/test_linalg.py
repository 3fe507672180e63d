"""Modular row reduction against exact elimination."""

from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycbrauer import oracle
from cycbrauer.diagrams import basis_size
from cycbrauer.linalg import (gauss_det, gauss_rank, minor_det,
                              primes_for_modular, rational_reconstruct,
                              rref_mod_p)
from cycbrauer.scalars import CyclotomicField, is_prime

P = primes_for_modular(1)[0]


def test_primes_for_modular_are_one_shared_tuple():
    # memoised per m, so the value is a tuple no caller can change
    for m in range(1, 7):
        primes = primes_for_modular(m)
        assert type(primes) is tuple and primes is primes_for_modular(m)
        # the four largest primes p = 1 (mod m) below 2*10^9, descending
        top = 2_000_000_000 - (2_000_000_000 - 1) % m
        want = [p for p in range(top, primes[-1] - 1, -m) if is_prime(p)]
        assert primes == tuple(want) and (top - 1) % m == 0


@st.composite
def small_int_matrices(draw):
    """Matrices of at most 5 x 5 with entries of absolute value <= 16,
    often of low rank (a product through a narrower inner dimension).  By
    Hadamard's bound every minor is below (16 * sqrt(5))^5 < 6e7 < P, so a
    nonzero minor stays nonzero mod P and the ranks must agree."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    if draw(st.booleans()):
        entries = st.integers(-9, 9)
        return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                             min_size=rows, max_size=rows))
    inner = draw(st.integers(1, 4))
    entries = st.integers(-2, 2)
    a = draw(st.lists(st.lists(entries, min_size=inner, max_size=inner),
                      min_size=rows, max_size=rows))
    b = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=inner, max_size=inner))
    return (np.array(a) @ np.array(b)).tolist()


@settings(max_examples=200, deadline=None)
@given(small_int_matrices())
def test_rref_mod_p_rank_matches_gauss_rank(mat):
    rank, pivots, kernel = rref_mod_p(mat, P)
    assert rank == gauss_rank([[Fraction(x) for x in row] for row in mat])
    assert len(pivots) == rank and len(kernel) == len(mat[0]) - rank
    for v in kernel:
        assert not (np.array(mat, dtype=object) @ np.array(v, dtype=object)
                    % P).any()


def _rref_reference(mat, p):
    """Column-by-column Gauss-Jordan mod p with one masked numpy row update
    per column, every row reduced at once: the reference the panel forward
    pass and the bottom-up back-substitution of rref_mod_p must match bit
    for bit."""
    a = np.array(mat, dtype=np.int64) % p
    nrows, ncols = a.shape
    pivots = []
    row = 0
    for col in range(ncols):
        nz = np.nonzero(a[row:, col])[0]
        if len(nz) == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = pow(int(a[row, col]), p - 2, p)
        a[row, col:] = a[row, col:] * inv % p
        colvals = a[:, col].copy()
        colvals[row] = 0
        mask = colvals != 0
        if mask.any():
            a[mask, col:] = (a[mask, col:]
                             - colvals[mask, None] * a[row, col:][None, :]) % p
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    rank = len(pivots)
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    kernel = np.zeros((ncols - rank, ncols), dtype=np.int64)
    kernel[:, free] = np.eye(ncols - rank, dtype=np.int64)
    kernel[:, pivots] = -a[:rank, free].T % p
    return rank, pivots, kernel


def _assert_same_rref(got, want):
    assert got[0] == want[0] and list(got[1]) == list(want[1])
    assert got[2].dtype == want[2].dtype == np.int64
    assert got[2].shape == want[2].shape and (got[2] == want[2]).all()


# 2, 3, the primes the oracle uses for m = 1..6, and the largest one allowed
PRIMES = sorted({2, 3, 2 ** 31 - 1}
                | {p for m in range(1, 7) for p in primes_for_modular(m)})
# sizes at the edges of the 32-column panels
PANEL_EDGES = [31, 32, 33, 64, 65]


def _rank_exactly(rng, rows, inner, cols, p):
    """A rows x cols matrix of rank exactly inner mod p (for any p): the
    product of [I; R] and [I | R'] with random R, R', under random row and
    column permutations."""
    left = np.vstack([np.eye(inner, dtype=np.int64),
                      rng.integers(0, p, (rows - inner, inner))])
    right = np.hstack([np.eye(inner, dtype=np.int64),
                       rng.integers(0, p, (inner, cols - inner))])
    mat = _mul_mod(left, right, p)
    return mat[rng.permutation(rows)][:, rng.permutation(cols)]


def _invertible(rng, n, p):
    """An n x n matrix invertible mod p (for any p): L U with random unit
    lower and upper triangular L and U, whose determinant is 1."""
    eye = np.eye(n, dtype=np.int64)
    lower = np.tril(rng.integers(0, p, (n, n)), -1) + eye
    upper = np.triu(rng.integers(0, p, (n, n)), 1) + eye
    return _mul_mod(lower, upper, p)


def _mul_mod(x, y, p):
    """x @ y mod p in Python integers."""
    return (x.astype(object) @ y.astype(object) % p).astype(np.int64)


@st.composite
def modular_matrices(draw):
    """A matrix and a prime p: 1..100 rows and columns (sometimes at the
    panel edges, or a tall 100 x 40 or wide 40 x 100 shape) with uniform
    residues, residues in {0, p - 2, p - 1} (the largest partial sums in the
    panel update), or a product through an inner dimension of 1..40 (low
    rank), sometimes with about a third of its columns zeroed; or a matrix of
    rank exactly at a panel edge with at least 66 columns; or a square
    matrix of full rank."""
    size = st.integers(1, 100) | st.sampled_from(PANEL_EDGES)
    rows, cols = draw(st.tuples(size, size)
                      | st.sampled_from([(100, 40), (40, 100)]))
    p = draw(st.sampled_from(PRIMES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["uniform", "top", "low-rank", "panel-rank",
                                 "full-rank"]))
    if kind == "panel-rank":
        inner = draw(st.sampled_from(PANEL_EDGES))
        rows = draw(st.integers(inner, 100))
        cols = draw(st.integers(max(66, inner), 100))
        return _rank_exactly(rng, rows, inner, cols, p), p
    if kind == "full-rank":
        mat = _invertible(rng, rows, p)
        return mat[rng.permutation(rows)][:, rng.permutation(rows)], p
    if kind == "uniform":
        mat = rng.integers(0, p, (rows, cols))
    elif kind == "top":
        mat = rng.choice(np.array([0, p - 2, p - 1]), (rows, cols))
    else:
        inner = draw(st.integers(1, 40))
        # entries below p times 10, summed 40 times, stay below 2^40
        mat = rng.integers(0, p, (rows, inner)) @ rng.integers(0, 10,
                                                               (inner, cols))
    if draw(st.booleans()):
        mat[:, rng.random(cols) < 0.3] = 0
    return mat, p


@settings(max_examples=200, deadline=None)
@given(modular_matrices())
def test_rref_mod_p_matches_reference(sample):
    mat, p = sample
    _assert_same_rref(rref_mod_p(mat, p), _rref_reference(mat, p))


@pytest.mark.parametrize("point,m,n", [
    ("zero", 2, 3), ("generic", 2, 3), ("zero", 3, 3), ("generic", 3, 3),
    # no symmetry holds off the locus: one 405-row block across 13 panels
    ("off-locus", 3, 3),
    # blocks of up to 272 rows, rank 200 in the largest
    ("zero", 2, 4),
])
def test_rref_mod_p_matches_reference_on_trace_matrices(monkeypatch, m, n,
                                                        point):
    # every matrix the oracle reduces on the way to one radical dimension
    reduced = []

    def checked(mat, p):
        got = rref_mod_p(mat, p)
        _assert_same_rref(got, _rref_reference(mat, p))
        reduced.append(len(mat))
        return got

    monkeypatch.setattr(oracle, "rref_mod_p", checked)
    F = CyclotomicField(m)
    ds = {"zero": [0] * m, "off-locus": [1, 2, 3],
          "generic": [Fraction(7, 3)] + [Fraction(-5, 4)] * (m - 1)}[point]
    oracle.radical_dimension(oracle.StructureTable(m, n, cap=2000), F,
                             [F.embed(d) for d in ds])
    # one pass per symmetry block of T, and the blocks partition the basis
    assert sum(reduced) == basis_size(m, n)


@pytest.mark.parametrize("inner", PANEL_EDGES)
@pytest.mark.parametrize("p", [2, P])
def test_rref_mod_p_rank_exactly_at_a_panel_edge(inner, p):
    rng = np.random.default_rng(inner)
    for rows, cols in [(inner, 66), (100, 100), (inner, 100)]:
        mat = _rank_exactly(rng, rows, inner, max(cols, inner), p)
        got = rref_mod_p(mat, p)
        assert got[0] == inner
        _assert_same_rref(got, _rref_reference(mat, p))


@pytest.mark.parametrize("n", [1] + PANEL_EDGES + [100])
def test_rref_mod_p_full_rank_has_an_empty_int64_kernel(n):
    rank, pivots, kernel = rref_mod_p(
        _invertible(np.random.default_rng(n), n, P), P)
    assert rank == n and pivots == list(range(n))
    assert kernel.shape == (0, n) and kernel.dtype == np.int64


@pytest.mark.parametrize("mat", [
    [[Fraction(1, 2), 1], [1, 2]],  # rank 1 over Q, 2 if read as [[0, 1], ...]
    [[0.5, 1], [1, 2]],
    [[2.9]],  # read as 2 by an int64 cast
    np.array([[1.0, 2.0]]),
])
def test_rref_mod_p_refuses_non_integer_matrices(mat):
    with pytest.raises(TypeError):
        rref_mod_p(mat, P)


@pytest.mark.parametrize("mat", [[1, 2], 3, np.zeros((2, 2, 2), np.int64)])
def test_rref_mod_p_refuses_non_matrices(mat):
    with pytest.raises(ValueError, match="2-D matrix, got shape"):
        rref_mod_p(mat, P)


def test_rref_mod_p_takes_python_and_numpy_integers():
    assert rref_mod_p([[1, 2], [2, 4]], P)[0] == 1
    assert rref_mod_p([[True, False], [False, True]], P)[0] == 2
    assert rref_mod_p(np.array([[1, 2], [3, 4]], dtype=np.int32), 5)[0] == 2
    assert rref_mod_p(np.array([[1, 2], [3, 4]], dtype=np.uint8), 2)[0] == 1
    # 2^64 - 1 = 0 (mod 5); an int64 cast would read it as -1
    assert rref_mod_p(np.array([[2 ** 64 - 1]], dtype=np.uint64), 5)[0] == 0


def test_rref_mod_p_refuses_large_primes():
    with pytest.raises(ValueError):
        rref_mod_p([[1]], 2 ** 31 + 11)
    assert rref_mod_p([[1, 1]], 2 ** 31 - 1)[0] == 1


@st.composite
def small_field_matrices(draw):
    """Square matrices up to 4 x 4 over Q or Q(zeta_3) with small entries,
    often singular (a repeated row or a zero column)."""
    F = draw(st.sampled_from([CyclotomicField(1), CyclotomicField(3)]))
    size = draw(st.integers(0, 4))
    coeff = st.fractions(-5, 5, max_denominator=4)
    entry = st.lists(coeff, min_size=F.degree, max_size=F.degree).map(
        F.element)
    rows = draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                         min_size=size, max_size=size))
    if size > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    return F, rows


@settings(max_examples=120, deadline=None)
@given(small_field_matrices())
def test_gauss_det_matches_minor_det(sample):
    F, rows = sample
    det = gauss_det(rows, F.one)
    assert det == minor_det(rows, F.zero, F.one)
    assert (gauss_rank(rows) == len(rows)) == bool(det)


def test_rational_reconstruct_bound_is_the_integer_square_root():
    # at p = 2^61 - 1, sqrt(p / 2) lies just below 2^30, which a float
    # square root rounds up to
    p = 2 ** 61 - 1
    bound = isqrt(p // 2)
    assert bound == 2 ** 30 - 1
    assert rational_reconstruct(pow(2 ** 30, -1, p), p) is None
    for x in [Fraction(1, bound), Fraction(-bound, bound - 1),
              Fraction(bound, 2)]:
        residue = x.numerator * pow(x.denominator, -1, p) % p
        assert rational_reconstruct(residue, p) == x
