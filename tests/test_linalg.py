"""Modular row reduction against exact elimination."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycbrauer.linalg import (gauss_det, gauss_rank, minor_det,
                              primes_for_modular, rref_mod_p)
from cycbrauer.scalars import CyclotomicField

P = primes_for_modular(1)[0]


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
