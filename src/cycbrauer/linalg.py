"""Exact linear algebra over the scalar tower.

Gaussian elimination over a field is exact here (no rounding anywhere), and
is used for ranks and determinants of field-valued matrices.  Determinants of
polynomial-valued matrices use minor expansion with subset memoisation, which
avoids ring division entirely; the cell Gram determinants call it on their
label-Fourier blocks, at most 6 x 6, whatever the entries.

A fast modular path, rref_mod_p (row reduction mod p < 2^31), serves as a
certified pre-pass for the trace-form rank: rank mod p is always a lower
bound for the exact rank, and an exactly verified kernel vector certifies
the deficiency.  Its forward pass goes in panels of 32 columns, each
applied to the columns right of it in one exact float64 BLAS product
(_dot: one factor split into 16-bit halves keeps every sum below 2^53).
Only on a rank deficit are the free columns reduced, one pivot at a time.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, isqrt

import numpy as np

from .scalars import is_prime


def _pivots(rows):
    """Gaussian elimination on a copy of ``rows`` (field elements), one
    column at a time: yields (pivot, swapped) per column, pivot None for a
    column without one, until the rows or the columns run out."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    row = 0
    for col in range(ncols):
        if row == len(rows):
            return
        piv = next((r for r in range(row, len(rows)) if rows[r][col]), None)
        if piv is None:
            yield None, False
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        pv = rows[row][col]
        for r in range(row + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / pv
                for c in range(col, ncols):
                    rows[r][c] = rows[r][c] - f * rows[row][c]
        yield pv, piv != row
        row += 1


def gauss_rank(rows):
    """Rank of a matrix given as list of lists of field elements."""
    return sum(1 for pv, _ in _pivots(rows) if pv is not None)


def gauss_det(rows, one):
    """Determinant of a square matrix of field elements."""
    det = one
    for pv, swapped in _pivots(rows):
        if pv is None:
            return one - one
        if swapped:
            det = -det
        det = det * pv
    return det


def minor_det(matrix, zero, one):
    """Determinant by column-subset expansion; division-free, so it works
    for polynomial entries.  O(n * 2^n) ring operations."""
    n = len(matrix)
    if n == 0:
        return one
    # dp maps a frozen set of used columns (bitmask) to the determinant of
    # the top-left block on rows 0..popcount-1 and those columns
    dp = {0: one}
    for row in range(n):
        ndp = {}
        for mask, val in dp.items():
            if not val:
                continue
            below = 0  # parity of used columns left of col
            for col in range(n):
                bit = 1 << col
                if mask & bit:
                    below ^= 1
                    continue
                entry = matrix[row][col]
                if entry:
                    term = val * entry
                    # inversions added: used columns right of col = row - below
                    if (row + below) & 1:
                        term = -term
                    key = mask | bit
                    acc = ndp.get(key)
                    ndp[key] = term if acc is None else acc + term
        dp = ndp
    return dp.get((1 << n) - 1, zero)


# ---------------------------------------------------------------------------
# modular fast path
# ---------------------------------------------------------------------------

_PANEL = 32  # columns per elimination panel


@lru_cache(maxsize=None)
def primes_for_modular(m):
    """The four largest primes p = 1 (mod m) below 2*10^9, as a tuple; they
    fit the int64 row operations of rref_mod_p."""
    top = 2_000_000_000 - (2_000_000_000 - 1) % m  # p = 1 mod m
    primes = tuple(islice((p for p in range(top, 2, -m) if is_prime(p)), 4))
    if len(primes) < 4:
        raise ValueError("ran out of primes")
    return primes


def modular_primes(m):
    """primes_for_modular(m), then the primes p = 1 (mod m) below them."""
    primes = primes_for_modular(m)
    yield from primes
    yield from (p for p in range(primes[-1] - m, 2, -m) if is_prime(p))


def _dot(x, y, p):
    """x @ y as float64, exact but not reduced mod p, for int64 arrays x and y
    with entries in [0, p), p < 2^31, and at most _PANEL inner terms.

    y is split into 16-bit halves and x stands beside 2^16 x mod p, so each
    sum, even with one more entry below p added to it, stays below
    32 * 2^31 * (2^16 + 2^15) + 2^31 < 2^53.
    """
    halves = np.vstack([y & 0xFFFF, y >> 16]).astype(np.float64)
    wide = np.hstack([x, (x << 16) % p]).astype(np.float64)
    return wide @ halves


def _echelon(a, p):
    """Reduce a (int64, entries in [0, p)) in place to row echelon form with
    every pivot 1, and return the pivot columns.  Only rows at and below a
    pivot row change when it is found.

    The columns go in _PANEL-column panels.  Tracker columns beside a panel
    write each row as itself plus E times the panel's pivot rows as they came
    in (E = S^-1 for the pivot rows themselves); the columns to the right of
    the panel gain E times those rows in one _dot, once the panel's row
    permutation is applied to them.
    """
    nrows, ncols = a.shape
    pivots = []
    for c0 in range(0, ncols, _PANEL):
        top = len(pivots)
        if top == nrows:
            break
        c1 = min(c0 + _PANEL, ncols)
        w, h = c1 - c0, nrows - top
        panel = np.zeros((h, 2 * w), np.int64)
        panel[:, :w] = a[top:, c0:c1]
        came_from = list(range(h))
        row = 0
        for col in range(w):
            nz = panel[row:, col].nonzero()[0]
            if len(nz) == 0:
                continue
            if nz[0]:
                piv = row + int(nz[0])
                panel[[row, piv]] = panel[[piv, row]]
                came_from[row], came_from[piv] = came_from[piv], came_from[row]
            end = w + row + 1  # the pivot row is zero outside col..end
            panel[row, end - 1] = 1  # its tracker cell
            prow = panel[row, col:end]  # a view: normalised in place
            prow *= pow(int(prow[0]), -1, p)
            prow %= p
            if len(nz) > 1:
                below = nz[1:] + row  # the rows below with a nonzero in col
                t = panel[below, col:end]
                t += np.multiply.outer(t[:, 0], p - prow)
                panel[below, col:end] = t % p
            pivots.append(c0 + col)
            row += 1
            if row == h:
                break
        a[top:, c0:c1] = panel[:, :w]
        if row == 0 or c1 == ncols:
            continue
        rest = a[top:, c1:]
        ordered = rest[came_from]
        # pivot rows become E times the old ones, the others gain it
        s = _dot(panel[:, w:w + row], ordered[:row], p)
        s[row:] += ordered[row:]
        rest[...] = s
        rest %= p
    return pivots


def rref_mod_p(mat, p):
    """Reduced row echelon form mod p of an integer matrix.

    Returns (rank, pivot_cols, kernel_basis) where kernel_basis is an int64
    array whose rows (entries in [0, p)) span the right kernel mod p.  Needs
    a 2-D integer or bool matrix (any other dtype is a TypeError, as a
    fraction or float has no residue to take) and p < 2^31, so that the
    int64 row update cannot overflow.

    The forward pass (_echelon) gives the rank and the pivots; at full
    column rank the kernel is empty and nothing else is computed.
    Otherwise the free columns, the only ones the kernel reads, are reduced
    from the bottom pivot row up, one pivot at a time.  Reduced echelon
    form is unique: the output is that of plain Gauss-Jordan elimination.
    """
    if not 2 <= p < 2 ** 31:
        raise ValueError("rref_mod_p needs 2 <= p < 2**31, got %d" % p)
    a = np.asarray(mat)
    if a.ndim != 2:
        raise ValueError("rref_mod_p needs a 2-D matrix, got shape %s"
                         % (a.shape,))
    if a.dtype.kind not in "biu":
        raise TypeError("rref_mod_p needs an integer matrix, got dtype %s"
                        % a.dtype)
    if a.dtype == np.uint64:
        a = a % np.uint64(p)  # a cast to int64 would wrap from 2^63 up
    a = a.astype(np.int64)
    a %= p
    ncols = a.shape[1]
    pivots = _echelon(a, p)
    rank = len(pivots)
    kernel = np.zeros((ncols - rank, ncols), dtype=np.int64)
    if rank == ncols:
        return rank, pivots, kernel
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    kernel[:, free] = np.eye(ncols - rank, dtype=np.int64)
    # row i, reduced by the pivot rows below it, clears its pivot column
    # from the rows above; it is zero in their other pivot columns
    x = a[:rank, free]
    for i in range(rank - 1, 0, -1):
        above = a[:i, pivots[i]].nonzero()[0]  # the rows it changes
        t = x[above] - np.multiply.outer(a[above, pivots[i]], x[i])
        x[above] = t % p
    kernel[:, pivots] = -x.T % p
    return rank, pivots, kernel


def rational_reconstruct(a, p):
    """Reconstruct n/d = a (mod p) with |n|, d <= sqrt(p/2); None on failure."""
    a %= p
    if a == 0:
        return Fraction(0)
    bound = isqrt(p // 2)
    r0, r1 = p, a
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or s1 == 0:
        return None
    if gcd(r1, abs(s1)) != 1:
        return None
    return Fraction(r1, s1) if s1 > 0 else Fraction(-r1, -s1)
