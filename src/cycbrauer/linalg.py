"""Exact linear algebra over the scalar tower.

Gaussian elimination over a field is exact here (no floats anywhere), and is
used for ranks and determinants of field-valued matrices.  Determinants of
polynomial-valued matrices use minor expansion with subset memoisation, which
avoids ring division entirely (sizes stay small, <= ~15).  A fast modular
path (numpy row reduction mod p) serves as a certified pre-pass for large
trace-form matrices: rank mod p is always a lower bound for the exact rank,
and an exactly verified kernel vector certifies the deficiency.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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

def primes_for_modular(m):
    """The four largest primes p = 1 (mod m) below 2*10^9; they fit the
    int64 row operations of rref_mod_p."""
    out = []
    p = 2_000_000_000 - (2_000_000_000 - 1) % m  # p = 1 mod m
    while len(out) < 4:
        if p < 3:
            raise ValueError("ran out of primes")
        if is_prime(p):
            out.append(p)
        p -= m
    return out


def rref_mod_p(mat, p):
    """Reduced row echelon form mod p of an int matrix (numpy int64).

    Returns (rank, pivot_cols, kernel_basis) where kernel_basis is a list of
    int vectors (entries in [0, p)) spanning the right kernel mod p.  Needs
    p < 2^31, so that the int64 row update cannot overflow.
    """
    if not 2 <= p < 2 ** 31:
        raise ValueError("rref_mod_p needs 2 <= p < 2**31, got %d" % p)
    a = np.array(mat, dtype=np.int64) % p
    nrows, ncols = a.shape
    pivots = []
    row = 0
    for col in range(ncols):
        sub = a[row:, col]
        nz = np.nonzero(sub)[0]
        if len(nz) == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        inv = pow(int(a[row, col]), p - 2, p)
        # the pivot row is zero left of col, so only columns col.. change
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
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    kernel = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-int(a[r, fc])) % p
        kernel.append(v)
    return rank, pivots, kernel


def rational_reconstruct(a, p):
    """Reconstruct n/d = a (mod p) with |n|, d <= sqrt(p/2); None on failure."""
    a %= p
    if a == 0:
        return Fraction(0)
    bound = int((p // 2) ** 0.5)
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
