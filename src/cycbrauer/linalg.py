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


def gauss_rank(rows):
    """Rank of a matrix given as list of lists of field elements."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        pv = rows[row][col]
        for r in range(row + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / pv
                for c in range(col, ncols):
                    rows[r][c] = rows[r][c] - f * rows[row][c]
        row += 1
        rank += 1
        if row == len(rows):
            break
    return rank


def gauss_det(rows, one):
    """Determinant of a square matrix of field elements."""
    rows = [list(r) for r in rows]
    n = len(rows)
    det = one
    for col in range(n):
        piv = None
        for r in range(col, n):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            return one - one
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        pv = rows[col][col]
        det = det * pv
        for r in range(col + 1, n):
            if rows[r][col]:
                f = rows[r][col] / pv
                for c in range(col, n):
                    rows[r][c] = rows[r][c] - f * rows[col][c]
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

def primes_for_modular(m, count=3, start=2_000_000_000):
    """Primes p = 1 (mod m) descending from ``start``; fit in int64 row ops."""
    out = []
    p = start - (start - 1) % m  # p = 1 mod m
    while len(out) < count:
        if p < 3:
            raise ValueError("ran out of primes")
        if _is_prime64(p):
            out.append(p)
        p -= m if m > 1 else 1
    return out


def _is_prime64(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
