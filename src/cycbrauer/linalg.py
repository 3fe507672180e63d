"""Exact linear algebra over the scalar tower.

Gaussian elimination over a field is exact here (no rounding anywhere), and
is used for ranks and determinants of field-valued matrices.  Determinants of
polynomial-valued matrices use minor expansion with subset memoisation, which
avoids ring division entirely; the cell Gram determinants call it on their
label-Fourier blocks, at most 6 x 6, whatever the entries.

A fast modular path, rref_mod_p (row reduction mod p < 2^31), serves as a
certified pre-pass for large trace-form matrices: rank mod p is always a
lower bound for the exact rank, and an exactly verified kernel vector
certifies the deficiency.  It runs in two passes.  The forward pass brings
the matrix to row echelon form, touching only the rows at and below each new
pivot row; it gives the rank and the pivots, and at full column rank (an
empty kernel) nothing else is computed.  On a rank deficit, back-substitution
over blocks of pivot rows reduces the free columns, the only ones the kernel
basis reads.  Both passes do their bulk work in exact float64 BLAS products
of at most 32 inner terms (_dot): one factor is split into 16-bit halves, so
every sum stays below 2^53.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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

_PANEL = 32  # columns per elimination panel, rows per back-substitution block
_CHUNK = 256  # columns per float64 update, to bound its buffer


@lru_cache(maxsize=None)
def primes_for_modular(m):
    """The four largest primes p = 1 (mod m) below 2*10^9, as a tuple; they
    fit the int64 row operations of rref_mod_p."""
    out = []
    p = 2_000_000_000 - (2_000_000_000 - 1) % m  # p = 1 mod m
    while len(out) < 4:
        if p < 3:
            raise ValueError("ran out of primes")
        if is_prime(p):
            out.append(p)
        p -= m
    return tuple(out)


def _reduce(t, p, q=None):
    """t mod p in place, for an int64 array t with entries in [0, 2^63); q,
    an int64 array of t's shape, if given, holds the quotients.  Floor
    division and two passes beat numpy's % from about 1,000 entries up."""
    if t.size < 1024:
        t %= p
        return t
    q = np.floor_divide(t, p, out=q)
    q *= p
    t -= q
    return t


def _dot(x, y, p, out=None):
    """x @ y as float64, exact but not reduced mod p, for int64 arrays x and y
    with entries in [0, p), p < 2^31, and at most _PANEL inner terms.

    y is split into 16-bit halves and x stands beside 2^16 x mod p, so each
    sum, even with one more entry below p added to it, stays below
    32 * 2^31 * (2^16 + 2^15) + 2^31 < 2^53.
    """
    halves = np.vstack([y & 0xFFFF, y >> 16]).astype(np.float64)
    wide = np.hstack([x, (x << 16) % p]).astype(np.float64)
    return np.matmul(wide, halves, out=out)


def _echelon(a, p):
    """Reduce a (int64, entries in [0, p)) in place to row echelon form with
    every pivot 1, and return the pivot columns.  Only rows at and below a
    pivot row change when it is found.

    The columns go in _PANEL-column panels.  Tracker columns beside a panel
    write each row as itself plus E times the panel's pivot rows as they came
    in (E = S^-1 for the pivot rows themselves); the columns to the right of
    the panel gain E times those rows in one _dot, once the panel's row swaps
    are applied to them.
    """
    nrows, ncols = a.shape
    pivots = []
    # the float64 products of an update right of a panel, then (in the
    # same memory) the quotients of its reduction, _CHUNK columns at a time:
    # fresh arrays for every panel would cost more in page faults than in
    # arithmetic
    work = np.empty(nrows * _CHUNK)
    for c0 in range(0, ncols, _PANEL):
        top = len(pivots)
        if top == nrows:
            break
        c1 = min(c0 + _PANEL, ncols)
        w, h = c1 - c0, nrows - top
        panel = np.zeros((h, 2 * w), np.int64)
        panel[:, :w] = a[top:, c0:c1]
        came_from = list(range(h))
        moved = set()
        row = 0
        for col in range(w):
            nz = panel[row:, col].nonzero()[0]
            if len(nz) == 0:
                continue
            if nz[0]:
                piv = row + int(nz[0])
                panel[[row, piv]] = panel[[piv, row]]
                came_from[row], came_from[piv] = came_from[piv], came_from[row]
                moved.update((row, piv))
            end = w + row + 1  # the pivot row is zero outside col..end
            panel[row, end - 1] = 1  # its tracker cell
            prow = panel[row, col:end]  # a view: normalised in place
            prow *= pow(int(prow[0]), -1, p)
            prow %= p
            if len(nz) > 1:
                below = nz[1:] + row  # the rows below with a nonzero in col
                t = panel[below, col:end]
                t += np.multiply.outer(t[:, 0], p - prow)
                panel[below, col:end] = _reduce(t, p)
            pivots.append(c0 + col)
            row += 1
            if row == h:
                break
        a[top:, c0:c1] = panel[:, :w]
        if row == 0 or c1 == ncols:
            continue
        rest = a[top:, c1:]
        moved = sorted(moved)
        rest[moved] = rest[[came_from[j] for j in moved]]
        # pivot rows become E times the old ones, the others gain it
        for part in np.split(rest, range(_CHUNK, rest.shape[1], _CHUNK),
                             axis=1):
            s = _dot(panel[:, w:w + row], part[:row], p,
                     out=work[:part.size].reshape(part.shape))
            s[row:] += part[row:]
            part[...] = s
            _reduce(part, p, s.view(np.int64))
    return pivots


def _back_substitute(u, pivots, free, p):
    """The free columns of the reduced form of the echelon form u (int64,
    pivots 1, rank x ncols): U_p^-1 U_f, with U_p the unit upper triangular
    pivot columns of u and U_f its free columns.

    U_p is taken in diagonal blocks of at most _PANEL pivot rows, as few
    as that allows and of one size (the last padded).  The inverses of
    all the blocks come from one row-by-row back-substitution run on all of
    them at once; then each block, from the bottom up, is solved with its
    inverse and eliminated from the rows above in one _dot each.
    """
    x = u[:, free]
    rank = len(pivots)
    size = -(-rank // -(-rank // _PANEL))  # the inverses take size - 1 steps
    starts = range(0, rank, size)
    # the diagonal blocks, the last one padded with the identity
    blocks = np.tile(np.eye(size, dtype=np.int64), (len(starts), 1, 1))
    for b, b0 in enumerate(starts):
        cols = pivots[b0:b0 + size]
        blocks[b, :len(cols), :len(cols)] = u[b0:b0 + size, cols]
    inverses = np.tile(np.eye(size, dtype=np.int64), (len(starts), 1, 1))
    for i in range(size - 1, 0, -1):
        t = blocks[:, :i, i, None] * (p - inverses[:, i, None, :])
        t += inverses[:, :i]
        inverses[:, :i] = _reduce(t, p)
    for b, b0 in reversed(list(enumerate(starts))):
        cols = pivots[b0:b0 + size]
        inv = inverses[b, :len(cols), :len(cols)]
        xb = x[b0:b0 + size]
        xb[...] = _dot(inv, xb, p)
        _reduce(xb, p)
        if b0:
            s = _dot((p - u[:b0, cols]) % p, xb, p)
            s += x[:b0]
            x[:b0] = s
            _reduce(x[:b0], p, s.view(np.int64))
    return x


def rref_mod_p(mat, p):
    """Reduced row echelon form mod p of an integer matrix.

    Returns (rank, pivot_cols, kernel_basis) where kernel_basis is an int64
    array whose rows (entries in [0, p)) span the right kernel mod p.  Needs
    an integer or bool matrix (any other dtype is a TypeError, as a fraction
    or float has no residue to take) and p < 2^31, so that the int64 row
    update cannot overflow.

    The forward pass (_echelon) gives the rank and the pivots; at full
    column rank the kernel is empty and nothing else is computed.  Otherwise
    back-substitution (_back_substitute) reduces the free columns only.
    Reduced echelon form is unique: the output is that of plain Gauss-Jordan
    elimination.
    """
    if not 2 <= p < 2 ** 31:
        raise ValueError("rref_mod_p needs 2 <= p < 2**31, got %d" % p)
    a = np.asarray(mat)
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
    if rank:
        kernel[:, pivots] = (p - _back_substitute(a[:rank], pivots, free,
                                                  p).T) % p
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
