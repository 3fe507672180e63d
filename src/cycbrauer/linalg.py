"""Exact linear algebra over the scalar tower.

Gaussian elimination over a field is exact here (no rounding anywhere), and
is used for ranks and determinants of field-valued matrices.  Determinants of
polynomial-valued matrices use minor expansion with subset memoisation, which
avoids ring division entirely; the cell Gram determinants call it on their
label-Fourier blocks, at most 6 x 6, whatever the entries.

A fast modular path, rref_mod_p (row reduction mod p < 2^31), serves as a
certified pre-pass for the trace-form rank: rank mod p is always a lower
bound for the exact rank, and an exactly verified kernel vector certifies
the deficiency.  It reduces one matrix or a (k, r, c) stack of them, a
matrix being the stack of one: one loop over the columns serves every
matrix of the stack.  Its forward pass goes in panels of 32 columns, each
applied to the columns right of it in one exact float64 BLAS product per
matrix (_dot: one factor split into 16-bit halves keeps every sum below
2^53).  Besides the stack it holds the echelon rows, k x c x c, and one
panel of the rows still to be reduced.  Only where a matrix has a rank
deficit are the free columns reduced, one pivot column at a time for the
whole stack.
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
    (matrices, or stacks of them) with entries in [0, p), p < 2^31, and at
    most _PANEL inner terms.

    y is split into 16-bit halves and x stands beside 2^16 x mod p, so each
    sum, even with one more entry below p added to it, stays below
    32 * 2^31 * (2^16 + 2^15) + 2^31 < 2^53.
    """
    halves = np.concatenate([y & 0xFFFF, y >> 16], axis=-2)
    wide = np.concatenate([x, (x << 16) % p], axis=-1)
    return wide.astype(np.float64) @ halves.astype(np.float64)


def _echelon(a, p):
    """Row echelon form of each matrix of the stack a (k x r x c, int64,
    entries in [0, p)), which it consumes.  Returns (rows, pivots): rows
    (k x c x c) holds at [j, t] the echelon row of matrix j whose pivot, 1,
    is in column t, or zeros if column t has none, and pivots (k x c, bool)
    marks the pivot columns.

    One loop over the columns serves the whole stack.  A pivot row leaves
    the rows still to be reduced (it is reduced to zero with them), so the
    matrices never need to agree on a row: a matrix with no pivot in a
    column keeps a zero row there, which marks the column free.  Each
    pivot changes only the rows with a nonzero in its column.

    The columns go in _PANEL-column panels, the last one taking up to
    _PANEL / 2 more columns (trackers widen each row update by about
    _PANEL / 2 columns, more than they would save there).  Tracker columns
    beside a panel with columns to its right write each row as itself plus
    E times the panel's pivot rows as they came in (only E for the pivot
    rows themselves); those columns gain E times the pivot rows in one _dot
    per panel, and the rows that became pivots are dropped.
    """
    k, h, ncols = a.shape
    a = a.reshape(k * h, ncols)  # matrix j's rows at j*h..(j+1)*h - 1
    rows = np.zeros((k, ncols, ncols), np.int64)
    pivots = np.zeros((k, ncols), bool)
    c0 = 0
    while c0 < ncols and k * h:
        last = ncols - c0 <= _PANEL + _PANEL // 2
        c1 = ncols if last else c0 + _PANEL
        w = c1 - c0
        panel = np.zeros((k * h, w if last else 2 * w), np.int64)
        panel[:, :w] = a[:, :w]
        found = np.zeros((k, w, panel.shape[1]), np.int64)  # pivot rows
        first = np.arange(0, k * h, h)  # each matrix's first row
        came_from = np.zeros((w, k), np.intp)  # row 0 where no pivot
        for col in range(w):
            nz = panel[:, col].nonzero()[0]
            if len(nz) == 0:
                continue
            if k == 1:
                piv = int(nz[0])
                inv = pow(int(panel[piv, col]), -1, p)
            else:  # the first nonzero row of each matrix, else its first
                piv = (panel[:, col].reshape(k, h) != 0).argmax(1) + first
                inv = np.array([pow(x, -1, p) if x else 0
                                for x in panel[piv, col].tolist()])[:, None]
            end = w if last else w + col + 1  # the row is zero after end
            prow = panel[piv, col:end]  # a view if k == 1, else a copy
            if not last:
                came_from[col] = piv
                prow[..., -1] = 1  # its tracker cell
            prow *= inv
            prow %= p
            found[:, col, col:end] = prow
            t = panel[nz, col:end]  # the pivot rows too, which become zero
            t -= t[:, :1] * (prow if k == 1 else prow[nz // h])
            t %= p
            panel[nz, col:end] = t
        # the diagonal of the panel's columns: the pivots found
        has = found.reshape(k, -1)[:, ::found.shape[2] + 1] != 0
        pivots[:, c0:c1] = has
        rows[:, c0:c1, c0:c1] = found[:, :, :w]
        if last:
            break
        rest = a[:, w:]
        c0 = c1
        if not has.any():
            a = rest
            continue
        came_from = came_from.T
        used = np.zeros(k * h, bool)
        used[came_from[has]] = True
        used = used.reshape(k, h)
        h -= int(used.sum(1).min())
        kept = (np.argsort(used, axis=1, kind="stable")[:, :h]
                + first[:, None]).ravel()
        tracker = np.concatenate([found[:, :, w:],
                                  panel[kept, w:].reshape(k, h, w)], axis=1)
        s = _dot(tracker, rest[came_from], p)
        rows[:, c1 - w:c1, c1:] = s[:, :w] % p
        s = s[:, w:].reshape(k * h, ncols - c1)
        s += rest[kept]
        a = s.astype(np.int64)
        a %= p
    return rows, pivots


def _kernels(rows, pivots, p):
    """Kernel bases mod p from _echelon's (rows, pivots) of a stack of
    matrices with c columns: a (k x f x c) int64 array
    whose row i of matrix j is, when the i-th column free in any matrix of
    the stack is free in j, the kernel vector of j that is 1 there and 0 in
    j's other free columns, and zero otherwise.

    That vector is e_i minus column i of j's reduced echelon form.  The
    pivot rows are reduced from the bottom up, one pivot column at a time
    for the whole stack, in the free columns only (the pivot columns would
    become unit vectors); each pivot changes only the rows above it with a
    nonzero in its column, and a matrix in which the column is free has a
    zero row there, which changes nothing.
    """
    k, ncols = pivots.shape
    if pivots.all():
        return np.zeros((k, 0, ncols), np.int64)
    count = pivots.sum(0)  # the matrices with a pivot in each column
    free = (count < k).nonzero()[0]
    nf = len(free)
    short = (pivots.sum(1) < ncols).nonzero()[0] if k > 1 else [0]
    n = len(short)
    if n < k:  # the matrices of full rank have no kernel
        rows, pivots = rows.take(short, 0), pivots.take(short, 0)
        count = pivots.sum(0)
    cols = count.nonzero()[0]  # a pivot column of some matrix
    r = len(cols)
    echelon = rows.take(cols, 1)
    x = echelon.take(free, 2).reshape(n * r, nf)
    factors = echelon.take(cols, 2).reshape(n, r * r)
    factors[:, ::r + 1] = 0  # the diagonal: a row clears those above
    factors = factors.reshape(n * r, r)
    if n > 1:
        first = np.repeat(np.arange(n) * r, r)  # row 0 of its matrix
    for i in range(r - 1, 0, -1):
        above = factors[:, i].nonzero()[0]
        if len(above):
            src = i if n == 1 else first[above] + i
            t = x[above] - factors[above, i, None] * x[src]
            x[above] = t % p
    out = np.zeros((n, nf, ncols), np.int64)
    out[:, :, cols] = (-x % p).reshape(n, r, nf).swapaxes(1, 2)
    # 1 where the free column is the matrix's own
    out.reshape(n, -1)[:, np.arange(nf) * ncols + free] = \
        ~pivots.take(free, 1)
    if n == k:
        return out
    kernels = np.zeros((k, nf, ncols), np.int64)
    kernels[short] = out
    return kernels


def rref_mod_p(mat, p):
    """Rank, pivots and kernel mod p of an integer matrix, or of each matrix
    of a (k, r, c) stack at once.

    Returns (rank, pivot_cols, kernel_basis) for a matrix: kernel_basis is
    an int64 array whose rows (entries in [0, p)) span the right kernel mod
    p, one per free column f, 1 at f and 0 at the other free columns.  For
    a stack it returns (ranks, pivots, kernels): ranks an int array (k,),
    pivots a (k, c) bool array marking each matrix's pivot columns, and
    kernels as _kernels lays them out, so a stack of one matrix gives
    kernels[0] == kernel_basis.  Needs integer or bool entries (any other
    dtype is a TypeError, as a fraction or float has no residue to take)
    and p < 2^31, so that the int64 row update cannot overflow.

    The forward pass (_echelon) gives the ranks and the pivots; when every
    matrix has full column rank nothing else is computed.  Otherwise the
    matrices with free columns are reduced further (_kernels).  Reduced
    echelon form is unique: the output is that of plain Gauss-Jordan
    elimination on each matrix.
    """
    if not 2 <= p < 2 ** 31:
        raise ValueError("rref_mod_p needs 2 <= p < 2**31, got %d" % p)
    a = np.asarray(mat)
    if a.ndim not in (2, 3):
        raise ValueError("rref_mod_p needs a matrix or a stack of them, "
                         "got shape %s" % (a.shape,))
    if a.dtype.kind not in "biu":
        raise TypeError("rref_mod_p needs an integer matrix, got dtype %s"
                        % a.dtype)
    if a.dtype == np.uint64:
        a = a % np.uint64(p)  # a cast to int64 would wrap from 2^63 up
    stack = a.astype(np.int64)
    stack %= p
    rows, pivots = _echelon(stack if a.ndim == 3 else stack[None], p)
    kernels = _kernels(rows, pivots, p)
    if a.ndim == 3:
        return pivots.sum(1), pivots, kernels
    cols = pivots[0].nonzero()[0].tolist()
    return len(cols), cols, kernels[0]


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
