"""Partitions, m-multipartitions, contents and two-box addition sets.

Conventions: a partition is a tuple of weakly decreasing positive ints; an
m-multipartition is an m-tuple of partitions.  The content of the box in row
i, column j (1-based) is c = j - i, independent of which component the box
sits in.  That convention is an explicit assumption recorded in concordance
reports; nothing upstream pins it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@lru_cache(maxsize=None)
def partitions(d):
    """All partitions of d, decreasing-lex order, as tuples."""
    if d == 0:
        return ((),)
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, maxpart), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(d, d, [])
    return tuple(out)


@lru_cache(maxsize=None)
def multipartitions(m, d):
    """All m-multipartitions of d in a deterministic order."""
    if m == 1:
        return tuple((p,) for p in partitions(d))
    out = []
    for first in range(d, -1, -1):
        for p in partitions(first):
            for rest in multipartitions(m - 1, d - first):
                out.append((p,) + rest)
    return tuple(out)


def check_multipartition(mu, m):
    """``mu`` as an m-tuple of partition tuples; ValueError unless it has m
    components, each a weakly decreasing sequence of positive ints (not
    bools)."""
    try:
        out = tuple(tuple(p) for p in mu)
    except TypeError:
        out = None
    if out is None or len(out) != m or not all(
            all(isinstance(x, int) and not isinstance(x, bool) and x > 0
                for x in p)
            and list(p) == sorted(p, reverse=True) for p in out):
        raise ValueError("mu must be %d partitions (weakly decreasing "
                         "positive integers), got %r" % (m, mu))
    return out


def add_one_box(p):
    """All partitions obtained from p by adding one box, with the content of
    the added box: yields (partition, content)."""
    p = tuple(p)
    rows = len(p)
    for i in range(rows + 1):
        cur = p[i] if i < rows else 0
        above = p[i - 1] if i > 0 else None
        if above is not None and cur + 1 > above:
            continue
        q = list(p)
        if i < rows:
            q[i] += 1
        else:
            q.append(1)
        yield tuple(q), (cur + 1) - (i + 1)


def add_two_boxes_not_same_column(p):
    """Partitions obtained from p by adding two boxes in distinct columns,
    with the total content of the added boxes: yields (partition, content)."""
    seen = set()
    for q1, c1 in add_one_box(p):
        for q2, c2 in add_one_box(q1):
            # same column iff c2 == c1 - 1.  The addable cells of q1 have
            # distinct contents (if the lower of two cells on one diagonal
            # is addable, the cell above it lies in q1, so the upper one
            # does too).  On the diagonal c1 - 1, the cells up-left of the
            # one below the first box lie in q1, and a cell down-right of
            # it is not addable: the cell above it would put a cell of p
            # down-right of the first box, which p lacked
            if c2 != c1 - 1 and q2 not in seen:
                seen.add(q2)
                yield q2, c1 + c2


@dataclass(frozen=True)
class AdmissiblePair:
    """A two-box extension lam of mu together with the matching condition tag
    (1..4) and the total content of the added boxes."""

    lam: tuple
    condition: int
    content: int


def admissible_set(mu, m):
    """All admissible two-box extensions of the m-multipartition mu.

    Conditions: (1) two boxes in component m, not in one column; (2) m odd,
    one box each in components i and m-i, (m+1)/2 <= i <= m-1; (3) m even,
    same with m/2 < i <= m-1; (4) m even, two boxes in component m/2, not in
    one column.
    """
    mu = tuple(tuple(p) for p in mu)
    out = []  # each condition changes its own components: no repeats
    # (1): component m
    for q, c in add_two_boxes_not_same_column(mu[m - 1]):
        out.append(AdmissiblePair(mu[:m - 1] + (q,), 1, c))
    # (2)/(3): one box each in components i and m-i
    lo = (m + 1) // 2 if m % 2 else m // 2 + 1
    tag = 2 if m % 2 else 3
    for i in range(lo, m):
        for qi, ci in add_one_box(mu[i - 1]):
            for qj, cj in add_one_box(mu[m - i - 1]):
                lam = list(mu)
                lam[i - 1] = qi
                lam[m - i - 1] = qj
                out.append(AdmissiblePair(tuple(lam), tag, ci + cj))
    # (4): component m/2
    if m % 2 == 0:
        h = m // 2
        for q, c in add_two_boxes_not_same_column(mu[h - 1]):
            out.append(AdmissiblePair(mu[:h - 1] + (q,) + mu[h:], 4, c))
    return out


def t_set(a):
    """One-box addition contents over all partitions of size a, 0 <= a <= 64.

    Returns (brute force set, closed form set, equal flag).  Closed form:
    {0} for a = 0; [-a, a] minus 0 for a in {1, 2}; [-a, a] otherwise.
    """
    if not 0 <= a <= 64:
        raise ValueError("a out of range")
    brute = set()
    for p in partitions(a):
        for _, c in add_one_box(p):
            brute.add(c)
    if a == 0:
        closed = {0}
    elif a in (1, 2):
        closed = set(range(-a, a + 1)) - {0}
    else:
        closed = set(range(-a, a + 1))
    return brute, closed, brute == closed
