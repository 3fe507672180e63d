"""The complex reflection group G(m,1,n) = (Z/m) wr S_n.

An element is a permutation of {1..n} together with a Z/m color per strand.
The composition convention matches diagram stacking: compose(g, h) is the
diagram of g placed on top of the diagram of h, so perm maps "top point ->
bottom point" and the color of strand i is counted in the top-to-bottom
direction.  This is exactly the convention under which s_i |-> its diagram,
t_j |-> its diagram extends to an algebra embedding (see tests).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial


@dataclass(frozen=True)
class WreathElement:
    m: int
    n: int
    perm: tuple  # perm[i-1] = image of top point i at the bottom (1-based)
    colors: tuple  # colors[i-1] = Z/m label on the strand with top point i

    def __post_init__(self):
        if sorted(self.perm) != list(range(1, self.n + 1)):
            raise ValueError("perm is not a bijection of 1..n")
        if len(self.colors) != self.n or any(not 0 <= c < max(self.m, 1) for c in self.colors):
            raise ValueError("bad colors")

    def to_json(self):
        return {"perm": list(self.perm), "colors": list(self.colors)}


def identity(m, n):
    return WreathElement(m, n, tuple(range(1, n + 1)), (0,) * n)


def gen_s(m, n, i):
    """Transposition (i, i+1), no colors."""
    if not 1 <= i < n:
        raise ValueError("index out of range")
    perm = list(range(1, n + 1))
    perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return WreathElement(m, n, tuple(perm), (0,) * n)


def gen_t(m, n, j):
    """One color unit on strand j."""
    if not 1 <= j <= n:
        raise ValueError("index out of range")
    colors = [0] * n
    colors[j - 1] = 1 % m
    return WreathElement(m, n, tuple(range(1, n + 1)), tuple(colors))


def compose(g, h):
    """Product g*h = diagram of g stacked on top of diagram of h."""
    if (g.m, g.n) != (h.m, h.n):
        raise ValueError("mismatched (m, n)")
    m, n = g.m, g.n
    perm = tuple(h.perm[g.perm[i] - 1] for i in range(n))
    colors = tuple((g.colors[i] + h.colors[g.perm[i] - 1]) % m for i in range(n))
    return WreathElement(m, n, perm, colors)


def inverse(g):
    inv = [0] * g.n
    for i, img in enumerate(g.perm):
        inv[img - 1] = i + 1
    colors = tuple((-g.colors[inv[i] - 1]) % g.m for i in range(g.n))
    return WreathElement(g.m, g.n, tuple(inv), colors)


def group_order(m, n):
    return m ** n * factorial(n)


def enumerate_group(m, n, cap=10 ** 6):
    """All m^n * n! elements, deterministic order."""
    if group_order(m, n) > cap:
        raise ValueError("group order %d exceeds cap %d" % (group_order(m, n), cap))
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        for colors in itertools.product(range(m), repeat=n):
            out.append(WreathElement(m, n, perm, colors))
    return out
