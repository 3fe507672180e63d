"""The cyclotomic Brauer algebra on dotted Brauer diagrams.

A basis diagram on 2n points (top row 1..n, bottom row n+1..2n) is a perfect
matching with a Z/m label per arc.  Label conventions (normal form):

* vertical arc: label counts dots in the top-to-bottom direction;
* horizontal arc: label counts dots adjacent to the left (smaller-index)
  endpoint.

Multiplication stacks x on top of y and traces composite strands.  The sign
rule is geometric: a dot counts +1 when its strand is traversed downward and
-1 upward, so a top-row arc contributes +label when traversed left-to-right,
a bottom-row arc -label, and a vertical arc +label downward.  Each closed
loop is traversed counterclockwise (starting at its leftmost point, heading
into the lower diagram); a loop of net label a is removed against a factor
delta_a.  This pins the rules so that e_i t_i^a e_i = delta_a e_i and
e_i t_i t_{i+1} = e_i hold, which the relation suite verifies exhaustively.

Admissibility.  The defining relations themselves force delta_a = delta_{m-a}
in any associative algebra: e_1 s_1 t_1^a e_1 evaluates to delta_a e_1 via
e_1 s_1 = e_1, but to delta_{m-a} e_1 via s_1 t_1 = t_2 s_1, s_1 e_1 = e_1
and t_2^a e_1 = t_1^{-a} e_1 (the latter from e_1 t_1 t_2 = e_1).  The
diagrammatic source of the ambiguity is the orientation of closed loops that
pass through a crossing: no traversal convention is isotopy invariant for
such loops unless delta_a = delta_{m-a}.  Consequently the product defined
here satisfies all seventeen relations for every m, and is associative
exactly when the loop parameters are *admissible* (delta_a = delta_{m-a} for
all a), which is automatic for m <= 2.  See is_admissible,
associativity_check and associativity_witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .deltapoly import DeltaRing
from .linalg import gauss_rank
from .scalars import CyclotomicField, power
from .wreath import (WreathElement, enumerate_group, gen_s, gen_t,
                     inverse as w_inverse)


@dataclass(frozen=True)
class Diagram:
    """Normal-form dotted Brauer diagram; hashable and immutable."""

    m: int
    n: int
    arcs: tuple  # sorted tuple of (p, q) pairs, p < q, points 1..2n
    labels: tuple  # one Z/m label per arc

    def arc_items(self):
        return zip(self.arcs, self.labels)

    def to_json(self):
        n = self.n

        def pt(p):
            return ["T", p] if p <= n else ["B", p - n]

        return {
            "m": self.m,
            "n": n,
            "arcs": [[pt(p), pt(q)] for p, q in self.arcs],
            "labels": list(self.labels),
        }

    @classmethod
    def from_json(cls, obj):
        n = obj["n"]

        def pt(row, i):
            return i if row == "T" else n + i

        pairs = [tuple(sorted((pt(*a), pt(*b)))) for a, b in obj["arcs"]]
        return make_diagram(obj["m"], n, list(zip(pairs, obj["labels"])))


def make_diagram(m, n, arc_label_pairs):
    """Canonicalize and validate a list of ((p, q), label) pairs."""
    pairs = sorted((tuple(sorted(pq)), lab % m) for pq, lab in arc_label_pairs)
    pts = [p for pq, _ in pairs for p in pq]
    if sorted(pts) != list(range(1, 2 * n + 1)):
        raise ValueError("arcs do not form a perfect matching on 2n points")
    return Diagram(m, n, tuple(pq for pq, _ in pairs), tuple(lab for _, lab in pairs))


def identity_diagram(m, n):
    return make_diagram(m, n, [((i, n + i), 0) for i in range(1, n + 1)])


def generator(m, n, name, i):
    """Generator diagrams: 's' (transposition), 'e' (contraction), 't' (dot)."""
    if name in ("s", "e") and not 1 <= i < n:
        raise ValueError("index out of range")
    if name == "t" and not 1 <= i <= n:
        raise ValueError("index out of range")
    arcs = []
    if name == "s":
        for j in range(1, n + 1):
            if j == i:
                arcs.append(((j, n + i + 1), 0))
            elif j == i + 1:
                arcs.append(((j, n + i), 0))
            else:
                arcs.append(((j, n + j), 0))
    elif name == "e":
        arcs.append(((i, i + 1), 0))
        arcs.append(((n + i, n + i + 1), 0))
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                arcs.append(((j, n + j), 0))
    else:
        for j in range(1, n + 1):
            arcs.append(((j, n + j), 1 % m if j == i else 0))
    return make_diagram(m, n, arcs)


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def basis_size(m, n):
    return m ** n * double_factorial(2 * n - 1)


def enumerate_basis(m, n, cap=10 ** 5):
    """All m^n (2n-1)!! normal-form diagrams, deterministic order."""
    if basis_size(m, n) > cap:
        raise ValueError("basis size %d exceeds cap %d" % (basis_size(m, n), cap))
    out = []

    def matchings(points):
        if not points:
            yield []
            return
        a = points[0]
        for k in range(1, len(points)):
            b = points[k]
            rest = points[1:k] + points[k + 1:]
            for rec in matchings(rest):
                yield [(a, b)] + rec

    for match in matchings(list(range(1, 2 * n + 1))):
        for labels in itertools.product(range(m), repeat=n):
            out.append(make_diagram(m, n, list(zip(match, labels))))
    return out


# ---------------------------------------------------------------------------
# multiplication kernel
# ---------------------------------------------------------------------------

def multiply_diagrams(x, y):
    """Product of two basis diagrams: (normal-form diagram, loop labels).

    The product of basis diagrams is always a single basis diagram times
    prod_a delta_{loop label a}; the second return value lists the loop
    labels (sorted).
    """
    if (x.m, x.n) != (y.m, y.n):
        raise ValueError("mismatched (m, n)")
    m = x.m
    arcs, loops = compose_strands(x.n, x.arc_items(), y.arc_items())
    return (make_diagram(m, x.n, arcs),
            tuple(sorted(acc % m for acc in loops)))


def compose_strands(n, x_items, y_items):
    """Stack x on top of y and trace every composite strand.

    ``x_items``/``y_items`` are the ((p, q), label) arcs of the two factors.
    Labels only need ``+`` and unary ``-``: integers give the product of two
    diagrams, and vectors of coefficients give each output label as a signed
    linear form in the input labels (never updated in place, so array
    labels may be shared).  Returns (arcs, loops): the output arcs
    as ((p, q), label) in no particular order and the closed-loop labels,
    all before reduction mod m.
    """
    # adjacency with traversal signs; mid row = x bottom = y top
    x_top = {}       # top point -> (other top point, label)  [terminal]
    x_vert_t = {}    # top -> (mid, +label)
    x_vert_m = {}    # mid -> (top, -label)
    x_step = {}      # mid -> (mid', signed label)  crossing an x bottom arc
    for (p, q), lab in x_items:
        if q <= n:
            x_top[p] = (q, lab)
            x_top[q] = (p, lab)
        elif p <= n:
            x_vert_t[p] = (q - n, lab)
            x_vert_m[q - n] = (p, -lab)
        else:
            a, b = p - n, q - n
            x_step[a] = (b, -lab)
            x_step[b] = (a, lab)

    y_bot = {}       # bottom point (1..n) -> (other, label)  [terminal]
    y_vert_m = {}    # mid -> (bottom, +label)
    y_vert_b = {}    # bottom -> (mid, -label)
    y_step = {}      # mid -> (mid', signed label)  crossing a y top arc
    for (p, q), lab in y_items:
        if q <= n:
            a, b = p, q
            y_step[a] = (b, lab)
            y_step[b] = (a, -lab)
        elif p <= n:
            y_vert_m[p] = (q - n, lab)
            y_vert_b[q - n] = (p, -lab)
        else:
            y_bot[p - n] = (q - n, lab)
            y_bot[q - n] = (p - n, lab)

    arcs = []
    used_mid = set()

    # arcs entirely inside one layer
    done_top = set()
    for p, (q, lab) in x_top.items():
        if p < q:
            arcs.append(((p, q), lab))
        done_top.add(p)
    done_bot = set()
    for p, (q, lab) in y_bot.items():
        if p < q:
            arcs.append(((n + p, n + q), lab))
        done_bot.add(p)

    def walk_from_mid(mid, layer, acc):
        """Follow the composite strand from a mid point about to enter
        ``layer`` ('x' or 'y'); returns (end kind, end point, acc)."""
        while True:
            used_mid.add(mid)
            if layer == "y":
                if mid in y_vert_m:
                    b, lab = y_vert_m[mid]
                    return "bot", b, acc + lab
                mid2, slab = y_step[mid]
                used_mid.add(mid2)
                acc = acc + slab
                mid = mid2
                layer = "x"
            else:
                if mid in x_vert_m:
                    t, lab = x_vert_m[mid]
                    return "top", t, acc + lab
                mid2, slab = x_step[mid]
                used_mid.add(mid2)
                acc = acc + slab
                mid = mid2
                layer = "y"

    # strands touching the composite top row
    for p in range(1, n + 1):
        if p in done_top:
            continue
        mid, lab = x_vert_t[p]
        kind, end, acc = walk_from_mid(mid, "y", lab)
        if kind == "bot":
            arcs.append(((p, n + end), acc))
        else:
            done_top.add(end)
            arcs.append(((p, end), acc))
            # traversal started at the smaller endpoint p, matching the
            # left-endpoint storage convention for top arcs

    # strands connecting two bottom points through the middle
    seen_bot = set(done_bot)
    for (p, q), _ in arcs:
        if p > n:
            seen_bot.add(p - n)
        if q > n:
            seen_bot.add(q - n)
    for b in range(1, n + 1):
        if b in seen_bot:
            continue
        mid, lab = y_vert_b[b]
        kind, end, acc = walk_from_mid(mid, "x", lab)
        assert kind == "bot"
        seen_bot.add(end)
        # bottom arcs store the label of the right-to-left traversal
        arcs.append(((n + b, n + end), -acc))

    # closed loops among the remaining mid points
    loops = []
    for start in range(1, n + 1):
        if start in used_mid or start not in x_step or start not in y_step:
            continue
        # leftmost-in-its-loop check: walk it once marking points
        loop_pts = [start]
        mid, acc = y_step[start]
        cur, layer = mid, "x"
        while cur != start:
            loop_pts.append(cur)
            if layer == "x":
                nxt, slab = x_step[cur]
            else:
                nxt, slab = y_step[cur]
            acc = acc + slab
            cur, layer = nxt, ("y" if layer == "x" else "x")
        if min(loop_pts) != start:
            continue  # will be handled from its leftmost point
        used_mid.update(loop_pts)
        loops.append(acc)

    # any loop whose leftmost point was skipped above is impossible: starts
    # iterate ascending, so the leftmost point comes first
    return arcs, loops


def star_diagram(d):
    """The anti-involution *: flip top and bottom; all labels carried along."""
    n = d.n
    arcs = []
    for (p, q), lab in d.arc_items():
        p2 = p + n if p <= n else p - n
        q2 = q + n if q <= n else q - n
        arcs.append((tuple(sorted((p2, q2))), lab))
    return make_diagram(d.m, n, arcs)


# ---------------------------------------------------------------------------
# parenthesis decomposition  D = alpha (x) w (x) beta
# ---------------------------------------------------------------------------

def to_awb(d):
    """Split a basis diagram into (top arcs, wreath element, bottom arcs).

    Top and bottom arcs are lists of (i, j, label) with 1-based row-local
    indices; the wreath element lives in W_{m, n-2k} on the free points.
    """
    n = d.n
    tops, bots, verts = [], [], []
    for (p, q), lab in d.arc_items():
        if q <= n:
            tops.append((p, q, lab))
        elif p <= n:
            verts.append((p, q - n, lab))
        else:
            bots.append((p - n, q - n, lab))
    free_top = sorted(set(range(1, n + 1)) - {i for a in tops for i in a[:2]})
    free_bot = sorted(set(range(1, n + 1)) - {i for a in bots for i in a[:2]})
    pos_bot = {pt: k + 1 for k, pt in enumerate(free_bot)}
    perm = [0] * len(free_top)
    colors = [0] * len(free_top)
    for k, pt in enumerate(free_top):
        for t, b, lab in verts:
            if t == pt:
                perm[k] = pos_bot[b]
                colors[k] = lab
                break
    w = WreathElement(d.m, len(free_top), tuple(perm), tuple(colors))
    return tops, w, bots


def from_awb(m, n, tops, w, bots):
    """Assemble a basis diagram from its parenthesis decomposition."""
    arcs = [((i, j), lab) for i, j, lab in tops]
    arcs += [((n + i, n + j), lab) for i, j, lab in bots]
    free_top = sorted(set(range(1, n + 1)) - {i for a in tops for i in a[:2]})
    free_bot = sorted(set(range(1, n + 1)) - {i for a in bots for i in a[:2]})
    for k, pt in enumerate(free_top):
        arcs.append(((pt, n + free_bot[w.perm[k] - 1]), w.colors[k]))
    return make_diagram(m, n, arcs)


def iota_diagram(d):
    """The linear map iota on basis diagrams: alpha (x) w (x) beta maps to
    tilde(beta) (x) w^{-1} (x) tilde(alpha), where tilde negates every
    horizontal-arc label mod m.  Not an algebra (anti-)homomorphism."""
    tops, w, bots = to_awb(d)
    m = d.m
    new_tops = [(i, j, (-lab) % m) for i, j, lab in bots]
    new_bots = [(i, j, (-lab) % m) for i, j, lab in tops]
    return from_awb(m, d.n, new_tops, w_inverse(w), new_bots)


def wreath_to_diagram(w):
    """Embed a wreath element as a dot-free-extrema (all vertical) diagram."""
    n = w.n
    arcs = [((i, n + w.perm[i - 1]), w.colors[i - 1]) for i in range(1, n + 1)]
    return make_diagram(w.m, n, arcs)


# ---------------------------------------------------------------------------
# algebra elements
# ---------------------------------------------------------------------------

class NumericParams:
    """Loop parameters delta_0..delta_{m-1} as field elements."""

    def __init__(self, field, deltas):
        self.field = field
        self.deltas = [field.coerce(d) for d in deltas]
        self.m = len(deltas)
        self.one = field.one
        self.zero = field.zero

    def delta(self, a):
        return self.deltas[a % self.m]


class SymbolicParams:
    """Loop parameters as polynomial generators.

    With symmetric=True the generators for delta_a and delta_{m-a} are
    identified, i.e. the parameters are generic on the admissible locus
    (the largest locus where the diagram product is associative)."""

    def __init__(self, m, field=None, symmetric=False):
        self.ring = DeltaRing(field or CyclotomicField(1), m)
        self.field = self.ring.field
        self.m = m
        self.symmetric = symmetric
        self.one = self.ring.one
        self.zero = self.ring.zero

    def delta(self, a):
        a = a % self.m
        if self.symmetric:
            a = min(a, self.m - a) if a else 0
        return self.ring.delta(a)


class AlgebraElement:
    """Sparse linear combination of basis diagrams with scalar or symbolic
    coefficients; zero coefficients are never stored."""

    __slots__ = ("m", "n", "params", "terms")

    def __init__(self, m, n, params, terms):
        self.m = m
        self.n = n
        self.params = params
        self.terms = {d: c for d, c in terms.items() if c}

    @classmethod
    def of(cls, params, diagram, coeff=None):
        c = params.one if coeff is None else coeff
        return cls(diagram.m, diagram.n, params, {diagram: c})

    def _check(self, other):
        if (self.m, self.n) != (other.m, other.n) or self.params is not other.params:
            raise ValueError("mismatched algebras")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for d, c in other.terms.items():
            s = terms.get(d)
            terms[d] = c if s is None else s + c
        return AlgebraElement(self.m, self.n, self.params, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgebraElement(self.m, self.n, self.params,
                              {d: -c for d, c in self.terms.items()})

    def scale(self, scalar):
        return AlgebraElement(self.m, self.n, self.params,
                              {d: c * scalar for d, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        self._check(other)
        params = self.params
        terms = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                prod, loops = multiply_diagrams(d1, d2)
                c = c1 * c2
                for a in loops:
                    c = c * params.delta(a)
                if not c:
                    continue
                s = terms.get(prod)
                terms[prod] = c if s is None else s + c
        return AlgebraElement(self.m, self.n, params, terms)

    def __pow__(self, k):
        return power(self, k, AlgebraElement.of(
            self.params, identity_diagram(self.m, self.n)))

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and self.terms == other.terms

    def star(self):
        return AlgebraElement(self.m, self.n, self.params,
                              {star_diagram(d): c for d, c in self.terms.items()})

    def iota(self):
        return AlgebraElement(self.m, self.n, self.params,
                              {iota_diagram(d): c for d, c in self.terms.items()})

    def coefficient(self, diagram):
        return self.terms.get(diagram, self.params.zero)

    def __repr__(self):
        return "AlgebraElement(m=%d, n=%d, %d terms)" % (self.m, self.n, len(self.terms))


class DiagramAlgebra:
    """Convenience handle bundling (m, n, params)."""

    def __init__(self, m, n, params):
        self.m = m
        self.n = n
        self.params = params

    def element(self, diagram, coeff=None):
        return AlgebraElement.of(self.params, diagram, coeff)

    def one(self):
        return self.element(identity_diagram(self.m, self.n))

    def s(self, i):
        return self.element(generator(self.m, self.n, "s", i))

    def e(self, i):
        return self.element(generator(self.m, self.n, "e", i))

    def t(self, i):
        return self.element(generator(self.m, self.n, "t", i))

    def embed_wreath(self, w):
        return self.element(wreath_to_diagram(w))


def symbolic_algebra(m, n, field=None, symmetric=False):
    return DiagramAlgebra(m, n, SymbolicParams(m, field, symmetric=symmetric))


def verify_prop_eta(m):
    """Verify the explicit degree-2 eigenvector decomposition inside the
    group algebra of G(m,1,2) over Q(zeta_m), embedded in B_{m,2} as the
    all-vertical diagrams (which multiply without closing loops).

    Builds v_i = prod_{j != i}(t_1 - u_j) * prod_{j != m-i}(t_2 - u_j) * (1 + s_1)
    with u_j = zeta^j and checks rank and all five action equations.  Returns
    a report dict with an overall "ok" flag and per-check failures.
    """
    if m < 2:
        raise ValueError("m >= 2 required")
    field = CyclotomicField(m)
    alg = DiagramAlgebra(m, 2, NumericParams(field, [0] * m))
    z = field.zeta
    u = {j: z ** j for j in range(1, m + 1)}
    one = alg.one()
    t1 = alg.embed_wreath(gen_t(m, 2, 1))
    t2 = alg.embed_wreath(gen_t(m, 2, 2))
    s1 = alg.embed_wreath(gen_s(m, 2, 1))

    vs = {}
    for i in range(1, m + 1):
        v = one + s1
        for j in range(1, m + 1):
            if j != i:
                v = (t1 - one.scale(u[j])) * v
        for j in range(1, m + 1):
            if j % m != (m - i) % m:
                v = (t2 - one.scale(u[j])) * v
        vs[i] = v

    failures = []
    # (a) rank m
    group = [wreath_to_diagram(g) for g in enumerate_group(m, 2)]
    rank = gauss_rank([[vs[i].coefficient(d) for d in group]
                       for i in range(1, m + 1)])
    if rank != m:
        failures.append({"check": "rank", "got": rank, "want": m})
    # (b) s_1 v_m = v_m, t_1 v_m = v_m
    if s1 * vs[m] != vs[m]:
        failures.append({"check": "s1-fixes-vm"})
    if t1 * vs[m] != vs[m]:
        failures.append({"check": "t1-fixes-vm"})
    # (c) t_1 v_j = u_j v_j
    for j in range(1, m + 1):
        if t1 * vs[j] != vs[j].scale(u[j]):
            failures.append({"check": "t1-eigen", "i": j})
    # (d) s_1 v_i = v_{m-i} for i != m, m/2
    for i in range(1, m):
        if m % 2 == 0 and i == m // 2:
            continue
        if s1 * vs[i] != vs[m - i]:
            failures.append({"check": "s1-swap", "i": i})
    # (e) 2|m: s_1 v_{m/2} = v_{m/2}
    if m % 2 == 0:
        if s1 * vs[m // 2] != vs[m // 2]:
            failures.append({"check": "s1-fixes-half"})
    return {"m": m, "rank": rank, "ok": not failures, "failures": failures}


# ---------------------------------------------------------------------------
# relation suite
# ---------------------------------------------------------------------------

def verify_relations(m, n):
    """Evaluate every instance of the 17 defining relations; returns a list
    of {"relation", "indices", "ok"} dicts (failures included, never raised)."""
    alg = symbolic_algebra(m, n)
    one = alg.one()
    d0 = alg.params.delta(0)
    results = []

    def check(relid, indices, lhs, rhs):
        results.append({"relation": relid, "indices": indices, "ok": lhs == rhs})

    for i in range(1, n):
        check(1, (i,), alg.s(i) * alg.s(i), one)
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) > 1:
                check(2, (i, j), alg.s(i) * alg.s(j), alg.s(j) * alg.s(i))
    for i in range(1, n - 1):
        check(3, (i,), alg.s(i) * alg.s(i + 1) * alg.s(i),
              alg.s(i + 1) * alg.s(i) * alg.s(i + 1))
    for i in range(1, n):
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                check(4, (i, j), alg.s(i) * alg.t(j), alg.t(j) * alg.s(i))
    for i in range(1, n):
        check(5, (i,), alg.e(i) * alg.e(i), alg.e(i).scale(d0))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) > 1:
                check(6, (i, j), alg.s(i) * alg.e(j), alg.e(j) * alg.s(i))
                check(7, (i, j), alg.e(i) * alg.e(j), alg.e(j) * alg.e(i))
    for i in range(1, n):
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                check(8, (i, j), alg.e(i) * alg.t(j), alg.t(j) * alg.e(i))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            check(9, (i, j), alg.t(i) * alg.t(j), alg.t(j) * alg.t(i))
    for i in range(1, n):
        check(10, (i,), alg.s(i) * alg.t(i), alg.t(i + 1) * alg.s(i))
    for i in range(1, n):
        check(11, (i,), alg.e(i) * alg.s(i), alg.e(i))
        check(11, (i,), alg.s(i) * alg.e(i), alg.e(i))
    for i in range(1, n - 1):
        check(12, (i,), alg.s(i) * alg.e(i + 1) * alg.e(i), alg.s(i + 1) * alg.e(i))
        check(13, (i,), alg.e(i + 1) * alg.e(i) * alg.s(i + 1), alg.e(i + 1) * alg.s(i))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) == 1:
                check(14, (i, j), alg.e(i) * alg.e(j) * alg.e(i), alg.e(i))
    for i in range(1, n):
        check(15, (i,), alg.e(i) * alg.t(i) * alg.t(i + 1), alg.e(i))
        check(15, (i,), alg.t(i) * alg.t(i + 1) * alg.e(i), alg.e(i))
    for i in range(1, n):
        for a in range(1, m):
            check(16, (i, a), alg.e(i) * alg.t(i) ** a * alg.e(i),
                  alg.e(i).scale(alg.params.delta(a)))
    for i in range(1, n + 1):
        check(17, (i,), alg.t(i) ** m, one)
    return results


# ---------------------------------------------------------------------------
# admissibility and associativity
# ---------------------------------------------------------------------------

def deltas_admissible(deltas):
    """Whether delta_a = delta_{m-a} for all a; on this locus (and only
    there, once m >= 3) the diagram product is associative, so a trace-form
    radical is only algebra-theoretically meaningful there."""
    m = len(deltas)
    return all(deltas[a] == deltas[m - a] for a in range(1, m))


def is_admissible(params):
    """deltas_admissible for numeric or symbolic loop parameters."""
    return deltas_admissible([params.delta(a) for a in range(params.m)])


def associativity_check(m, n, params=None, trials=1000, seed=0):
    """Sample random basis-diagram triples and compare (ab)c with a(bc).

    Default parameters are symmetric symbolic ones (generic admissible
    point).  Returns a report dict; failures list the offending triples."""
    import random

    if params is None:
        params = SymbolicParams(m, symmetric=True)
    alg = DiagramAlgebra(m, n, params)
    basis = enumerate_basis(m, n)
    rng = random.Random(seed)
    failures = []
    for _ in range(trials):
        a, b, c = (rng.choice(basis) for _ in range(3))
        x, y = alg.element(a), alg.element(b)
        z = alg.element(c)
        if (x * y) * z != x * (y * z):
            failures.append((a, b, c))
    return {"m": m, "n": n, "trials": trials, "seed": seed,
            "admissible": is_admissible(params),
            "failures": len(failures), "ok": not failures,
            "witnesses": failures[:3]}


def associativity_witness(m):
    """For m >= 3, an explicit triple (a, b, c) of basis diagrams at n = 2
    with (ab)c = delta_1 e_1 but a(bc) = delta_{m-1} e_1 under independent
    parameters, exhibiting why associativity requires delta_a = delta_{m-a}.
    Returns None for m <= 2, where the two parameters coincide."""
    if m <= 2:
        return None
    a = generator(m, 2, "e", 1)
    b = generator(m, 2, "s", 1)
    c = make_diagram(m, 2, [((1, 2), 1), ((3, 4), 0)])
    alg = symbolic_algebra(m, 2)
    x, y, z = (alg.element(d) for d in (a, b, c))
    return {"triple": (a, b, c), "left": (x * y) * z, "right": x * (y * z)}
