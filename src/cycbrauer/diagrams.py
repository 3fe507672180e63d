"""The cyclotomic Brauer algebra on dotted Brauer diagrams.

A basis diagram on 2n points (top row 1..n, bottom row n+1..2n) is a perfect
matching with a Z/m label per arc.  Label conventions (normal form):

* vertical arc: label counts dots in the top-to-bottom direction;
* horizontal arc: label counts dots adjacent to the left (smaller-index)
  endpoint.

Multiplication stacks x on top of y and traces composite strands, summing
arc labels under the one sign rule stated in compose_strands; a closed loop
of net label a is removed against a factor delta_a.  This pins the rules
so that e_i t_i^a e_i = delta_a e_i and e_i t_i t_{i+1} = e_i hold, which
the relation suite verifies exhaustively.

All-pairs products.  multiply_all traces each pair of skeletons (unlabelled
arcs) once, by compose_strands on unit-vector labels, which gives every
output arc and loop label as a signed linear form in the 2n input labels;
one integer product mod m per skeleton of the left list labels all pairs.

Involutions.  star flips a diagram top to bottom and keeps every label;
iota = star o (negate every label), see iota_diagram.  The Gram forms in
gram pair half diagrams through these two maps.

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

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .deltapoly import LinearCombination, SymbolicParams
from .linalg import gauss_rank
from .scalars import CyclotomicField
from .wreath import enumerate_group, gen_s, gen_t, identity


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


def make_diagram(m, n, arc_label_pairs):
    """Canonicalize and validate a list of ((p, q), label) pairs."""
    pairs = sorted((tuple(sorted(pq)), lab % m) for pq, lab in arc_label_pairs)
    pts = [p for pq, _ in pairs for p in pq]
    if sorted(pts) != list(range(1, 2 * n + 1)):
        raise ValueError("arcs do not form a perfect matching on 2n points")
    return Diagram(m, n, tuple(pq for pq, _ in pairs), tuple(lab for _, lab in pairs))


def identity_diagram(m, n):
    return wreath_to_diagram(identity(m, n))


def generator(m, n, name, i):
    """Generator diagrams: 's' (transposition) and 't' (dot) embed the
    generators of G(m,1,n); 'e' (contraction) caps strands i, i+1 at the
    top and the bottom."""
    if name == "e":
        if not 1 <= i < n:
            raise ValueError("index out of range")
        cap = [(i, i + 1, 0)]
        return from_awb(m, n, cap, identity(m, n - 2), cap)
    if name not in ("s", "t"):
        raise ValueError("unknown generator %r" % name)
    return wreath_to_diagram((gen_s if name == "s" else gen_t)(m, n, i))


def double_factorial(k):
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def basis_size(m, n):
    return m ** n * double_factorial(2 * n - 1)


def enumerate_basis(m, n):
    """All m^n (2n-1)!! normal-form diagrams, deterministic order; refused
    above 10^5 of them."""
    if basis_size(m, n) > 10 ** 5:
        raise ValueError("basis size %d exceeds cap %d"
                         % (basis_size(m, n), 10 ** 5))
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

    # matchings yields arcs (p, q), p < q, in increasing p: the normal form
    for match in matchings(list(range(1, 2 * n + 1))):
        arcs = tuple(match)
        out.extend(Diagram(m, n, arcs, labels)
                   for labels in itertools.product(range(m), repeat=n))
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
    # compose_strands emits each arc once as (p, q), p < q, in increasing p:
    # already the normal form, so make_diagram's checks are skipped
    return (Diagram(m, x.n, tuple(pq for pq, _ in arcs),
                    tuple(lab % m for _, lab in arcs)),
            tuple(sorted(acc % m for acc in loops)))


def compose_strands(n, x_items, y_items):
    """Stack x on top of y and trace every composite strand.

    Points: x's top row is 1..n, the middle row n+1..2n is x's bottom and
    y's top, and y's bottom row is 2n+1..3n.  ``x_items``/``y_items`` are
    the ((p, q), label) arcs of the two factors, p < q in the factor's own
    numbering.  The one sign rule: traversed p -> q an arc counts +label,
    except an arc in its factor's bottom row (p > n), which counts -label;
    the reverse traversal counts the negation.  Labels only need ``+`` and
    unary ``-``: integers give the product of two diagrams, and vectors of
    coefficients give each output label as a signed linear form in the
    input labels (never updated in place, so array labels may be shared).

    Returns (arcs, loops), all labels before reduction mod m: the output
    arcs as ((p, q), label) in the 1..2n numbering of the product, and the
    closed-loop labels.  A strand from the top row counts from its smaller
    endpoint, one between bottom points stores the label of its
    right-to-left traversal, and a loop starts at its smallest middle point
    and enters y first.
    """
    x, y = {}, {}  # per factor: point -> (next point, signed label)
    for step, items, off in ((x, x_items, 0), (y, y_items, n)):
        for (p, q), lab in items:
            fwd, back = (-lab, lab) if p > n else (lab, -lab)
            step[p + off] = (q + off, fwd)
            step[q + off] = (p + off, back)
    last = 2 * n  # the middle row is n + 1..last
    seen = set()

    def walk(start, step, other):
        """Follow the strand leaving ``start`` through the factor whose map
        is ``step`` until it leaves the middle row or closes: (end, label)."""
        p, acc = step[start]
        seen.add(start)
        seen.add(p)
        while n < p <= last and p != start:
            step, other = other, step
            p, lab = step[p]
            acc = acc + lab
            seen.add(p)
        return p, acc

    arcs = []
    for start in range(1, n + 1):
        if start not in seen:
            end, acc = walk(start, x, y)
            arcs.append(((start, end if end <= n else end - n), acc))
    for start in range(last + 1, last + n + 1):
        if start not in seen:
            end, acc = walk(start, y, x)
            arcs.append(((start - n, end - n), -acc))
    loops = [walk(start, y, x)[1] for start in range(n + 1, last + 1)
             if start not in seen]
    return arcs, loops


def basis_index(d):
    """Position of d in enumerate_basis(d.m, d.n): skeletons (unlabelled
    arcs) in lexicographic order of their sorted arcs, then labellings as
    base-m numbers, first arc most significant."""
    points, k = list(range(1, 2 * d.n + 1)), 0
    for p, q in d.arcs:  # p is the smallest point left
        points.remove(p)
        k = k * len(points) + points.index(q)
        points.remove(q)
    return functools.reduce(lambda k, lab: k * d.m + lab, d.labels, k)


def multiply_all(xs, ys):
    """Every product x * y of two non-empty lists of basis diagrams of one
    (m, n), as (out, loops): out, int32 of shape (len(xs), len(ys), 2),
    holds at (i, j) the basis_index of the product diagram of xs[i] * ys[j]
    and the index in loops of the tuple of its sorted loop labels."""
    (m, n), = {(d.m, d.n) for d in itertools.chain(xs, ys)}  # else ValueError
    if basis_size(m, n) >= 2 ** 31:
        raise ValueError("basis indices exceed int32")
    x_arcs, y_arcs = {}, {}  # distinct skeletons, numbered
    x_of, y_of = (np.array([arcs.setdefault(d.arcs, len(arcs)) for d in ds])
                  for arcs, ds in ((x_arcs, xs), (y_arcs, ys)))
    x_labels, y_labels = (np.array([d.labels for d in ds], dtype=float)
                          .reshape(len(ds), n) for ds in (xs, ys))
    unit = np.eye(2 * n)  # float64, so that the label products run in BLAS
    slots = n // 2  # a loop uses at least two middle points
    place, code_of = m ** np.arange(n - 1, -1, -1), (m + 1) ** np.arange(slots)
    residue = np.arange(-2 * n * m, 2 * n * m) % m
    out = np.empty((len(xs), len(ys), 2), dtype=np.int32)

    @functools.cache
    def first(skeleton):  # basis_index of its zero labelling
        return basis_index(Diagram(m, n, skeleton, (0,) * n))

    for sx, ax in enumerate(x_arcs):
        # per skeleton of ys: n output-arc forms, then the loop forms (never
        # zero: a loop runs through an arc at most once) padded with zeros
        forms = np.zeros((len(y_arcs), n + slots, 2 * n))
        base = np.empty(len(y_arcs), dtype=np.int64)
        for sy, ay in enumerate(y_arcs):
            arcs, closed = compose_strands(n, zip(ax, unit[:n]),
                                           zip(ay, unit[n:]))
            base[sy] = first(tuple(pq for pq, _ in arcs))
            forms[sy, :n + len(closed)] = [form for _, form in arcs] + closed
        rows = np.flatnonzero(x_of == sx)
        f = forms[y_of]  # (len(ys), n + slots, 2n)
        values = residue[2 * n * m + (  # v mod m, |v| < 2nm
            np.tensordot(x_labels[rows], f[:, :, :n], axes=(1, 2))
            + np.einsum("jkc,jc->jk", f[:, :, n:], y_labels)).astype(np.int64)]
        shifted = np.where(f[:, n:].any(axis=2), values[:, :, n:] + 1, 0)
        out[rows, :, 0] = base[y_of] + values[:, :, :n] @ place
        out[rows, :, 1] = np.sort(shifted, axis=2) @ code_of
    # number the loop codes that occur, in increasing order
    seen = np.zeros((m + 1) ** slots, dtype=bool)
    seen[out[..., 1]] = True
    out[..., 1] = (np.cumsum(seen, dtype=np.int32) - 1)[out[..., 1]]
    digits = np.flatnonzero(seen)[:, None] // code_of % (m + 1)
    return out, [tuple(d - 1 for d in row if d) for row in digits.tolist()]


def star_diagram(d):
    """The anti-involution *: flip top and bottom; all labels carried along."""
    n = d.n
    arcs = []
    for (p, q), lab in d.arc_items():
        p2 = p + n if p <= n else p - n
        q2 = q + n if q <= n else q - n
        arcs.append((tuple(sorted((p2, q2))), lab))
    return make_diagram(d.m, n, arcs)


def basis_involutions(basis):
    """star_diagram and the negation of every label as permutations of
    basis = enumerate_basis(m, n): two int arrays holding at k the
    basis_index of the image of basis[k].

    Each skeleton is starred once, labelled by its arc positions (kept
    apart mod n), which gives the skeleton of the image and where each
    label goes; the labellings then follow as base-m digits.
    """
    m, n = basis[0].m, basis[0].n
    size = m ** n
    skeletons = [d.arcs for d in basis[::size]]
    first = {arcs: s * size for s, arcs in enumerate(skeletons)}
    images = [star_diagram(Diagram(n, n, arcs, tuple(range(n))))
              for arcs in skeletons]
    start = np.array([first[d.arcs] for d in images])
    moves = np.array([d.labels for d in images],
                     dtype=np.intp).reshape(len(images), n)
    skeleton, number = np.divmod(np.arange(len(skeletons) * size), size)
    place = m ** np.arange(n - 1, -1, -1)
    digits = number[:, None] // place % m  # digit r labels arc r
    star = start[skeleton] + np.take_along_axis(
        digits, moves[skeleton], axis=1) @ place
    return star, skeleton * size + (-digits % m) @ place


# ---------------------------------------------------------------------------
# parenthesis decomposition  D = alpha (x) w (x) beta
# ---------------------------------------------------------------------------

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
    horizontal-arc label mod m.  star turns the strands of w over with
    their labels kept, which is w^{-1} with every label negated, so iota is
    star with every label negated.  Not an algebra (anti-)homomorphism."""
    m = d.m
    return star_diagram(Diagram(m, d.n, d.arcs,
                                tuple(-lab % m for lab in d.labels)))


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


def times_loops(params, c, loops):
    """c times delta_a for each closed loop of label a."""
    for a in loops:
        c = c * params.delta(a)
    return c


class AlgebraElement(LinearCombination):
    """Element of a DiagramAlgebra: basis diagrams to coefficients, field
    elements or delta polynomials as the algebra's params give them."""

    __slots__ = ()

    def scale(self, scalar):
        return AlgebraElement(self.ring, {d: c * scalar
                                          for d, c in self.terms.items()}
                              if scalar else {})

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        params = self.ring.params

        def products():
            for d1, c1 in self.terms.items():
                for d2, c2 in o.terms.items():
                    d, loops = multiply_diagrams(d1, d2)
                    yield d, times_loops(params, c1 * c2, loops)

        return self._collect(products())

    def star(self):
        return AlgebraElement(self.ring, {star_diagram(d): c
                                          for d, c in self.terms.items()})

    def iota(self):
        return AlgebraElement(self.ring, {iota_diagram(d): c
                                          for d, c in self.terms.items()})

    def coefficient(self, diagram):
        return self.terms.get(diagram, self.ring.params.zero)

    def __repr__(self):
        return "AlgebraElement(m=%d, n=%d, %d terms)" % (
            self.ring.m, self.ring.n, len(self.terms))


class DiagramAlgebra:
    """B_{m,n} over the loop parameters ``params``: the ring of its
    AlgebraElements, with the identity ``one``."""

    def __init__(self, m, n, params):
        self.m = m
        self.n = n
        self.params = params
        self.one = self.element(identity_diagram(m, n))

    def element(self, diagram, coeff=None):
        """``coeff`` (default 1) times the basis diagram."""
        c = self.params.one if coeff is None else coeff
        return AlgebraElement(self, {diagram: c} if c else {})

    def s(self, i):
        return self.element(generator(self.m, self.n, "s", i))

    def e(self, i):
        return self.element(generator(self.m, self.n, "e", i))

    def t(self, i):
        return self.element(generator(self.m, self.n, "t", i))

    def embed_wreath(self, w):
        return self.element(wreath_to_diagram(w))


def symbolic_algebra(m, n):
    return DiagramAlgebra(m, n, SymbolicParams(m))


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
    one = alg.one
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
    one = alg.one
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

OFF_LOCUS_NOTE = ("parameters off the admissible locus delta_a = delta_{m-a}: "
                  "the product is not associative there, so the verdict is "
                  "relative to the pinned composition rule")


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
