"""The cyclotomic Brauer algebra on dotted Brauer diagrams.

A basis diagram on 2n points (top row 1..n, bottom row n+1..2n) is a perfect
matching with a Z/m label per arc.  Label conventions (normal form):

* vertical arc: label counts dots in the top-to-bottom direction;
* horizontal arc: label counts dots adjacent to the left (smaller-index)
  endpoint.

Multiplication stacks x on top of y and traces composite strands, summing
arc labels under one sign rule: traversed p -> q (p < q in its factor) an
arc counts +label, except an arc in its factor's bottom row, which counts
-label, and the reverse traversal counts the negation.  A strand from the
top row stores the label walked from its smaller end, one between bottom
points the label walked from its larger end, and a closed loop, walked
from its smallest middle point into y first, is removed against a factor
delta_a of its net label a.  This pins the rules so that
e_i t_i^a e_i = delta_a e_i and e_i t_i t_{i+1} = e_i hold, which the
relation suite verifies exhaustively.

All-pairs products.  multiply_all composes every pair of skeletons
(unlabelled arcs) at once by array gathers (_compose_skeletons), which
places each input arc on one output arc or loop with a sign.  Each label
of a product is then an x part plus a y part, each reduced mod m; packed so
that the two add without carries, lookups in small tables, a group of
digits at a time, give its index and its loops.  multiply_diagrams is the
one-pair call.

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
    """All m^n (2n-1)!! normal-form diagrams in basis_index order: skeleton
    s (_skeleton_arcs(n, s)) for s in turn, each with its labellings as
    base-m numbers; refused above 10^5 of them."""
    if basis_size(m, n) > 10 ** 5:
        raise ValueError("basis size %d exceeds cap %d"
                         % (basis_size(m, n), 10 ** 5))
    return [Diagram(m, n, _skeleton_arcs(n, s), labels)
            for s in range(double_factorial(2 * n - 1))
            for labels in itertools.product(range(m), repeat=n)]


# ---------------------------------------------------------------------------
# multiplication kernel
# ---------------------------------------------------------------------------

def multiply_diagrams(x, y):
    """Product of two basis diagrams: (normal-form diagram, loop labels).

    The product of basis diagrams is always a single basis diagram times
    prod_a delta_{loop label a}; the second return value lists the loop
    labels (sorted).  The one-pair call of multiply_all.
    """
    out, loops = multiply_all([x], [y])
    k, u = out[0, 0].tolist()
    return basis_diagram(x.m, x.n, k), loops[u]


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


def basis_diagram(m, n, k):
    """The diagram at position k of enumerate_basis(m, n): basis_index
    inverted."""
    k, number = divmod(k, m ** n)
    labels = []
    for _ in range(n):
        number, lab = divmod(number, m)
        labels.append(lab)
    return Diagram(m, n, _skeleton_arcs(n, k), tuple(reversed(labels)))


@functools.lru_cache(maxsize=1 << 12)
def _skeleton_arcs(n, k):
    """The arcs of the k-th skeleton of enumerate_basis at n."""
    digits = []
    for size in range(1, 2 * n, 2):  # the last arc's digit first
        k, q = divmod(k, size)
        digits.append(q)
    points, arcs = list(range(1, 2 * n + 1)), []
    for q in reversed(digits):
        arcs.append((points.pop(0), points.pop(q)))
    return tuple(arcs)


_BLOCK = 1 << 16  # array entries per pass: bounds the kernel's temporaries
_TABLE = 1 << 12  # entries per label lookup table where the digits allow


@functools.cache
def _walk(n):
    """Constants of _compose_skeletons at n: per factor (x, then y) the
    departure node of each of its points and the node that arriving there
    leads to; the pointer-doubling rounds (2^rounds >= 2n, the most arcs on
    one strand); the mixed radix of the skeleton numbers, the constant and
    the inversion weights of basis_index; the strictly triangular blocks
    that rank the output arcs and the loops."""
    two, four = 2 * n, 4 * n
    a = np.arange(two)
    middle = four + 2 * (a - n)  # departing from middle point a - n into y
    below = np.arange(n) < np.arange(n)[:, None]  # r' < r at [r, r']
    radix = np.array([double_factorial(two - 2 * r - 3) for r in range(n)],
                     dtype=np.int64)
    before = np.zeros((3 * n, 3 * n), dtype=np.int64)
    before[:two, :two] = np.triu(np.ones((two, two)), 1)
    before[two:, two:] = np.triu(np.ones((n, n)), 1)
    return (np.array([np.where(a < n, two + a, middle + 1),
                      np.where(a < n, four + 2 * a, two + a)]),
            np.array([np.where(a < n, a, middle),
                      np.where(a < n, four + 2 * a + 1, a)]),
            max(1, (two - 1).bit_length()), radix,
            int(radix @ (1 + np.arange(n))), (below * radix[:, None]).ravel(),
            before, np.repeat([0, n], [two, n]))


@functools.cache
def _packing(m, n):
    """Constants of multiply_all's packed labels at (m, n).  The digits are
    the n // 2 loop slots in base 2m, lowest, 2m - 1 marking an unused
    slot, then the n arcs in base 2m - 1, the last arc lowest.  Returns v
    mod m at v + nm for |v| < nm, as floats; the place of each digit (the
    arcs first), as a float; by loop count, the padding of the unused slots;
    the low table, which gives for each value of the loop slots and the
    lowest arc digits the basis-index part of those arc labels (read as
    base-m digits) and the number of the loop multiset; per group of the
    other arc digits, highest first, its place and the basis-index part of
    each of its values; and the loop multisets (sorted labels) in
    increasing order of their code, n // 2 base-(m + 1) digits: zeros, then
    the sorted labels plus one."""
    slots, base = n // 2, 2 * m - 1
    loops = (base + 1) ** slots  # values of the loop slots
    low = 0  # arc digits in the low table
    while low < n and loops * base ** (low + 1) <= _TABLE:
        low += 1
    width = 1  # arc digits per group above them
    while low + width < n and base ** (width + 1) <= _TABLE:
        width += 1
    place = [loops * base ** (n - 1 - c) for c in range(n)]
    place += [(base + 1) ** s for s in range(slots)]
    pad = [base * sum(place[n + k:]) for k in range(slots + 1)]
    label = np.zeros(1, dtype=np.int32)  # of the lowest arc digits
    for k in range(max(low, width)):
        label = np.add.outer(np.arange(base, dtype=np.int32) % m * m ** k,
                             label).ravel()
    value = np.arange(loops)[:, None]
    digit = value // (base + 1) ** np.arange(slots) % (base + 1)
    shifted = np.sort(np.where(digit == base, 0, digit % m + 1), axis=1)
    codes, number = np.unique(shifted @ (m + 1) ** np.arange(slots),
                              return_inverse=True)
    shifted = codes[:, None] // (m + 1) ** np.arange(slots) % (m + 1)
    return (np.arange(2 * n * m) % m * 1.0, np.array(place, dtype=float),
            np.array(pad),
            np.stack(np.broadcast_arrays(label[:base ** low, None],
                                         number.astype(np.int32)),
                     axis=2).reshape(-1, 2),
            [(loops * base ** k, label[:base ** min(width, n - k)] * m ** k)
             for k in range(low, n, width)][::-1],
            [tuple(d - 1 for d in row if d) for row in shifted.tolist()])


def _side(ds, n, y):
    """One factor list as arrays: the skeleton of each diagram (numbered in
    order of appearance) and its place among the diagrams of that
    skeleton; per skeleton the successor of each node it departs from (x's,
    y = 0, hold the sinks too, each its own successor) and, at the columns
    of this factor's arcs (x's first, zero at the others), the departure
    nodes of each arc's two ends in the order that counts +label: p -> q,
    or q -> p for an arc in its factor's bottom row; and the labels of its
    diagrams by place (zero rows pad the shorter lists)."""
    skeletons, of, place, count = {}, [], [], []
    for d in ds:
        s = skeletons.setdefault(d.arcs, len(skeletons))
        if s == len(count):
            count.append(0)
        of.append(s)
        place.append(count[s])
        count[s] += 1
    arcs = np.array(list(skeletons), dtype=np.intp).reshape(
        len(skeletons), n, 2) - 1
    depart, arrive = _walk(n)[0][y], _walk(n)[1][y]
    succ = np.zeros((len(arcs), 6 * n), dtype=np.intp)
    if not y:
        succ[:, :2 * n] = np.arange(2 * n)
    succ[np.arange(len(arcs))[:, None, None], depart[arcs]] = \
        arrive[arcs[:, :, ::-1]]
    ends = np.zeros((len(arcs), 2, 2 * n), dtype=np.intp)
    ends[:, :, y * n:(y + 1) * n] = depart[np.where(
        arcs[:, :, :1] < n, arcs, arcs[:, :, ::-1])].swapaxes(1, 2)
    labels = np.zeros((len(arcs), max(count), n))
    labels[of, place] = [d.labels for d in ds]
    return np.array(of), np.array(place), succ, ends, labels


def _compose_skeletons(n, x_succ, y_succ, x_ends, y_ends):
    """Compose every pair of an x and a y skeleton (tables of _side) at
    once.  Returns (x_forms, y_forms, first, loops): x_forms[a, c, b, d] is
    the sign with which x's arc c enters output digit d of the product of
    skeletons a and b, y_forms[b, c, a, d] that of y's arc c, the digits
    being the n output arcs in normal-form order and then the loops; first
    holds the number of the product's skeleton, and loops its loop count.

    Each pair is 6n nodes: node b is the sink where a strand arrives at
    product point b (x's top points, then y's bottom ones), 2n + b departs
    from b, and 4n + 2k and 4n + 2k + 1 depart from middle point k into y
    and into x.  A departure crosses the arc at its point; its successor
    departs from the middle point reached into the other factor, or is the
    sink there.  Pointer doubling gives every node the end of its strand
    and the smallest node on the way there: a sink on a strand; on a loop,
    the smallest node of its orbit, which departs from the loop's smallest
    middle point into y (even) for the orbit that stores the loop's label,
    into x (odd) for the reverse one.  A strand from the top row stores the
    label walked from its smaller end, one between bottom points the label
    walked from its larger end.
    """
    _, _, rounds, radix, shift, inversions, before, rank_shift = _walk(n)
    two, four, six, digits = 2 * n, 4 * n, 6 * n, n + n // 2
    sx, sy = len(x_succ), len(y_succ)
    pairs = sx * sy
    offset = six * np.arange(pairs).reshape(sx, sy, 1)
    succ = (x_succ[:, None] + y_succ + offset).ravel()
    low = np.arange(pairs * six)
    for _ in range(rounds):
        np.minimum(low, low[succ], out=low)
        succ = succ[succ]
    offset = offset.reshape(pairs, 1)
    end = succ.reshape(pairs, six) - offset
    low = low.reshape(pairs, six) - offset
    partner = end[:, two:four]  # of each product point
    smaller = partner > np.arange(two)
    q = partner[smaller].reshape(pairs, n)  # larger ends, normal-form order
    later = (q[:, None] < q[:, :, None]).reshape(pairs, n * n)
    first = q @ radix - shift - later @ inversions
    start = low[:, four::2] == np.arange(four, six, 2)  # a loop's smallest
    rank = np.concatenate([smaller, start], axis=1) @ before + rank_shift
    nodes = (x_ends[:, None] + y_ends + offset.reshape(sx, sy, 1, 1))
    nodes = nodes.reshape(pairs, 2, two)
    far = end.ravel()[nodes]  # where the strand ahead of either end ends
    path = far[:, 0] < two
    near = np.minimum(far[:, 0], far[:, 1])
    orbit = low.ravel()[nodes[:, 0]]
    forward = np.where(path, (far[:, 1] < far[:, 0]) == (near < n),
                       orbit % 2 == 0)
    slot = np.where(path, near, orbit // 2)
    digit = rank.ravel()[slot + 3 * n * np.arange(pairs)[:, None]]
    forms = np.where(digit[:, :, None] == np.arange(digits),
                     np.where(forward, 1.0, -1.0)[:, :, None], 0.0)
    forms = forms.reshape(sx, sy, two, digits)
    return (forms[:, :, :n].transpose(0, 2, 1, 3).reshape(sx, n, sy * digits),
            forms[:, :, n:].transpose(1, 2, 0, 3).reshape(sy, n, sx * digits),
            first.reshape(sx, sy), start.sum(axis=1).reshape(sx, sy))


def multiply_all(xs, ys):
    """Every product x * y of two non-empty lists of basis diagrams of one
    (m, n), as (out, loops): out, int32 of shape (len(xs), len(ys), 2),
    holds at (i, j) the basis_index of the product diagram of xs[i] * ys[j]
    and the index in loops of the tuple of its sorted loop labels; loops
    lists the loop multisets that occur in increasing order of their code,
    n // 2 base-(m + 1) digits: zeros, then the sorted labels plus one.

    _compose_skeletons composes the skeleton pairs, a block of x's
    skeletons at a time.  Each output digit (arc or loop label) of x * y is
    the x part, the signed sum of x's labels on it, plus the y part, each
    reduced mod m: per skeleton of x, one matrix product of the labels of
    its diagrams with its forms gives the x parts against every skeleton of
    y, and likewise for y.  Packed in base 2m per loop slot and 2m - 1 per
    arc (exact in float64 whenever the basis indices fit int32), the parts
    of every product add without carries.  Lookups then give the product's
    index and loop multiset: one in the low table for the loop slots and
    the lowest arc digits, one per group of the other arc digits, each
    table of at most _TABLE entries unless the loop slots alone take more
    values, (2m)^(n // 2).
    """
    (m, n), = {(d.m, d.n) for d in itertools.chain(xs, ys)}  # else ValueError
    if basis_size(m, n) >= 2 ** 31:
        raise ValueError("basis indices exceed int32")
    residue, place, pad, low_table, groups, multisets = _packing(m, n)
    x_of, x_place, x_succ, x_ends, x_labels = _side(xs, n, 0)
    y_of, y_place, y_succ, y_ends, y_labels = _side(ys, n, 1)
    sy, digits = len(y_succ), len(place)
    gx, gy = x_labels.shape[1], y_labels.shape[1]
    step = max(1, _BLOCK // (sy * (6 * n + (gx + gy) * digits + 1)))
    x_part, y_part, first = [], [], []
    for s in range(0, len(x_succ), step):
        block = slice(s, s + step)
        x_forms, y_forms, skeleton, loops = _compose_skeletons(
            n, x_succ[block], y_succ, x_ends[block], y_ends)
        sx = len(skeleton)
        cut = sx * gx * sy
        value = np.empty((cut + sy * gy * sx, digits))
        np.matmul(x_labels[block], x_forms,
                  out=value[:cut].reshape(sx, gx, sy * digits))
        np.matmul(y_labels, y_forms,
                  out=value[cut:].reshape(sy, gy, sx * digits))
        value += n * m
        packed = (residue[value.astype(np.intp)] @ place).astype(np.int64)
        x_part.append(packed[:cut].reshape(sx, gx, sy))
        y_part.append(packed[cut:].reshape(sy, gy, sx)
                      + pad[loops.T][:, None])
        first.append(skeleton * m ** n)
    # x part per (x diagram, y skeleton), y part per (x skeleton, y diagram)
    x_part = np.concatenate(x_part)[x_of, x_place]
    y_part = np.ascontiguousarray(
        np.concatenate(y_part, axis=2)[y_of, y_place].T)
    first = np.concatenate(first).astype(np.int32)[x_of]
    out = np.empty((len(xs), len(ys), 2), dtype=np.int32)
    hit = np.zeros(len(low_table), dtype=bool)
    rows = max(1, _BLOCK // len(ys))
    for r in range(0, len(xs), rows):
        block = slice(r, r + rows)
        rest = np.take(x_part[block], y_of, axis=1) + y_part[x_of[block]]
        index = np.take(first[block], y_of, axis=1)
        for unit, table in groups:  # the higher arc digits, highest first
            key = rest // unit
            rest -= key * unit
            index += np.take(table, key)
        np.take(low_table, rest, axis=0, out=out[block])
        out[block, :, 0] += index
        hit[rest] = True
    seen = np.zeros(len(multisets), dtype=bool)
    seen[low_table[hit, 1]] = True
    if not seen.all():  # number only the loop multisets that occur
        out[:, :, 1] = (np.cumsum(seen, dtype=np.int32) - 1)[out[:, :, 1]]
    return out, list(itertools.compress(multisets, seen))


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
        if not (self.terms and o.terms):
            return self._collect(())
        params, (m, n) = self.ring.params, (self.ring.m, self.ring.n)
        out, loops = multiply_all(list(self.terms), list(o.terms))
        out = out.tolist()
        diagrams = {k: basis_diagram(m, n, k) for row in out for k, _ in row}

        def products():
            for c1, row in zip(self.terms.values(), out):
                for c2, (k, u) in zip(o.terms.values(), row):
                    yield diagrams[k], times_loops(params, c1 * c2, loops[u])

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
    of {"relation", "indices", "ok"} dicts (failures included, never raised).
    Each side is a word in the generators, the right one times a scalar,
    and all words are multiplied out together (_word_products)."""
    params = SymbolicParams(m)
    alg = DiagramAlgebra(m, n, params)

    def letter(name):
        return lambda i: [generator(m, n, name, i)]

    s, e, t = letter("s"), letter("e"), letter("t")
    one, d0, cases = [identity_diagram(m, n)], params.delta(0), []

    def check(relid, indices, lhs, rhs, scalar=params.one):
        cases.append((relid, indices, lhs, rhs, scalar))

    for i in range(1, n):
        check(1, (i,), s(i) + s(i), one)
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) > 1:
                check(2, (i, j), s(i) + s(j), s(j) + s(i))
    for i in range(1, n - 1):
        check(3, (i,), s(i) + s(i + 1) + s(i), s(i + 1) + s(i) + s(i + 1))
    for i in range(1, n):
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                check(4, (i, j), s(i) + t(j), t(j) + s(i))
    for i in range(1, n):
        check(5, (i,), e(i) + e(i), e(i), d0)
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) > 1:
                check(6, (i, j), s(i) + e(j), e(j) + s(i))
                check(7, (i, j), e(i) + e(j), e(j) + e(i))
    for i in range(1, n):
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                check(8, (i, j), e(i) + t(j), t(j) + e(i))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            check(9, (i, j), t(i) + t(j), t(j) + t(i))
    for i in range(1, n):
        check(10, (i,), s(i) + t(i), t(i + 1) + s(i))
    for i in range(1, n):
        check(11, (i,), e(i) + s(i), e(i))
        check(11, (i,), s(i) + e(i), e(i))
    for i in range(1, n - 1):
        check(12, (i,), s(i) + e(i + 1) + e(i), s(i + 1) + e(i))
        check(13, (i,), e(i + 1) + e(i) + s(i + 1), e(i + 1) + s(i))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) == 1:
                check(14, (i, j), e(i) + e(j) + e(i), e(i))
    for i in range(1, n):
        check(15, (i,), e(i) + t(i) + t(i + 1), e(i))
        check(15, (i,), t(i) + t(i + 1) + e(i), e(i))
    for i in range(1, n):
        for a in range(1, m):
            check(16, (i, a), e(i) + t(i) * a + e(i), e(i), params.delta(a))
    for i in range(1, n + 1):
        check(17, (i,), t(i) * m, one)
    products = _word_products([w for case in cases for w in case[2:4]])

    def value(d, loops, scalar):
        return alg.element(d, times_loops(params, scalar, loops))

    return [{"relation": relid, "indices": indices,
             "ok": value(*lhs, params.one) == value(*rhs, scalar)}
            for (relid, indices, _, _, scalar), lhs, rhs
            in zip(cases, products[::2], products[1::2])]


def _word_products(words):
    """The product of each non-empty word (a list of basis diagrams) as
    (diagram, loop labels): every word longer than k takes its letter k in
    round k, all words at once (_paired_products)."""
    products = [(w[0], ()) for w in words]
    for k in range(1, max(map(len, words), default=1)):
        live = [j for j, w in enumerate(words) if len(w) > k]
        for j, (d, loops) in zip(live, _paired_products(
                [(products[j][0], words[j][k]) for j in live])):
            products[j] = d, products[j][1] + loops
    return products


def _paired_products(pairs):
    """x * y for each pair (x, y), as (diagram, loop labels).  The pairs go
    in order of x's skeleton, in runs of at most 64 whose x and y skeletons
    make at most 64 skeleton pairs; the products of a run are the diagonal
    of one multiply_all call on it."""
    out = [None] * len(pairs)
    order = sorted(range(len(pairs)), key=lambda k: pairs[k][0].arcs)
    start = 0
    while start < len(order):
        x_arcs, y_arcs, run = set(), set(), []
        for k in order[start:start + 64]:
            x_arcs.add(pairs[k][0].arcs)
            y_arcs.add(pairs[k][1].arcs)
            if run and len(x_arcs) * len(y_arcs) > 64:
                break
            run.append(k)
        start += len(run)
        xs, ys = zip(*(pairs[k] for k in run))
        products, loops = multiply_all(list(xs), list(ys))
        i = np.arange(len(run))
        for k, (p, u) in zip(run, products[i, i].tolist()):
            out[k] = basis_diagram(xs[0].m, xs[0].n, p), loops[u]
    return out


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
    point).  Each of the four products is taken for all triples at once
    (_paired_products).  Returns a report dict; failures list the
    offending triples."""
    import random

    if params is None:
        params = SymbolicParams(m, symmetric=True)
    alg = DiagramAlgebra(m, n, params)
    basis = enumerate_basis(m, n)
    rng = random.Random(seed)
    triples = [tuple(rng.choice(basis) for _ in range(3))
               for _ in range(trials)]
    ab = _paired_products([(a, b) for a, b, _ in triples])
    bc = _paired_products([(b, c) for _, b, c in triples])
    ab_c = _paired_products([(d, c) for (d, _), (_, _, c) in zip(ab, triples)])
    a_bc = _paired_products([(a, d) for (a, _, _), (d, _) in zip(triples, bc)])

    def value(d, loops):
        return alg.element(d, times_loops(params, params.one, loops))

    failures = [t for t, (_, u), (left, v), (_, w), (right, z)
                in zip(triples, ab, ab_c, bc, a_bc)
                if value(left, u + v) != value(right, w + z)]
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
