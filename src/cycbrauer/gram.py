"""Gram forms on the one-arc module V and on small cell modules.

Both forms pair half diagrams alpha (x) w (x) alpha_0 (alpha one labelled
top arc, w a wreath element on the free points, alpha_0 the arc {n-1, n}
with label 0) through diagrams.multiply_all, all pairs at once (the group
actions on V too), and read each entry off its product and closed loops.
No pairing depends on the parameters: each is built once per (m, n), its
distinct products and a shared read-only index, and a form is one value
per distinct product.  The two forms are kept clearly apart:

* the iota-form on V, spanned by all these half diagrams: the pairing of
  x and y is the coefficient of e_{n-1} in iota(x) * y (iota_pairing).
  Generally not symmetric for m >= 3; its use is structural (entry shape,
  equivariance).
* the cellular star-form on the cell modules (1, mu') for n - 2 <= 1,
  spanned by the half diagrams with w = 1, read off star(x) * y: each
  entry is one character value times one loop parameter (identity and
  proof in cell_gram).  Symmetric; its determinants are the ones that
  govern semisimplicity.  One entry pattern per (m, n) (cell_pairing)
  gives every form's entries, and each determinant is one cell's block
  determinants in the bar coordinates (cell_factors, built and guarded
  once per (m, n, field)) at the point's bar transform.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field as dfield
from functools import lru_cache

import numpy as np

from .criterion import bar_deltas
from .deltapoly import DeltaPoly, SymbolicParams
from .diagrams import (NumericParams, basis_index, from_awb, generator,
                       iota_diagram, is_admissible, multiply_all,
                       star_diagram, times_loops)
from .linalg import gauss_rank, minor_det
from .partitions import check_multipartition
from .scalars import CyclotomicField
from .wreath import enumerate_group, group_order, identity


@dataclass
class GramMatrix:
    """G[i, j] = values[index[i, j]]: the distinct entries, each computed
    once, and the integer index its builder found them by."""
    kind: str  # "iota-form" or "cellular-form"
    values: list
    index: np.ndarray
    basis: list = dfield(default_factory=list)
    det: object = None

    @property
    def size(self):
        return len(self.index)

    @property
    def entries(self):
        return [[self.values[v] for v in row] for row in self.index.tolist()]

    def to_json(self):
        text = [str(x) for x in self.values]
        return {
            "kind": self.kind,
            "size": self.size,
            "entries": [[text[v] for v in row] for row in self.index.tolist()],
            "det": None if self.det is None else str(self.det),
        }


def _half_diagrams(m, n, group):  # in the order of V's basis, w in group
    alpha0 = [(n - 1, n, 0)]
    return [from_awb(m, n, [(i, j, lab)], w, alpha0)
            for i, j in itertools.combinations(range(1, n + 1), 2)
            for lab in range(m) for w in group]


def _pairing(xs, ys, key):
    """Every product x * y of two lists of half diagrams, numbered: key
    maps multiply_all's (out, loops) to one integer per product, and the
    pairing is (codes, loops, index), codes the distinct keys in increasing
    order and index[i, j] the position of the key of xs[i] * ys[j] among
    them, read-only and in the smallest unsigned dtype that holds it."""
    out, loops = multiply_all(xs, ys)
    codes, index = np.unique(key(out, loops), return_inverse=True)
    index = index.reshape(len(xs), len(ys)).astype(
        np.min_scalar_type(len(codes) - 1))
    index.flags.writeable = False  # shared by every form on this pattern
    return codes.tolist(), loops, index


IotaPairing = namedtuple("IotaPairing", "basis products index")


@lru_cache(maxsize=None)
def iota_pairing(m, n):
    """The entry pattern behind gram_big, which depends on no parameter,
    built once per (m, n) and shared: the basis of V, a tuple of the half
    diagrams alpha (x) w (x) alpha_0 ordered by the top arc, then its
    label, then w in enumerate_group order; and iota(x) * y, for x and y in
    the basis, is e_{n-1} times the deltas of the loop multiset
    products[index[x, y]], or no multiple of e_{n-1} where that is None."""
    basis = tuple(_half_diagrams(m, n, enumerate_group(m, n - 2)))
    e = basis_index(generator(m, n, "e", n - 1))
    codes, loops, index = _pairing(
        [iota_diagram(x) for x in basis], basis,
        lambda out, loops: np.where(out[..., 0] == e, out[..., 1], -1))
    return IotaPairing(basis, tuple(loops[u] if u >= 0 else None
                                    for u in codes), index)


def gram_big(m, n, params, cap=5000):
    """The f x f iota-form matrix on V: entry (x, y) is the coefficient of
    e_{n-1} in iota(x) * y.  As for the trace form, the entries index a
    short list of values, one per product of iota_pairing(m, n): the loops'
    deltas, and 0.  A V above cap is refused before anything is built."""
    if n < 2:
        raise ValueError("n >= 2 required")
    f = m * math.comb(n, 2) * group_order(m, n - 2)
    if f > cap:
        raise ValueError("dim V = %d exceeds cap %d" % (f, cap))
    pairing = iota_pairing(m, n)
    values = [params.zero if loops is None
              else times_loops(params, params.one, loops)
              for loops in pairing.products]
    return GramMatrix("iota-form", values, pairing.index, list(pairing.basis))


def shape_check(gram, params):
    """Entry shape of the iota-form: diagonal delta_0, off-diagonal in
    {0, 1, delta_1, ..., delta_{m-1}}.  Returns list of violations."""
    offs = [params.zero, params.one]
    offs += [params.delta(a) for a in range(1, params.m)]
    # per distinct value: bad off the diagonal, bad on it
    bad = np.array([[all(x != o for o in offs), x != params.delta(0)]
                    for x in gram.values])[gram.index,
                                           np.eye(gram.size, dtype=int)]
    return [(i, j, str(gram.values[gram.index[i, j]]))
            for i, j in np.argwhere(bad).tolist()]


def equivariance_check(m, n, params, cap=5000, gram=None):
    """Check that the iota-form endomorphism commutes with the left
    W_{m,n} action and the right W_{m,n-2} action, generator by generator
    (the basis permutations of _actions).

    The commutation identities only hold on the admissible parameter locus
    delta_a = delta_{m-a} (automatic for m <= 2); the report records the
    admissibility of the supplied parameters so off-locus failures at m >= 3
    are interpretable.  ``gram`` is gram_big(m, n, params, cap) when the
    caller has built it already; a form of another (m, n) is refused."""
    if gram is None:
        gram = gram_big(m, n, params, cap)
    elif (gram.basis[0].m, gram.basis[0].n) != (m, n):
        raise ValueError("gram is the iota-form of (m, n) = (%d, %d), not "
                         "(%d, %d)" % (gram.basis[0].m, gram.basis[0].n, m, n))
    # equal values (delta_a, delta_{m-a} if symmetric) share a code
    G = np.array([gram.values.index(x) for x in gram.values])[gram.index]
    failures, checked = [], []
    for tag, perm, inverse in _actions(m, n):
        # P*G == G*P with P[perm[j], j] = 1: (P G)[i][j] =
        # G[perm^{-1}(i)][j] and (G P)[i][j] = G[i][perm[j]]
        bad = np.flatnonzero(G[inverse] != G[:, perm])
        if len(bad):
            r, c = divmod(int(bad[0]), gram.size)
            failures.append({"generator": tag, "i": r, "j": c})
        else:
            checked.append(tag)
    return {"m": m, "n": n, "ok": not failures, "checked": checked,
            "failures": failures, "admissible": is_admissible(params)}


@lru_cache(maxsize=None)
def _actions(m, n):
    """The generators of equivariance_check as permutations of the basis of
    V, built once per (m, n): (tag, perm, inverse), perm[j] the position of
    g * b_j (left) or b_j * g (right).  Both actions are diagram products,
    one multiply_all call per side: the right one b * (y (+) 1_2) is
    w |-> w y on the middle factor, for the generators y (+) 1_2 = t_1 and
    s_i, i < n - 2, of W_{m,n}.  A product with a group element closes no
    loop."""
    basis = iota_pairing(m, n).basis
    position = {basis_index(b): k for k, b in enumerate(basis)}
    left = [("s", i) for i in range(1, n)] + [("t", 1)]
    right = [("t", 1)] * (n - 2 >= 1) + [("s", i) for i in range(1, n - 2)]
    actions = []
    for side, gens in (("left", left), ("right", right)):
        g = [generator(m, n, name, i) for name, i in gens]
        if not g:
            continue
        out = multiply_all(*([g, basis] if side == "left" else [basis, g]))[0]
        if side == "right":
            out = out.swapaxes(0, 1)
        for (name, i), row in zip(gens, out[..., 0].tolist()):
            perm = np.array([position[k] for k in row])
            inverse = np.argsort(perm)
            perm.flags.writeable = inverse.flags.writeable = False
            actions.append(("%s-%s%d" % (side, name, i), perm, inverse))
    return tuple(actions)


# ---------------------------------------------------------------------------
# cellular forms for cells (1, mu') with |mu| = n - 2 <= 1
# ---------------------------------------------------------------------------

def cell_gram(m, n, mu, params):
    """Symmetric Gram matrix of the cell (1, mu') for n in {2, 3}.

    One pairing of the half diagrams v = alpha (x) 1 (x) alpha_0 (alpha one
    labelled top arc, alpha_0 the arc {n-1, n} with label 0) gives both
    cells: star(v_x) * v_y = delta_a alpha_0 (x) t^r0 (x) alpha_0, with r0
    the through-strand label (none at n = 2) and delta_a the loop, if any;
    any other product raises ValueError.

    n = 2, mu empty: v_x = t_1^s e_1 and G[x, y] = delta_a.
    n = 3, the box of mu in component j, l = (1 - j) mod m: the cell basis
    is v_x (x) g_l(t_1), g_l(t) = prod_{j' != l}(t - xi^{j'}), and the form
    reads the xi^{l r} character of the coefficient of alpha_0 (x) t^r (x)
    alpha_0 in star(x) * y, divided by g_l(xi^l).  So
    G[x, y] = m xi^{-l} xi^{l r0} delta_a.  Proof: t^s and t^{s'} only add
    s + s' to the through strand, so the double sum over the coefficients
    of g_l is xi^{l r0} delta_a g_l(xi^l)^2; and g_l(xi^l) =
    prod_{j' != l}(xi^l - xi^{j'}) = m xi^{l(m-1)} = m xi^{-l}.

    Determinant.  The basis runs over b arcs (b = 1 at n = 2, 3 at n = 3),
    then the label k, so G is a b x b array of m x m blocks.  In star(v_x)
    * v_y one strand runs once through the arc of v_x and once through that
    of v_y and carries the labels' signed sum: it is the loop or the through
    strand.  So each block is anticirculant, A(k_x + k_y), or circulant,
    C(k_y - k_x), as the two arcs are run through in the same sense or not
    (the blocks pairing {1,2} with {2,3} are the circulant ones).  An
    entry is a function of its pair (r0, loops), so _block_kinds checks
    this on the pairs' integer codes and raises otherwise.  With
    F = (xi^{uk})_{u,k} and hat X(u) = sum_s X(s) xi^{us}, X the block's
    first row, F A F^T is m diag(hat A(u)) and F C F^T has m hat C(-u) at
    (u, -u) and zeros elsewhere, so (1_b (x) F) G (1_b (x) F)^T is block
    diagonal over the orbits {u, -u}, with blocks of size b or 2b.
    F^2 = m J, J the permutation u -> -u, a product of floor((m-1)/2)
    transpositions, so det G = (-1)^{b floor((m-1)/2)} times the product
    of the block determinants with the factors m dropped: no division.

    Bar coordinates.  Each hat is c xi^e bar_u or a constant, where
    bar_u = sum_j delta_j xi^{ju} (criterion.bar_deltas) and c = m at
    n = 3, 1 at n = 2.  Proof: in a block pairing an arc with itself, the
    strand closes a loop and the through strand keeps r0 = 0; at k_x = 0
    the loop's label is s, so X(s) = c xi^{-l} delta_s and hat X(u) =
    c xi^{-l} bar_u.  Two distinct arcs share one point, so the strand is
    the through strand, r0 = +-s, no loop closes, and hat X(u) =
    m xi^{-l} sum_s xi^{(u +- l) s} is m^2 xi^{-l} at u = -+l and 0
    elsewhere.  So each block determinant is a polynomial in
    bar_0..bar_{m-1} that depends on (m, n, l) and the field alone
    (cell_factors), and det G at a point is its value at the point's bar
    transform, for numeric, finite-field and symbolic parameters alike.
    At n = 2 the one block pairs the arc with itself, with c = 1 and
    l = 0, so the block of {u, -u} is diag(bar_u, bar_{-u}) and det G is
    (-1)^{floor((m-1)/2)} prod_u bar_u.
    """
    return cell_form(m, n, mu, params)


CellPairing = namedtuple("CellPairing", "half pairs index")


@lru_cache(maxsize=None)
def cell_pairing(m, n):
    """The entry pattern behind cell_gram, which depends on neither mu nor
    the parameters, built once per (m, n) and shared: the half diagrams
    v_x (those of the basis of V with w = 1), and star(v_x) * v_y is the
    loops' deltas times alpha_0 (x) t^r0 (x) alpha_0 for (r0, loops) =
    pairs[index[x, y]], the distinct pairs; any other product raises
    ValueError."""
    if n not in (2, 3):
        raise ValueError("cell Gram matrices need n = 2 or 3, got n = %d" % n)
    half = tuple(_half_diagrams(m, n, [identity(m, n - 2)]))
    alpha0 = [(n - 1, n, 0)]
    # the m targets alpha_0 (x) t^r (x) alpha_0 (one at n = 2), by r
    targets = {basis_index(from_awb(m, n, alpha0, w, alpha0)): sum(w.colors)
               for w in enumerate_group(m, n - 2)}
    codes, loops, index = _pairing(
        [star_diagram(x) for x in half], half,
        lambda out, loops: out[..., 0].astype(np.int64) * len(loops)
        + out[..., 1])
    products = [divmod(c, len(loops)) for c in codes]
    if any(k not in targets for k, _ in products):
        raise ValueError("product left the span of alpha_0 (x) t^s (x) alpha_0")
    pairs = tuple((targets[k], loops[u]) for k, u in products)
    return CellPairing(half, pairs, index)


def _block_kinds(index, m):
    """Per m x m arc block of an entry index: circulant (entry (k, t) is
    top[t - k], top its first row), else anticirculant (top[t + k]).
    Raises ValueError on a block that is neither."""
    b = len(index) // m
    blocks = index.reshape(b, m, b, m).swapaxes(1, 2)
    k, t = np.ogrid[:m, :m]
    anti, circ = ((blocks == blocks[:, :, 0, (t + s * k) % m]).all((2, 3))
                  for s in (1, -1))
    bad = np.argwhere(~anti & ~circ)
    if len(bad):
        raise ValueError("cell Gram block (%d, %d) is neither anticirculant "
                         "nor circulant" % tuple(bad[0]))
    return ~anti


def cell_form(m, n, mu, params, compute_det=True):
    """cell_gram, with the determinant left out on request: one value per
    distinct pair of cell_pairing(m, n), indexed by its (read-only) index."""
    pairing = cell_pairing(m, n)
    mu = check_multipartition(mu, m)
    sizes = [sum(p) for p in mu]
    if n == 2 and any(sizes):
        raise ValueError("mu must be the empty multipartition")
    if n == 3 and sum(sizes) != 1:
        raise ValueError("mu must be a one-box multipartition")
    field, l = params.field, 0
    weight = [field.one]  # no through strand: r0 = 0, trivial character
    if n == 3:
        l = -sizes.index(1) % m  # (1 - j) mod m, j the box's component
        xi = field.root_of_unity(m)
        weight = [field.embed(m) * xi ** (l * (r - 1) % m) for r in range(m)]
    values = [times_loops(params, params.one * weight[r0], loops)
              for r0, loops in pairing.pairs]
    return GramMatrix("cellular-form", values, pairing.index,
                      list(pairing.half),
                      _cell_det(m, n, l, params) if compute_det else None)


def _cell_det(m, n, l, params):
    """det G of cell l: its factors at the bar transform of the parameters
    (identity in cell_gram); the field must hold a primitive m-th root of
    unity."""
    symbolic = isinstance(params, SymbolicParams)
    if symbolic and len(cell_pairing(m, n).index) > 12:
        return None  # symbolic determinant kept to small sizes
    bars = bar_deltas(params if symbolic else params.field,
                      [params.delta(a) for a in range(m)])
    return cell_det_at(cell_factors(m, n, params.field)[l], bars, params.one)


@lru_cache(maxsize=None)
def cell_factors(m, n, field):
    """Per cell, the block determinants whose product is det G, as
    polynomials in bar_0..bar_{m-1} over field (cell_gram): one tuple per
    l = 0..m-1 at n = 3 (the box in component 1 - l mod m), one at n = 2.
    Built once per (m, n, field); a pattern whose blocks are not of the
    proven form raises ValueError here."""
    return _cell_factors(cell_pairing(m, n), m, n, field)


def _cell_factors(pairing, m, n, field):
    """cell_factors on a given pattern.  The polynomials are DeltaPoly over
    SymbolicParams(m, field), whose variable i stands for bar_i."""
    circulant = _block_kinds(pairing.index, m).tolist()
    codes = pairing.index.tolist()
    b = len(codes) // m
    rows = [[[pairing.pairs[v] for v in codes[a * m][c * m:(c + 1) * m]]
             for c in range(b)] for a in range(b)]
    ring = SymbolicParams(m, field)
    root_sum = _root_sum(field, m, m if n == 3 else 1)
    cells = []
    for l in range(m if n == 3 else 1):
        hats = [[[_bar_form(row, l, u, root_sum, ring) for u in range(m)]
                 for row in arc] for arc in rows]
        dets = []
        for t0 in range(m // 2 + 1):
            index = [(t, a) for t in sorted({t0, -t0 % m}) for a in range(b)]
            # the transformed matrix at rows (t, a), columns (u, c)
            block = [[hats[a][c][u] if u == (-t % m if circulant[a][c] else t)
                      else ring.zero for u, c in index] for t, a in index]
            dets.append(minor_det(block, ring.zero, ring.one))
        if b * ((m - 1) // 2) % 2:
            dets[0] = -dets[0]
        # lowest degree first, so that a symbolic determinant multiplies
        # its smaller values first
        cells.append(tuple(sorted(dets, key=lambda f: max(map(sum, f.terms),
                                                          default=0))))
    return tuple(cells)


def _root_sum(field, m, c):
    """The map from a sorted tuple E of exponents to c sum_{e in E} xi^e,
    each sum taken once."""
    xi = field.root_of_unity(m)
    return lru_cache(maxsize=None)(
        lambda exps: field.embed(c) * sum((xi ** e for e in exps), field.zero))


def _bar_form(row, l, u, root_sum, ring):
    """hat X(u) = sum_s X(s) xi^{us} for cell l of an arc block with first
    row row, the pairs (r0, loops) at s, where the entry is c xi^{l(r0 - 1)}
    times the loops' deltas (cell_gram; r0 = 0 at n = 2), and root_sum
    (_root_sum) sums c xi^e.  Read off the exponents over the integers, it
    is a constant, or c sum_{e in E} xi^e bar_u when the exponents at each
    delta_j are E, those at delta_0, shifted by uj; anything else raises
    ValueError."""
    m = ring.m
    consts, loops = [], [[] for _ in range(m)]  # loops[j]: at delta_j
    for s, (r0, labels) in enumerate(row):
        if len(labels) > 1:
            raise ValueError("a cell Gram entry closes %d loops" % len(labels))
        e = (l * (r0 - 1) + u * s) % m
        (loops[labels[0]] if labels else consts).append(e)
    coef = root_sum(tuple(sorted(consts or loops[0])))
    if not any(loops):
        return ring.embed(coef)
    if consts or any(sorted(loops[j]) != sorted((e + u * j) % m
                                                 for e in loops[0])
                     for j in range(1, m)):
        raise ValueError("label-Fourier entry at u = %d is neither a "
                         "constant nor c * bar_%d" % (u, u))
    bar_u = tuple(int(k == u) for k in range(m))
    return DeltaPoly(ring, {bar_u: coef} if coef else {})


def cell_det_at(factors, bars, one):
    """The determinant that factors (one cell of cell_factors) give at a
    bar vector: their values' product, with one the ring's unit."""
    det = one
    for f in factors:
        det = det * f.evaluate(bars)
        if not det:
            break
    return det


def single_box_gram(m):
    """The 3m x 3m cell Gram matrix at n = 3, mu the box in component 1,
    over Q(zeta_m)[delta], compared entrywise with the block form
    [[0,A,A],[A,0,A],[A,A,0]], A = m * ones, which the evaluation at
    delta = 0 (the same pattern, numeric) is expected to match.

    Returns (GramMatrix, report) where the report states whether the block
    form holds identically in delta or only at delta = 0, lists mismatches,
    and records determinant and rank at delta = 0.
    """
    if m < 2:
        raise ValueError("m >= 2 required")
    field = CyclotomicField(m)
    params = SymbolicParams(m, field)
    mu = tuple([(1,)] + [()] * (m - 1))
    gm = cell_form(m, 3, mu, params, compute_det=False)
    zero = cell_form(m, 3, mu, NumericParams(field, [field.zero] * m))
    a = field.embed(m)
    mismatches = [{"row": r, "col": c, "got": str(x), "want": str(y)}
                  for r, row in enumerate(zero.entries)
                  for c, x in enumerate(row)
                  for y in [a if r // m != c // m else field.zero] if x != y]
    # identical in delta: no entry has a term with a nonzero exponent
    identical = not any(any(e) for x in gm.values for e in x.terms)
    gm.det = zero.det
    report = {"m": m, "matches_printed_at_zero": not mismatches,
              "identical_in_delta": identical and not mismatches,
              "mismatches": mismatches,
              "det_at_zero": str(zero.det),
              "rank_at_zero": gauss_rank(zero.entries)}
    return gm, report
