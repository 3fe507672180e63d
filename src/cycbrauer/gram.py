"""Gram forms on the one-arc module V and on small cell modules.

Both forms pair half diagrams alpha (x) w (x) alpha_0 (alpha one labelled
top arc, w a wreath element on the free points, alpha_0 the arc {n-1, n}
with label 0) through diagrams.multiply_all, all pairs at once (the group
actions on V too), and read each entry off its product and closed loops.
They are kept clearly apart:

* the iota-form on V, spanned by all these half diagrams: the pairing of
  x and y is the coefficient of e_{n-1} in iota(x) * y.  Generally not
  symmetric for m >= 3; its use is structural (entry shape, equivariance).
* the cellular star-form on the cell modules (1, mu') for n - 2 <= 1,
  spanned by the half diagrams with w = 1, read off star(x) * y: each
  entry is one character value times one loop parameter (identity and
  proof in cell_gram).  Symmetric; its determinants are the ones that
  govern semisimplicity.  One entry pattern (cell_pairing) serves all its
  evaluations: the distinct products, and the block guard run there once.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass, field as dfield

import numpy as np

from .deltapoly import SymbolicParams
from .diagrams import (NumericParams, basis_index, from_awb, generator,
                       iota_diagram, is_admissible, multiply_all,
                       star_diagram, times_loops)
from .linalg import gauss_rank, minor_det
from .partitions import check_multipartition
from .scalars import CyclotomicField
from .wreath import enumerate_group, identity


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


def v_basis(m, n, cap=5000):
    """Basis of V: the half diagrams alpha (x) w (x) alpha_0, ordered by the
    top arc, then its label, then w in enumerate_group order."""
    if n < 2:
        raise ValueError("n >= 2 required")
    group = enumerate_group(m, n - 2)
    f = m * (n * (n - 1) // 2) * len(group)
    if f > cap:
        raise ValueError("dim V = %d exceeds cap %d" % (f, cap))
    return _half_diagrams(m, n, group)


def _half_diagrams(m, n, group):  # in v_basis order, w in group
    alpha0 = [(n - 1, n, 0)]
    return [from_awb(m, n, [(i, j, lab)], w, alpha0)
            for i, j in itertools.combinations(range(1, n + 1), 2)
            for lab in range(m) for w in group]


def gram_big(m, n, params, cap=5000):
    """The f x f iota-form matrix on V: entry (x, y) is the coefficient of
    e_{n-1} in iota(x) * y.  As for the trace form, the entries index a
    short list of values: one per loop multiset of a product e_{n-1}, and 0."""
    basis = v_basis(m, n, cap)
    out, loops = multiply_all([iota_diagram(x) for x in basis], basis)
    e = basis_index(generator(m, n, "e", n - 1))
    codes, index = np.unique(np.where(out[..., 0] == e, out[..., 1], -1),
                             return_inverse=True)
    values = [times_loops(params, params.one, loops[u]) if u >= 0
              else params.zero for u in codes.tolist()]
    return GramMatrix("iota-form", values,
                      index.reshape(len(basis), len(basis)), basis)


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
    W_{m,n} action and the right W_{m,n-2} action, generator by generator.

    Both actions permute the basis of V and are diagram products, one
    multiply_all call per side for all its generators: the left one g * b,
    the right one b * (y (+) 1_2), which is w |-> w y on the middle factor.
    The generators y (+) 1_2 are t_1 and s_i, i < n - 2, of W_{m,n}.  A
    product with a group element closes no loop.

    The commutation identities only hold on the admissible parameter locus
    delta_a = delta_{m-a} (automatic for m <= 2); the report records the
    admissibility of the supplied parameters so off-locus failures at m >= 3
    are interpretable.  ``gram`` is gram_big(m, n, params, cap) when the
    caller has built it already."""
    gm = gram_big(m, n, params, cap) if gram is None else gram
    basis, f = gm.basis, gm.size
    position = {basis_index(b): k for k, b in enumerate(basis)}
    # equal values (delta_a, delta_{m-a} if symmetric) share a code
    G = np.array([gm.values.index(x) for x in gm.values])[gm.index]
    left = [("s", i) for i in range(1, n)] + [("t", 1)]
    right = [("t", 1)] * (n - 2 >= 1) + [("s", i) for i in range(1, n - 2)]
    failures, checked = [], []
    for side, gens in (("left", left), ("right", right)):
        g = [generator(m, n, name, i) for name, i in gens]
        if not g:
            continue
        out = multiply_all(*([g, basis] if side == "left" else [basis, g]))[0]
        if side == "right":
            out = out.swapaxes(0, 1)
        for (name, i), row in zip(gens, out[..., 0].tolist()):
            # P*G == G*P with P[perm[j], j] = 1, perm the basis permutation
            # by the generator g on this side: (P G)[i][j] =
            # G[perm^{-1}(i)][j] and (G P)[i][j] = G[i][perm[j]]
            perm = [position[k] for k in row]
            bad = np.flatnonzero(G[np.argsort(perm)] != G[:, perm])
            tag = "%s-%s%d" % (side, name, i)
            if len(bad):
                r, c = divmod(int(bad[0]), f)
                failures.append({"generator": tag, "i": r, "j": c})
            else:
                checked.append(tag)
    return {"m": m, "n": n, "ok": not failures, "checked": checked,
            "failures": failures, "admissible": is_admissible(params)}


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
    entry is a function of its pair (r0, loops), so cell_pairing checks
    this once, on the pairs' integer codes, and raises otherwise.  With
    F = (xi^{lk})_{l,k} and
    hat X(l) = sum_s X(s) xi^{ls}, F A F^T is m diag(hat A(l)) and F C F^T
    has m hat C(-l) at (l, -l) and zeros elsewhere, so (1_b (x) F) G
    (1_b (x) F)^T is block diagonal over the orbits {l, -l}, with blocks of
    size b or 2b.  F^2 = m J, J the permutation l -> -l, a product of
    floor((m-1)/2) transpositions, so det G = (-1)^{b floor((m-1)/2)} times
    the product of the block determinants with the factors m dropped: no
    division, and the same code for polynomial and field entries.  At n = 2
    the single block is anticirculant in delta_{k_x + k_y} and det G is
    (-1)^{floor((m-1)/2)} prod_l bar_delta_l.
    """
    return cell_form(m, n, mu, params, cell_pairing(m, n))


CellPairing = namedtuple("CellPairing", "half pairs index circulant")


def cell_pairing(m, n):
    """The entry pattern behind cell_gram, which depends on neither mu nor
    the parameters: the half diagrams v_x (w = 1 in v_basis), and
    star(v_x) * v_y is the loops' deltas times alpha_0 (x) t^r0 (x) alpha_0
    for (r0, loops) = pairs[index[x, y]], the distinct pairs; any other
    product raises ValueError.  circulant[a, c] is the kind of arc block
    (a, c), which _block_kinds reads off the codes once, here."""
    if n not in (2, 3):
        raise ValueError("cell Gram matrices need n = 2 or 3, got n = %d" % n)
    half = _half_diagrams(m, n, [identity(m, n - 2)])
    alpha0 = [(n - 1, n, 0)]
    # the m targets alpha_0 (x) t^r (x) alpha_0 (one at n = 2), by r
    targets = {basis_index(from_awb(m, n, alpha0, w, alpha0)): sum(w.colors)
               for w in enumerate_group(m, n - 2)}
    out, loops = multiply_all([star_diagram(x) for x in half], half)
    if not np.isin(out[..., 0], list(targets)).all():
        raise ValueError("product left the span of alpha_0 (x) t^s (x) alpha_0")
    codes, index = np.unique(out.reshape(-1, 2), axis=0, return_inverse=True)
    index = index.reshape(len(half), len(half))
    index.flags.writeable = False  # shared by every form on this pattern
    pairs = [(targets[k], loops[u]) for k, u in codes.tolist()]
    return CellPairing(half, pairs, index, _block_kinds(index, m))


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


def cell_form(m, n, mu, params, pairing, compute_det=True):
    """cell_gram evaluated on a pattern = cell_pairing(m, n): one value per
    distinct pair, indexed by the pattern's own (read-only) index."""
    mu = check_multipartition(mu, m)
    field = params.field
    sizes = [sum(p) for p in mu]
    if n == 2:
        if any(sizes):
            raise ValueError("mu must be the empty multipartition")
        weight = [field.one]  # no through strand: r0 = 0, trivial character
    else:
        if sum(sizes) != 1:
            raise ValueError("mu must be a one-box multipartition")
        l = -sizes.index(1) % m  # (1 - j) mod m, j the box's component
        xi = field.root_of_unity(m)
        weight = [field.embed(m) * xi ** (l * (r - 1) % m) for r in range(m)]
    values = [times_loops(params, params.one * weight[r0], loops)
              for r0, loops in pairing.pairs]
    return GramMatrix("cellular-form", values, pairing.index, pairing.half,
                      _cell_det(pairing, values, m, params) if compute_det
                      else None)


def _cell_det(pairing, values, m, params):
    """det G of the cell Gram matrix values[pairing.index], one
    label-Fourier block per orbit {l, -l}, by minor expansion (identity in
    cell_gram); the field must hold a primitive m-th root of unity."""
    codes = pairing.index.tolist()
    if isinstance(params, SymbolicParams) and len(codes) > 12:
        return None  # symbolic determinant kept to small sizes
    b = len(codes) // m
    xi = params.field.root_of_unity(m)
    powers = [xi ** e for e in range(m)]
    hats = [[[sum((values[v] * powers[l * s % m]
                   for s, v in enumerate(codes[a * m][c * m:(c + 1) * m])
                   if values[v]), params.zero) for l in range(m)]
             for c in range(b)] for a in range(b)]
    circulant = pairing.circulant.tolist()
    det = -params.one if b * ((m - 1) // 2) % 2 else params.one
    for l in range(m // 2 + 1):
        index = [(t, a) for t in sorted({l, -l % m}) for a in range(b)]
        # the transformed matrix at rows (t, a), columns (u, c)
        block = [[hats[a][c][u] if u == (-t % m if circulant[a][c] else t)
                  else params.zero for u, c in index] for t, a in index]
        det = det * minor_det(block, params.zero, params.one)
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
    pairing = cell_pairing(m, 3)
    gm = cell_form(m, 3, mu, params, pairing, compute_det=False)
    zero = cell_form(m, 3, mu, NumericParams(field, [field.zero] * m), pairing)
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
