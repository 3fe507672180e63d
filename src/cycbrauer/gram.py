"""Gram forms on the one-arc module V and on small cell modules.

Two different bilinear forms live here and are kept clearly apart:

* the iota-form on V = span{alpha (x) w (x) alpha_0} (alpha one labelled top
  arc, w in W_{m,n-2}, alpha_0 the arc {n-1,n} with label 0): the pairing of
  x and y is the coefficient of e_{n-1} in iota(x) * y.  Generally not
  symmetric for m >= 3; its use is structural (entry shape, equivariance).
* the cellular star-form on the cell modules (1, mu') for n - 2 <= 1,
  computed via star-products of explicit cell generators.  Symmetric; its
  determinants are the ones that govern semisimplicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from .deltapoly import DeltaPoly
from .diagrams import (AlgebraElement, SymbolicParams, from_awb, generator,
                       iota_diagram, is_admissible, multiply_diagrams,
                       wreath_to_diagram)
from .linalg import gauss_det, gauss_rank, minor_det
from .partitions import check_multipartition
from .scalars import CyclotomicField
from .wreath import WreathElement, compose, enumerate_group, gen_s, gen_t


@dataclass(frozen=True)
class VBasisIndex:
    arc: tuple  # (i, j), i < j <= n
    label: int
    w: WreathElement  # element of W_{m, n-2}


@dataclass
class GramMatrix:
    kind: str  # "iota-form" or "cellular-form"
    size: int
    entries: list
    basis: list = dfield(default_factory=list)
    det: object = None

    def to_json(self):
        return {
            "kind": self.kind,
            "size": self.size,
            "entries": [[str(x) for x in row] for row in self.entries],
            "det": None if self.det is None else str(self.det),
        }


def v_basis(m, n, cap=5000):
    """Basis of V: one labelled top arc, a wreath element on the rest, and
    the fixed bottom arc {n-1, n} with label 0."""
    if n < 2:
        raise ValueError("n >= 2 required")
    group = enumerate_group(m, n - 2)
    f = m * (n * (n - 1) // 2) * len(group)
    if f > cap:
        raise ValueError("dim V = %d exceeds cap %d" % (f, cap))
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for lab in range(m):
                for w in group:
                    out.append(VBasisIndex((i, j), lab, w))
    return out


def v_diagram(m, n, idx):
    return from_awb(m, n, [(idx.arc[0], idx.arc[1], idx.label)], idx.w,
                    [(n - 1, n, 0)])


def v_index_of(diagram):
    """Inverse of v_diagram; raises if the diagram is not in M_1 form."""
    from .diagrams import to_awb
    tops, w, bots = to_awb(diagram)
    n = diagram.n
    if len(tops) != 1 or bots != [(n - 1, n, 0)]:
        raise ValueError("diagram not of the form alpha (x) w (x) alpha_0")
    i, j, lab = tops[0]
    return VBasisIndex((i, j), lab, w)


def pairing(params, x, y, n):
    """<x, y> = coefficient of e_{n-1} in iota(diagram x) * diagram y."""
    m = params.m
    dx = v_diagram(m, n, x)
    dy = v_diagram(m, n, y)
    prod, loops = multiply_diagrams(iota_diagram(dx), dy)
    if prod != generator(m, n, "e", n - 1):
        return params.zero
    c = params.one
    for a in loops:
        c = c * params.delta(a)
    return c


def gram_big(m, n, params, cap=5000):
    """The f x f iota-form matrix on V."""
    basis = v_basis(m, n, cap)
    entries = [[pairing(params, x, y, n) for y in basis] for x in basis]
    return GramMatrix("iota-form", len(basis), entries, basis)


def shape_check(gram, params):
    """Entry shape of the iota-form: diagonal delta_0, off-diagonal in
    {0, 1, delta_1, ..., delta_{m-1}}.  Returns list of violations."""
    d0 = params.delta(0)
    offs = [params.zero, params.one]
    offs += [params.delta(a) for a in range(1, params.m)]
    bad = []
    for i in range(gram.size):
        for j in range(gram.size):
            x = gram.entries[i][j]
            if i == j:
                if x != d0:
                    bad.append((i, j, str(x)))
            elif all(x != o for o in offs):
                bad.append((i, j, str(x)))
    return bad


def _action_matrix_left(m, n, basis, index, w):
    """Permutation matrix of left multiplication by the group element w on
    the basis of V (no loops and no extra arcs can form)."""
    dw = wreath_to_diagram(w)
    cols = []
    for b in basis:
        prod, loops = multiply_diagrams(dw, v_diagram(m, n, b))
        assert not loops
        cols.append(index[v_index_of(prod)])
    return cols  # cols[j] = image row of basis j


def _action_matrix_right(basis, index, y):
    """Right action of y in W_{m,n-2}: w |-> w*y on the middle factor."""
    cols = []
    for b in basis:
        cols.append(index[VBasisIndex(b.arc, b.label, compose(b.w, y))])
    return cols


def equivariance_check(m, n, params, cap=5000):
    """Check that the iota-form endomorphism commutes with the left
    W_{m,n} action and the right W_{m,n-2} action, generator by generator.

    The commutation identities only hold on the admissible parameter locus
    delta_a = delta_{m-a} (automatic for m <= 2); the report records the
    admissibility of the supplied parameters so off-locus failures at m >= 3
    are interpretable."""
    gm = gram_big(m, n, params, cap)
    basis, G = gm.basis, gm.entries
    index = {b: k for k, b in enumerate(basis)}
    f = gm.size
    failures = []
    checked = []

    def commutes(perm_cols, tag):
        # P*G == G*P with P the permutation matrix P[perm_cols[j], j] = 1:
        # (P G)[i][j] = G[p^{-1}(i)][j] and (G P)[i][j] = G[i][perm_cols[j]]
        inv = [0] * f
        for j, i in enumerate(perm_cols):
            inv[i] = j
        for i in range(f):
            for j in range(f):
                if G[inv[i]][j] != G[i][perm_cols[j]]:
                    failures.append({"generator": tag, "i": i, "j": j})
                    return
        checked.append(tag)

    for i in range(1, n):
        commutes(_action_matrix_left(m, n, basis, index, gen_s(m, n, i)),
                 "left-s%d" % i)
    commutes(_action_matrix_left(m, n, basis, index, gen_t(m, n, 1)), "left-t1")
    if n - 2 >= 1:
        commutes(_action_matrix_right(basis, index, gen_t(m, n - 2, 1)),
                 "right-t1")
    for i in range(1, n - 2):
        commutes(_action_matrix_right(basis, index, gen_s(m, n - 2, i)),
                 "right-s%d" % i)
    return {"m": m, "n": n, "ok": not failures, "checked": checked,
            "failures": failures, "admissible": is_admissible(params)}


# ---------------------------------------------------------------------------
# cellular forms for cells (1, mu') with |mu| = n - 2 <= 1
# ---------------------------------------------------------------------------

def cell_gram(m, n, mu, params, compute_det=True):
    """Symmetric Gram matrix of the cell (1, mu') for n in {2, 3}.

    n = 2: mu is the empty m-multipartition; cell basis t_1^s e_1 and
    entries delta_{s+t}.  n = 3: mu has one box, in component j; the cell
    basis is v_i^{(k)} (x) g_l(t_1) (x) v_3^{(0)} with l = (1 - j) mod m
    (taken in 1..m) and g_l(t) = prod_{j' != l}(t - xi^{j'}); the form reads
    the xi^{l s} character of the coefficient of alpha_0 (x) t_1^s (x)
    alpha_0 in star(x) * y.
    """
    if n not in (2, 3):
        raise ValueError("cells with n - 2 > 1 unsupported")
    mu = check_multipartition(mu, m)
    field = params.field

    if n == 2:
        if any(p for p in mu):
            raise ValueError("mu must be the empty multipartition")
        e1 = generator(m, 2, "e", 1)
        basis = []
        for s in range(m):
            w = WreathElement(m, 2, (1, 2), (s % m, 0))
            X = AlgebraElement.of(params, wreath_to_diagram(w)) * \
                AlgebraElement.of(params, e1)
            basis.append(X)
        entries = [[(x.star() * y).coefficient(e1) for y in basis]
                   for x in basis]
        gm = GramMatrix("cellular-form", m, entries, list(range(m)))
        if compute_det:
            gm.det = _sym_or_num_det(entries, params)
        return gm

    # n = 3
    sizes = [sum(p) for p in mu]
    if sum(sizes) != 1:
        raise ValueError("mu must be a one-box multipartition")
    j = sizes.index(1) + 1  # component of the box, 1-based
    l = (1 - j) % m
    if l == 0:
        l = m
    xi = field.root_of_unity(m)
    # g_l(t) = prod_{j' = 1..m, j' != l} (t - xi^{j'}) as coefficients of t^s
    coeffs = [field.one]
    for jp in range(1, m + 1):
        if jp == l:
            continue
        root = xi ** (jp % m)
        nxt = [field.zero] * (len(coeffs) + 1)
        for s, c in enumerate(coeffs):
            nxt[s + 1] = nxt[s + 1] + c
            nxt[s] = nxt[s] - c * root
        coeffs = nxt

    arcs0 = {1: (1, 2), 2: (1, 3), 3: (2, 3)}  # v_1, v_2, v_3 top arcs

    def basis_vector(i, k):
        terms = None
        for s, c in enumerate(coeffs):
            if not c:
                continue
            w = WreathElement(m, 1, (1,), (s % m,))
            d = from_awb(m, 3, [(arcs0[i][0], arcs0[i][1], k)], w, [(2, 3, 0)])
            el = AlgebraElement.of(params, d, params.one * c)
            terms = el if terms is None else terms + el
        return terms

    # target diagrams alpha_0 (x) t_1^s (x) alpha_0
    targets = {}
    for s in range(m):
        w = WreathElement(m, 1, (1,), (s,))
        targets[from_awb(m, 3, [(2, 3, 0)], w, [(2, 3, 0)])] = s

    # reading against one copy of g_l: the xi^{ls} character applied to
    # star(x)*y picks up chi_l(g_l) = prod_{j != l}(xi^l - xi^j)
    # = m * xi^{l(m-1)}, so divide it back out
    norm = (field.embed(m) * xi ** ((l * (m - 1)) % m)).inverse()

    def phi(X, Y):
        prod = X.star() * Y
        out = params.zero
        for d, c in prod.terms.items():
            if d not in targets:
                raise ValueError("product left the span of alpha_0 (x) t^s (x) alpha_0")
            out = out + c * (xi ** ((l * targets[d]) % m))
        return out * norm

    basis = [(i, k) for i in (1, 2, 3) for k in range(m)]
    vecs = {bk: basis_vector(*bk) for bk in basis}
    entries = [[phi(vecs[x], vecs[y]) for y in basis] for x in basis]
    gm = GramMatrix("cellular-form", 3 * m, entries, basis)
    if compute_det:
        gm.det = _sym_or_num_det(entries, params)
    return gm


def _sym_or_num_det(entries, params):
    """Entries are delta polynomials for symbolic parameters (minor
    expansion, no division) and field elements otherwise."""
    if isinstance(params, SymbolicParams):
        if len(entries) > 12:
            return None  # symbolic determinant kept to small sizes
        return minor_det(entries, params.zero, params.one)
    return gauss_det(entries, params.field.one)


def anticirculant_det(field, deltas):
    """Reference value +-prod_i bar_delta_i for the (m,2) cell determinant:
    det(delta_{s+t})_{s,t} with the sign of the row-reversal permutation."""
    from .criterion import bar_deltas
    m = len(deltas)
    bars = bar_deltas(field, deltas)
    out = field.one
    for b in bars:
        out = out * b
    # reversing rows 1..m-1 has sign (-1)^{(m-1)(m-2)/2}
    if ((m - 1) * (m - 2) // 2) % 2:
        out = -out
    return out


def single_box_gram(m, params=None):
    """The 3m x 3m cell Gram matrix at n = 3, mu the box in component 1,
    compared entrywise with the block form [[0,A,A],[A,0,A],[A,A,0]],
    A = m * ones, which the evaluation at delta = 0 is expected to match.

    Returns (GramMatrix, report) where the report states whether the block
    form holds identically in delta or only at delta = 0, lists mismatches,
    and records determinant and rank at delta = 0.
    """
    if m < 2:
        raise ValueError("m >= 2 required")
    if params is None:
        params = SymbolicParams(m, CyclotomicField(m))
    mu = tuple([(1,)] + [()] * (m - 1))
    gm = cell_gram(m, 3, mu, params, compute_det=False)
    field = params.field
    a = field.embed(m)
    mismatches = []
    identical = True
    zeros = [field.zero] * m
    at_zero_rows = []
    for r in range(3 * m):
        row = []
        for c in range(3 * m):
            want = field.zero if r // m == c // m else a
            x = gm.entries[r][c]
            if isinstance(x, DeltaPoly):
                val = x.evaluate(zeros)
                if x != x.ring.embed(val):
                    identical = False
            else:
                val = x
            row.append(val)
            if val != want:
                mismatches.append({"row": r, "col": c, "got": str(val),
                                   "want": str(want)})
        at_zero_rows.append(row)
    det0 = gauss_det(at_zero_rows, field.one)
    rank0 = gauss_rank(at_zero_rows)
    gm.det = det0
    report = {"m": m, "matches_printed_at_zero": not mismatches,
              "identical_in_delta": identical and not mismatches,
              "mismatches": mismatches,
              "det_at_zero": str(det0), "rank_at_zero": rank0}
    return gm, report
