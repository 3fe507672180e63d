"""Brute-force semisimplicity oracle and the concordance harness.

The oracle is independent of the criterion machinery: it computes the trace
form of the left regular representation on the full diagram basis and
measures its radical, which in characteristic 0 equals the Jacobson radical
of the algebra.  Characteristic p is refused rather than risked.

Structure table: diagrams.multiply_all of the basis with itself, which
composes every pair of skeletons at once by array gathers and reads each
product's index and loops from packed labels through small lookup tables,
stored as an int32 array of (product index, loop monomial index) rows.

Trace form: T travels from the table to the certificate as one pair
(values, index).  values lists the distinct entries, each computed once in
exact field arithmetic; index is an N x N array of the smallest unsigned
dtype with T_ij = values[index[i, j]].  Flattening, reduction mod p and
the exact check all work per distinct value, and numpy only counts and
indexes.

Plan and evaluation.  What does not depend on delta is built once per
StructureTable, which a sweep item shares across its points: the products,
the trace plan (diagonal monomial counts, the distinct count rows, the
numbering of (monomial, trace class) pairs and the read-only index) and
the symmetry plan (below).  The modular primes are found once per m, and
the cell determinants of the n in {2, 3} cross-check once per (m, n,
field), as polynomials in the bar coordinates whose block guard runs
there (gram.cell_factors).  The oracle pass, semisimple_verdicts, takes
a built table and a list of points, and a sweep item makes one pass over
its points on its own table: each point evaluates only its monomials,
traces and values, the symmetry checks and one bar transform, at which
the cross-check evaluates the cells' factors, and the certified ranks of
all the points are found together.  A single verdict (semisimple_verdict)
is the pass over one point on a table of its own.

Symmetry blocks.  On the admissible locus T(x, y) = tr(L_{xy}) keeps its
value when one basis permutation g acts on both x and y, for three kinds
of g: conjugation by a group element (as in any associative algebra), star
and the negation of every label; off the locus they may fail.  The plan
holds commuting involutions of these kinds (_involutions) and, for each g,
the pairs of entry codes (index[i, j], index[g i, g j]) (_code_pairs).
Each point checks values[v] == values[w] on every pair of a generator, so
g fixes T exactly or is dropped for that point.  The kept generators span
an elementary abelian 2-group G.  For a character chi of G, the vectors
sum_h chi(h) e_{h r} over the orbits G r whose stabiliser chi is trivial
on (as many as the orbit's points; Serre, Linear Representations of Finite
Groups, 2.6) make a basis change of determinant +-2^k, invertible over Q
and mod every odd p, under which T becomes block diagonal: the chi and psi
blocks meet in sum_g chi(g) psi(g) = 0 unless chi = psi.  Up to rows and
columns scaled by powers of 2, chi's block is
T_chi[r, r'] = sum_h chi(h) T[r, h r'] (_character_blocks), so the rank of
T, over Q and mod each odd prime, is the sum of the block ranks, and so is
the radical (as in Cohen-Ivanyos-Wales, JPAA 1997).  With no generator
kept, G is trivial and T is its one block.

Rank strategy: a trace matrix whose entries are all rational (so whenever
every delta_a is real and m is 1, 2, 3, 4 or 6, as Q(zeta_m) meets R in Q;
this covers every point the concordance sweep generates) has the same rank
over Q(zeta_m) as over Q and is used as it is.  Otherwise it is viewed as
a matrix over Q by replacing every cyclotomic entry with its
phi(m) x phi(m) regular-representation block, and so is each symmetry
block: the same permutations act on the flat matrix, lifted to
(i*phi(m) + r).  The points of a pass with the same kept generators and
the same flattening share their blocks' index stacks and one list of
primes: the first four large primes that divide no denominator of any of
their entries.  Each point's T is scaled to integers by the lcm of its
denominators, a unit mod each of these primes, so the scaled T has the
same rank, pivots and kernel mod p as T itself.  At each prime in turn,
every (point, block) matrix of one shape that no earlier prime settled is
reduced in one stacked modular row reduction (rref_mod_p on a (k, b, b)
stack): the Python loop runs once per column of the stack, not once per
pivot of each matrix.  A stack is summed one group element at a time, so
a rank holds arrays of the stack's size (the stack and, in rref_mod_p, its
echelon rows, k x b x b each) or one elimination panel of its rows (at
most 64 columns), never a (k x |G| x b x b) gather.  Full rank mod p
certifies a block outright, after the forward pass alone (rref_mod_p
computes no reduced form for a stack of full rank).  A rank deficit is
certified by rationally reconstructing the kernel basis (each distinct
residue of the stack once) and verifying T v = 0 exactly on the scaled T,
with each matrix's kernel scaled by one common denominator, held as int64
(as Python integers only from 2^62 up); the products of a stack are
formed in one call, in float64 or int64 only under a bound proven for the
whole stack.  A block that no prime certifies (never observed) is
ranked by exact fraction elimination if it has at most 160 rows; a larger
one raises ArithmeticError, so the CLI exits 2 and a sweep stops.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import groupby, islice
from math import lcm, prod

import numpy as np

from . import __version__
from .criterion import VARIANTS, bar_deltas, decide, g_mu_values, z_set
from .diagrams import (OFF_LOCUS_NOTE, basis_index, basis_involutions,
                       basis_size, deltas_admissible, enumerate_basis,
                       generator, identity_diagram, multiply_all)
from .gram import cell_det_at, cell_factors
from .linalg import gauss_rank, modular_primes, rational_reconstruct, rref_mod_p
from .scalars import CyclotomicField, power

CONTENT_ASSUMPTION = ("box content c = col - row, 1-based, identical in every "
                      "component of a multipartition (component-blind)")


class StructureTable:
    """All N^2 products of basis diagrams, each a single basis diagram times
    a monomial in delta_0..delta_{m-1}.

    ``products`` is diagrams.multiply_all of the basis with itself, an int32
    array with N^2 rows: row i*N + j holds the index k of the product
    diagram of b_i * b_j and the index u of its loop monomial;
    ``monomials[u]`` holds the exponents of delta_0..delta_{m-1} (the loop
    counts of the u-th loop multiset).

    The trace plan, what trace_matrix needs that no delta changes:
    ``trace_rows[t]`` lists the (monomial, count) pairs whose sum is the
    t-th distinct trace, ``value_pairs[v]`` the (monomial, trace) pair of
    the v-th distinct entry of T, and ``index`` (N x N, read-only) the
    entry of each T_ij.  The symmetry plan: ``symmetries`` lists each
    generator tried (a basis permutation) with its code pairs, and the
    blocks of each set of generators that passed are kept once built.
    """

    def __init__(self, m, n, cap=500):
        N = basis_size(m, n)
        if N > cap:
            raise ValueError("basis size %d exceeds cap %d" % (N, cap))
        self.m = m
        self.n = n
        self.basis = enumerate_basis(m, n)
        self.size = N
        out, loops = multiply_all(self.basis, self.basis)
        self.products = products = out.reshape(N * N, 2)
        self.monomials = np.array([[labels.count(a) for a in range(m)]
                                   for labels in loops])
        # the trace plan (see trace_matrix): trace(L_{b_k}) sums the
        # monomials on the diagonal of L_{b_k}, so its class is the row of
        # their counts, and T_ij is numbered by its (monomial, class) pair
        U = len(self.monomials)
        k, mono = products[:, 0], products[:, 1]
        i, j = np.nonzero(k.reshape(N, N) == np.arange(N))
        counts = np.bincount(i * U + mono.reshape(N, N)[i, j],
                             minlength=N * U).reshape(N, U)
        count_rows, trace_class = np.unique(counts, axis=0, return_inverse=True)
        self.trace_rows = [[(u, c) for u, c in enumerate(row) if c]
                           for row in count_rows.tolist()]
        T = len(self.trace_rows)
        code = mono * T + trace_class[k]
        occurs = np.zeros(U * T, dtype=bool)
        occurs[code] = True
        self.value_pairs = [divmod(pair, T)
                            for pair in np.flatnonzero(occurs).tolist()]
        V = len(self.value_pairs)
        self.index = ((np.cumsum(occurs) - 1)[code].reshape(N, N)
                      .astype(np.min_scalar_type(V - 1)))
        self.index.flags.writeable = False
        self.symmetries = [(g, _code_pairs(self.index, g, V))
                           for g in _involutions(self)]
        self._blocks = {}

    def blocks(self, values):
        """The symmetry blocks of T = (values, table.index): each an index
        stack S with block sum_h values'[S[h]], values' being values
        followed by their negatives.  T is congruent to the direct sum of
        the blocks (see the module docstring); only the generators that
        fix every entry of T, checked exactly on their code pairs, are
        used."""
        kept = tuple(k for k, (_, pairs) in enumerate(self.symmetries)
                     if all(values[v] == values[w] for v, w in pairs))
        if kept not in self._blocks:
            self._blocks[kept] = _character_blocks(
                self.index, [self.symmetries[k][0] for k in kept],
                len(values))
        return self._blocks[kept]


def _involutions(table):
    """The symmetries of the trace form tried at each point, as basis
    permutations: star, the negation of every label, and conjugation by
    t_i^{m/2} for every i (m even) or by s_1, s_3, ... (m odd), two lookups
    each in the table's products.  One already in the group that the
    earlier ones generate (the identity, say) is left out, and the rest are
    checked to be commuting involutions: any k of them generate a group of
    order 2^k."""
    m, n, N = table.m, table.n, table.size
    candidates = list(basis_involutions(table.basis))
    if m % 2:
        elements = [basis_index(generator(m, n, "s", i))
                    for i in range(1, n, 2)]
    else:  # t_i^{m/2} labels strand i, the i-th arc of the identity, m/2
        one = basis_index(identity_diagram(m, n))
        elements = [one + m // 2 * m ** (n - i) for i in range(1, n + 1)]
    product = table.products[:, 0].reshape(N, N)
    candidates += [product[product[g], g] for g in elements]  # g = g^-1
    group, gens = [np.arange(N)], []
    for g in candidates:
        if any(np.array_equal(g, e) for e in group):
            continue
        if not (np.array_equal(g[g], group[0])
                and all(np.array_equal(g[h], h[g]) for h in gens)):
            raise AssertionError("symmetries are not commuting involutions")
        gens.append(g)
        group += [g[e] for e in group]
    return gens


def _code_pairs(index, g, V):
    """The pairs v < w of entry codes of T with T_ij = values[v] and
    T_{g(i) g(j)} = values[w] for some i, j: g fixes T iff values[v] ==
    values[w] on each."""
    moved = index.take(g, axis=0).take(g, axis=1)
    occurs = np.zeros(V * V, dtype=bool)
    occurs[index.astype(np.min_scalar_type(V * V - 1)) * V + moved] = True
    v, w = np.divmod(np.flatnonzero(occurs), V)
    return [(a, b) for a, b in zip(v.tolist(), w.tolist()) if a < b]


def _character_blocks(index, gens, V):
    """The blocks of T_ij = values[index[i, j]] under the group generated by
    the commuting involutions gens, one per character chi of it.

    The orbit representatives r whose stabiliser chi is trivial on index the
    rows and columns of chi's block, whose (r, r') entry is
    sum_h chi(h) T[r, h(r')] over the group; its stack holds
    index[r, h(r')] at h, plus V where chi(h) = -1.
    """
    N = len(index)
    group = [np.arange(N)]  # element h: the product of gens at h's bits
    chi = np.ones((1, 1), dtype=int)  # chi_c(h) at c, h: Walsh-Hadamard
    for g in gens:
        group += [g[e] for e in group]
        chi = np.kron([[1, 1], [1, -1]], chi)
    group = np.array(group)
    reps = np.flatnonzero(group.min(axis=0) == np.arange(N))
    fixes = group[:, reps] == reps
    odd = chi < 0
    dtype = np.min_scalar_type(2 * V - 1)
    shifts = np.where(odd, V, 0).astype(dtype)
    blocks = []
    for shift, keep in zip(shifts, ~(fixes & odd[:, :, None]).any(axis=1)):
        rows = reps[keep]
        if len(rows):
            stack = index[rows][:, group[:, rows]].astype(dtype, copy=False)
            stack += shift[:, None]
            blocks.append(stack.swapaxes(0, 1))
    if sum(stack.shape[-1] for stack in blocks) != N:
        raise AssertionError("symmetry blocks do not partition the basis")
    return blocks


def trace_matrix(table, field, deltas):
    """T_{ij} = trace of left multiplication by b_i * b_j, as the pair
    (values, index) with T_ij = values[index[i, j]].

    With b_i b_j = mono_ij b_k, T_ij = mono_ij * trace(L_{b_k}), and
    trace(L_{b_k}) sums mono_kr over the r with b_k b_r in the span of b_r.
    The table's trace plan fixes which sums and products occur and the
    index; here each distinct monomial, trace and (monomial, trace) product
    is computed once in exact field arithmetic.  The index is the table's
    own, read-only.
    """
    deltas = [field.coerce(d) for d in deltas]
    monos = [prod((power(d, e, field.one)
                   for d, e in zip(deltas, exps, strict=True)),
                  start=field.one)
             for exps in table.monomials.tolist()]
    traces = [sum((monos[u] * c for u, c in row), field.zero)
              for row in table.trace_rows]
    values = [monos[u] * traces[t] for u, t in table.value_pairs]
    return values, table.index


def _to_rational_blocks(field, values, blocks):
    """Flatten T = (values, blocks) over Q(zeta_m) to a matrix over Q,
    returned as (values, blocks, deg) of Fractions.  blocks lists the index
    stacks (k, b, b) of a block-diagonal form of T, each flattened alike.

    A matrix whose entries are all rational has the same rank over
    Q(zeta_m) as over Q, so it keeps its blocks (deg = 1).  Otherwise each
    entry becomes its deg x deg multiplication matrix on the power basis
    (deg = phi(m)): block v of the flat values holds values[v], and entry
    (h, i*deg + r, j*deg + c) of a flat stack is cell (r, c) of block
    stack[h, i, j].
    """
    deg = field.degree
    if deg == 1 or not any(any(x.coeffs[1:]) for x in values):
        return [x.coeffs[0] for x in values], blocks, 1
    basis = [field.element([0] * c + [1]) for c in range(deg)]
    flat = []
    for x in values:
        cols = [x * b for b in basis]
        flat.extend(col.coeffs[r] for r in range(deg) for col in cols)
    cells = np.arange(deg * deg).reshape(deg, deg)
    big = [(s[..., None, None].astype(np.intp) * deg * deg + cells)
           .swapaxes(2, 3).reshape(len(s), deg * s.shape[1], -1)
           for s in blocks]
    return flat, big, deg


def _abs_max(x):
    """max |x| of an integer array, 0 if it is empty, as a Python integer
    (exact for int64, where abs would overflow at -2^63)."""
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _product_is_zero(a, b):
    """Whether the product of two integer matrices (numpy int64 arrays, or
    object arrays of Python integers) is exactly zero, or, for two stacks
    of them, each product: a bool array over the stack.  max|a| times the
    largest column sum of |b|, both over the whole stack, bounds every
    partial sum; the products are formed in one float64 BLAS call below
    2^53, in int64 below 2^63 and in Python integers otherwise."""
    if b.dtype != object and _abs_max(b) * b.shape[-2] >= 2 ** 63:
        b = b.astype(object)  # its column sums could overflow int64
    bound = _abs_max(a) * int(abs(b).sum(axis=-2).max())
    dtype = (np.float64 if bound < 2 ** 53 else np.int64 if bound < 2 ** 63
             else object)
    product = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    return ~(product != 0).any(axis=(-2, -1))


def _lift_kernel(kernels, p):
    """The kernel bases mod p of a stack (rref_mod_p's kernels), lifted to
    integer vectors: returns (vectors, ok), ok marking the matrices whose
    every residue has a rational reconstruction (the vectors of the others
    mean nothing).

    Each distinct residue of the stack is lifted once.  A matrix's vectors
    are their rational lifts scaled by one lcm of all that matrix's
    denominators (T v = 0 holds for every multiple of v).  The vectors are
    int64 unless an entry could reach 2^62.
    """
    k = len(kernels)
    distinct, inverse = np.unique(kernels, return_inverse=True)
    lifts = [rational_reconstruct(a, p) for a in distinct.tolist()]
    inverse = inverse.reshape(k, -1)
    present = np.zeros((k, len(lifts)), dtype=bool)
    present[np.arange(k)[:, None], inverse] = True
    ok = ~present[:, [x is None for x in lifts]].any(axis=1)
    lifts = [x or Fraction(0) for x in lifts]
    scales = [lcm(*(lifts[u].denominator for u in np.flatnonzero(row)))
              for row in present.tolist()]
    big = max(scales) * max(abs(x.numerator) for x in lifts) >= 2 ** 62
    dtype = object if big else np.int64
    nums = np.array([x.numerator for x in lifts], dtype=dtype)
    dens = np.array([x.denominator for x in lifts], dtype=dtype)
    # entry u of matrix j: nums[u] scaled by the scale of j (a multiple of
    # dens[u] wherever u occurs in j)
    table = nums * (np.array(scales, dtype=dtype)[:, None] // dens)
    vectors = np.take_along_axis(table, inverse, axis=1)
    return vectors.reshape(kernels.shape), ok


def _block_sums(rows, stacks):
    """sum_h rows[i, stacks[i][h]] for each i, as one (len(rows), b, b)
    stack: stacks[i] is an index stack (k, b, b), equal stacks come
    together, and each run of them adds up one h at a time."""
    out, start = [], 0
    for _, run in groupby(stacks, key=id):
        stop = start + len(list(run))
        part, stack = rows[start:stop], stacks[start]
        acc = part[:, stack[0]]
        for index in stack[1:]:
            acc += part[:, index]
        out.append(acc)
        start = stop
    return np.concatenate(out)


_METHODS = ("modular-full-rank", "modular-certified-kernel", "exact-gauss")


def _rank_exact_certified(values, blocks, primes):
    """Exact ranks of Fraction matrices T that share a block-diagonal form,
    via a modular pass with certificates.  values lists the entries of each
    T; blocks lists the blocks, each an index stack S (k, b, b) that stands
    for the matrix sum_h values[S[h]] of each T; their ranks add up.

    Returns (ranks, method): a rank per T, and the method the most
    demanding (T, block) needed.  The call tries the first four of primes
    that divide no denominator of any T, in turn; at each, the unsettled
    blocks of one shape are reduced as one stack by rref_mod_p, on the
    residues of T scaled to integers (by the lcm of its denominators, a
    unit mod p).  Full rank mod p is already exact (minors can only vanish
    further mod p); a deficit is accepted only once the lifted kernel
    vectors (_lift_kernel) are verified exactly: T v = 0 is checked on the
    scaled T in exact integer arithmetic (_product_is_zero), all the
    matrices of a stack in one product.  The scaled entries stay int64
    unless one could reach 2^62 in a block sum.
    """
    dens = [lcm(*(x.denominator for x in row)) for row in values]
    primes = list(islice((p for p in primes if all(d % p for d in dens)), 4))
    ints = [[x.numerator * (den // x.denominator) for x in row]
            for row, den in zip(values, dens)]
    big = (max(map(len, blocks)) * max(abs(x) for row in ints for x in row)
           >= 2 ** 62)
    scaled = np.array(ints, dtype=object if big else np.int64)
    by_size = {}
    for stack in blocks:
        by_size.setdefault(stack.shape[-1], []).append(stack)
    ranks, worst = [0] * len(values), 0
    for N, stacks in by_size.items():
        # (T, block) pairs, the blocks of one shape in turn
        todo = [(t, stack) for stack in stacks for t in range(len(values))]
        for p in primes:
            if not todo:
                break
            rows = scaled[[t for t, _ in todo]]
            mats = _block_sums((rows % p).astype(np.int64, copy=False),
                               [s for _, s in todo])
            mats %= p
            rank_p, _, kernels = rref_mod_p(mats, p)
            method = np.where(rank_p == N, 0, -1)
            short = np.flatnonzero(rank_p < N)
            if len(short):
                vectors, ok = _lift_kernel(kernels[short], p)
                lifted = short[ok]
                if len(lifted):
                    # verify T v = 0 exactly
                    zero = _product_is_zero(
                        _block_sums(rows[lifted],
                                    [todo[i][1] for i in lifted]),
                        vectors[ok].swapaxes(1, 2))
                    method[lifted[zero]] = 1
            unsettled = []
            for (t, stack), rank, how in zip(todo, rank_p.tolist(),
                                             method.tolist()):
                if how < 0:
                    unsettled.append((t, stack))
                else:
                    ranks[t] += rank
                    worst = max(worst, how)
            todo = unsettled
        for t, stack in todo:
            if N > 160:
                raise ArithmeticError("rank not certifiable within prime "
                                      "budget")
            ranks[t] += gauss_rank(
                [[sum(values[t][v] for v in entry) for entry in row]
                 for row in np.moveaxis(stack, 0, -1).tolist()])
            worst = 2
    return ranks, _METHODS[worst]


def _checked_points(m, field, points):
    """points as a list, each a list of m elements of field (field.coerce);
    a point of another length raises the ValueError of criterion.decide."""
    points = [list(deltas) for deltas in points]
    if any(len(deltas) != m for deltas in points):
        raise ValueError("need m loop parameters")
    return [[field.coerce(d) for d in deltas] for deltas in points]


def _cell_det_values(m, n, field, deltas):
    """Determinants of the k = 1 cell Gram matrices (n in {2, 3} only): the
    cells' factors (gram.cell_factors) at the point's bar transform."""
    bars, factors = bar_deltas(field, deltas), cell_factors(m, n, field)
    tags = ["empty"] if n == 2 else ["box-comp-%d" % j for j in range(1, m + 1)]
    # the box in component j is the cell l = (1 - j) mod m
    return [(tag, cell_det_at(factors[(1 - j) % m], bars, field.one))
            for j, tag in enumerate(tags, 1)]


def semisimple_verdicts(table, field, points):
    """Oracle verdicts on the structure table's (m, n) at points (a
    sequence of delta vectors), with the cell-determinant cross-check for
    n in {2, 3}.

    Each point's T is ranked on its symmetry blocks (StructureTable.blocks),
    flattened to Q if its entries are not all rational.  The points with
    the same kept generators and the same flattening share their blocks'
    index stacks, and are ranked in one call of _rank_exact_certified.

    Returns a dict per point: verdict ("semisimple" / "not-semisimple" /
    "unsupported" in characteristic p), the dimension of the radical of
    the trace form (0 iff semisimple, in characteristic 0) and, for n in
    {2, 3} only, the cell determinants and the cross-check agreement flag
    (must always be True; a failure is an implementation bug, never an
    acceptable discrepancy).  For n <= 1 there is no k = 1 cell to check
    against.  A point without m loop parameters raises ValueError before
    anything is computed.
    """
    m, n = table.m, table.n
    points = _checked_points(m, field, points)
    if field.characteristic:
        return [{"verdict": "unsupported", "reason": "characteristic p"}
                for _ in points]
    groups = {}
    for i, deltas in enumerate(points):
        values, _ = trace_matrix(table, field, deltas)
        kept = table.blocks(values)
        flat, blocks, deg = _to_rational_blocks(
            field, values + [-x for x in values], kept)
        # the table keeps one block list per set of kept generators
        group = groups.setdefault((id(kept), deg), (blocks, deg, [], []))
        group[2].append(i)
        group[3].append(flat)
    radicals = [None] * len(points)
    for blocks, deg, members, flats in groups.values():
        ranks, _ = _rank_exact_certified(flats, blocks,
                                         modular_primes(field.m))
        for i, rank_q in zip(members, ranks):
            if rank_q % deg:
                raise AssertionError("rank over Q not divisible by the "
                                     "field degree")
            radicals[i] = table.size - rank_q // deg
    verdicts = []
    for deltas, rad in zip(points, radicals):
        out = {"verdict": "semisimple" if rad == 0 else "not-semisimple",
               "radical": rad, "admissible": deltas_admissible(deltas)}
        if not out["admissible"]:
            out["note"] = OFF_LOCUS_NOTE
        if n in (2, 3):
            dets = _cell_det_values(m, n, field, deltas)
            out["cell_dets"] = [(tag, str(v)) for tag, v in dets]
            cells_ok = all(v for _, v in dets)
            out["cross_check_agrees"] = (rad == 0) == cells_ok
        verdicts.append(out)
    return verdicts


def semisimple_verdict(m, n, field, deltas, cap=500):
    """The verdict at one point (semisimple_verdicts), on a structure
    table of its own, StructureTable(m, n, cap).  The point is checked
    before any table is built, and none is built in characteristic p or
    when the basis exceeds cap (the verdict is then "unsupported")."""
    (deltas,) = _checked_points(m, field, [deltas])
    if field.characteristic:
        return {"verdict": "unsupported", "reason": "characteristic p"}
    if basis_size(m, n) > cap:
        return {"verdict": "unsupported", "reason": "cap exceeded"}
    return semisimple_verdicts(StructureTable(m, n, cap), field, [deltas])[0]


# ---------------------------------------------------------------------------
# concordance sweep
# ---------------------------------------------------------------------------

def _random_rational(rng):
    return Fraction(rng.randint(-999, 999), rng.randint(1, 1000))


def _hyperplane_point(field, m, i, k, rng):
    """delta vector with eps_{i,0} m - bar_delta_i = k exactly and the other
    bar coordinates random integers (inverse of the bar transform).

    The bar vector is kept symmetric (bar_i = bar_{m-i}), which is exactly
    what makes the resulting deltas admissible; for i != 0 the condition is
    therefore imposed at indices i and m-i simultaneously."""
    bars = [None] * m
    for j in range(m // 2 + 1):
        bars[j] = field.embed(rng.randint(2 * m + 1, 6 * m))
        bars[(m - j) % m] = bars[j]
    bars[i] = field.embed((m if i == 0 else 0) - k)
    bars[(m - i) % m] = bars[i]
    twice = bar_deltas(field, bars)  # m delta_{-j} at j
    minv = field.embed(Fraction(1, m))
    return [twice[-j % m] * minv for j in range(m)]


def concordance_sweep(grid, seed=0, cap=500, generic_points=2,
                      hyperplane_points=2):
    """Compare all criterion variants against the oracle on a delta grid.

    grid: list of (m, n) pairs (or dicts with explicit extra delta points
    under key "deltas": list of integer/Fraction vectors).  Strata per pair:
    the all-zero point, seeded generic rationals, and on-hyperplane points
    for each variant's predicted degeneracy locus.  Generated points are
    kept on the admissible locus delta_a = delta_{m-a} (where the product
    is associative and the oracle sound); explicit fixture points may leave
    it and are then flagged by the oracle.  Returns the report dict.

    The sweep is sweep_points followed by sweep_item on each item, so a
    caller may evaluate the items in any order or process.
    """
    items = sweep_points(grid, seed, generic_points, hyperplane_points)
    points = [rec for item in items for rec in sweep_item(item, cap)]
    return concordance_report(points, seed, cap)


def sweep_points(grid, seed=0, generic_points=2, hyperplane_points=2):
    """The points of a sweep, one (m, n, [(provenance, deltas), ...]) item
    per grid item, all drawn from one generator seeded with seed."""
    rng = random.Random(seed)
    items = []
    for item in grid:
        if isinstance(item, dict):
            m, n = item["m"], item["n"]
            extra = item.get("deltas", [])
        else:
            m, n = item
            extra = []
        field = CyclotomicField(m)
        todo = [("delta-zero", [field.zero] * m)]
        for idx in range(generic_points):
            # sample on the admissible locus: free coordinates 0..m//2,
            # the rest mirrored
            free = [field.embed(_random_rational(rng))
                    for _ in range(m // 2 + 1)]
            todo.append(("generic-random",
                         [free[min(j, m - j)] for j in range(m)]))
        if m >= 2 and n >= 2:
            locus = sorted(set(z_set(m, n, "printed")) | set(z_set(m, n, "combinatorial")))
            taken = 0
            for k in locus:
                # indices i and m-i give the same admissible hyperplane
                for i in range(m // 2 + 1):
                    if taken >= hyperplane_points:
                        break
                    todo.append(("on-hyperplane",
                                 _hyperplane_point(field, m, i, k, rng)))
                    taken += 1
        for vec in extra:
            todo.append(("fixture", [field.coerce(v) for v in vec]))
        items.append((m, n, todo))
    return items


def sweep_item(item, cap=500):
    """The report records of one sweep_points item: every criterion
    variant and the oracle at each point, on one shared structure table,
    with the oracle's ranks certified for all the points together."""
    m, n, todo = item
    field = CyclotomicField(m)
    oracles = semisimple_verdicts(StructureTable(m, n, cap), field,
                                  [d for _, d in todo])
    points = []
    for (provenance, deltas), oracle in zip(todo, oracles):
        rec = {"m": m, "n": n, "provenance": provenance,
               "deltas": [field.format_element(d) for d in deltas]}
        verdicts = {}
        for variant in VARIANTS:
            v = decide(m, n, field, deltas, variant)
            verdicts[variant] = v.to_json()
        rec["criteria"] = verdicts
        if n >= 2:
            rec["g_mu"] = [{"mu": [list(p) for p in mu], "value": str(v)}
                           for mu, v in g_mu_values(m, n, field, deltas)]
        rec["oracle"] = oracle
        rec["agreement"] = {
            variant: verdicts[variant]["decision"] == oracle.get("verdict")
            for variant in VARIANTS}
        points.append(rec)
    return points


def concordance_report(points, seed, cap):
    """The report of a sweep: its settings, the points and the summary
    (disagreements with the oracle and cross-check failures)."""
    disagreements = [
        {"m": p["m"], "n": p["n"], "provenance": p["provenance"],
         "deltas": p["deltas"],
         "variants": [v for v, ok in p["agreement"].items() if not ok]}
        for p in points if not all(p["agreement"].values())]
    cross_failures = [p for p in points
                      if p["oracle"].get("cross_check_agrees") is False]
    return {
        "schema_version": 1,
        "engine_version": __version__,
        "seed": seed,
        "caps": {"basis": cap},
        "assumption": CONTENT_ASSUMPTION,
        "points": points,
        "summary": {
            "num_points": len(points),
            "num_disagreements": len(disagreements),
            "disagreements": disagreements,
            "generic_disagreements": [d for d in disagreements
                                      if d["provenance"] == "generic-random"],
            "cross_check_failures": len(cross_failures),
        },
    }


def report_csv(report):
    """Flat CSV rendering of a concordance report."""
    import csv
    import io
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["m", "n", "provenance", "deltas", "oracle", "radical"]
               + ["decision_" + v for v in VARIANTS]
               + ["agree_" + v for v in VARIANTS])
    for p in report["points"]:
        w.writerow([p["m"], p["n"], p["provenance"], ";".join(p["deltas"]),
                    p["oracle"].get("verdict"), p["oracle"].get("radical")]
                   + [p["criteria"][v]["decision"] for v in VARIANTS]
                   + [p["agreement"][v] for v in VARIANTS])
    return buf.getvalue()
