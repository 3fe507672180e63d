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
numbering of (monomial, trace class) pairs and the read-only index), the
symmetry plan (below) and, on first use, the cell pairing of the n in
{2, 3} cross-check.  The modular primes are found once per m.  Each point
then evaluates only its monomials, traces and values, the symmetry checks,
the cell Gram entries and determinants (the circulant guard included), and
the certified rank.

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
(i*phi(m) + r).  Each block is ranked on its own, on the same certified
path.  A modular row reduction at a large prime gives the fast answer.
Full rank mod p certifies semisimplicity outright, after the forward pass
alone (rref_mod_p computes no reduced form at full rank).  A rank deficit
is certified by rationally reconstructing the kernel basis (only the
distinct residues of its pivot columns: its free columns are the
identity) and verifying T v = 0 exactly, with T scaled to integers and
the kernel by one common denominator, held as int64 (as Python integers
only from 2^62 up); the product is formed in float64 or int64 only under a
proven bound.  A block that no prime certifies (never observed) is ranked
by exact fraction elimination if it has at most 160 rows; a larger one
raises ArithmeticError, so the CLI exits 2 and a sweep stops.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import lcm, prod

import numpy as np

from . import __version__
from .criterion import VARIANTS, bar_deltas, decide, g_mu_values, z_set
from .diagrams import (OFF_LOCUS_NOTE, NumericParams, basis_index,
                       basis_involutions, basis_size, deltas_admissible,
                       enumerate_basis, generator, identity_diagram,
                       multiply_all)
from .gram import cell_form, cell_pairing
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

    @cached_property
    def cell_pairing(self):
        """The cell forms' entry pattern gram.cell_pairing(m, n), built and
        its block kinds checked once, on first use (n in {2, 3})."""
        return cell_pairing(self.m, self.n)


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
    monos = [prod((power(d, e, field.one) for d, e in zip(deltas, exps)),
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
    object arrays of Python integers) is exactly zero.  max|a| times the
    largest column sum of |b| bounds every partial sum; the product is formed
    in float64 BLAS below 2^53, in int64 below 2^63 and in Python integers
    otherwise."""
    if b.dtype != object and _abs_max(b) * len(b) >= 2 ** 63:
        b = b.astype(object)  # its column sums could overflow int64
    bound = _abs_max(a) * int(abs(b).sum(axis=0).max())
    dtype = (np.float64 if bound < 2 ** 53 else np.int64 if bound < 2 ** 63
             else object)
    return not np.count_nonzero(a.astype(dtype, copy=False)
                                @ b.astype(dtype, copy=False))


def _lift_kernel(kernel, pivots, p):
    """The rows of a kernel basis mod p from rref_mod_p, lifted to integer
    vectors, or None if a residue has no rational reconstruction.

    Every vector is its rational lift scaled by one lcm of all the
    denominators (T v = 0 holds for every multiple of v).  The basis is the
    identity on the free columns, so only the distinct residues of its
    pivot columns are lifted.  The vectors are int64 unless an entry could
    reach 2^62.
    """
    block = kernel[:, pivots]
    distinct, inverse = np.unique(block, return_inverse=True)
    lifts = [rational_reconstruct(a, p) for a in distinct.tolist()]
    if any(x is None for x in lifts):
        return None
    inverse = inverse.reshape(block.shape)
    scale = lcm(*(x.denominator for x in lifts))
    nums = [x.numerator * (scale // x.denominator) for x in lifts]
    dtype = object if max([scale, *map(abs, nums)]) >= 2 ** 62 else np.int64
    free = np.ones(kernel.shape[1], dtype=bool)
    free[pivots] = False
    vectors = np.empty(kernel.shape, dtype=dtype)
    vectors[:, free] = kernel[:, free].astype(dtype) * scale  # the identity
    vectors[:, pivots] = np.array(nums, dtype=dtype)[inverse]
    return vectors


_METHODS = ("modular-full-rank", "modular-certified-kernel", "exact-gauss")


def _rank_exact_certified(values, blocks, primes):
    """Exact rank of a Fraction matrix T via a modular pass with
    certificates.  blocks lists the blocks of a block-diagonal form of T,
    each an index stack S (k, b, b) that stands for the matrix
    sum_h values[S[h]]; their ranks add up.

    Returns (rank, method), the method the most demanding any block needed;
    the primes tried are the first four of primes that divide no denominator
    of T.  Full rank mod p is already exact (minors can only vanish further
    mod p); a deficit is accepted only once the lifted kernel vectors
    (_lift_kernel) are verified exactly: T is scaled to integers and T v = 0
    is checked in exact integer arithmetic.  Each distinct entry is scaled,
    and reduced mod each prime tried, once for all the blocks, and T stays
    int64 unless a scaled entry could reach 2^62.
    """
    den = lcm(*(x.denominator for x in values))
    ints = [x.numerator * (den // x.denominator) for x in values]
    big = max(map(len, blocks)) * max(map(abs, ints)) >= 2 ** 62
    scaled = np.array(ints, dtype=object if big else np.int64)
    primes = list(islice((p for p in primes if den % p), 4))
    residues = {}  # per prime, on first use
    rank, worst = 0, 0
    for stack in blocks:
        N = stack.shape[-1]
        for p in primes:
            if p not in residues:
                residues[p] = np.array(
                    [x.numerator * pow(x.denominator, -1, p) % p
                     for x in values], dtype=np.int64)
            rank_p, pivots, kernel = rref_mod_p(
                residues[p][stack].sum(axis=0), p)
            if rank_p == N:
                method = 0
                break
            vectors = _lift_kernel(kernel, pivots, p)
            # verify T v = 0 exactly
            if vectors is not None and _product_is_zero(
                    scaled[stack].sum(axis=0), vectors.T):
                method = 1
                break
        else:
            if N > 160:
                raise ArithmeticError("rank not certifiable within prime "
                                      "budget")
            rank_p, method = gauss_rank(
                [[sum(values[v] for v in entry) for entry in row]
                 for row in np.moveaxis(stack, 0, -1).tolist()]), 2
        rank += rank_p
        worst = max(worst, method)
    return rank, _METHODS[worst]


def radical_dimension(table, field, deltas):
    """dim of the radical of the trace form; 0 iff semisimple (char 0).
    T is ranked on its symmetry blocks (StructureTable.blocks)."""
    if field.characteristic:
        raise ValueError("oracle is valid in characteristic 0 only")
    values, _ = trace_matrix(table, field, deltas)
    flat, blocks, deg = _to_rational_blocks(
        field, values + [-x for x in values], table.blocks(values))
    rank_q, method = _rank_exact_certified(flat, blocks,
                                           modular_primes(field.m))
    if rank_q % deg:
        raise AssertionError("rank over Q not divisible by the field degree")
    return table.size - rank_q // deg


def _cell_det_values(table, field, deltas):
    """Determinants of the k = 1 cell Gram matrices (n in {2, 3} only),
    evaluated on the table's cell pairing."""
    m, n = table.m, table.n
    if n == 2:
        cells = [("empty", tuple(() for _ in range(m)))]
    else:
        cells = [("box-comp-%d" % j,
                  tuple((1,) if c == j else () for c in range(1, m + 1)))
                 for j in range(1, m + 1)]
    params = NumericParams(field, deltas)
    return [(tag, cell_form(m, n, mu, params, table.cell_pairing).det)
            for tag, mu in cells]


def semisimple_verdict(m, n, field, deltas, table=None, cap=500):
    """Oracle verdict with the cell-determinant cross-check for n in {2, 3}.

    Returns a dict: verdict ("semisimple" / "not-semisimple" /
    "unsupported"), radical dimension and, for n in {2, 3} only, the cell
    determinants and the cross-check agreement flag (must always be True;
    a failure is an implementation bug, never an acceptable discrepancy).
    For n <= 1 there is no k = 1 cell to check against.
    """
    if field.characteristic:
        return {"verdict": "unsupported", "reason": "characteristic p"}
    if basis_size(m, n) > cap:
        return {"verdict": "unsupported", "reason": "cap exceeded"}
    deltas = [field.coerce(d) for d in deltas]
    if table is None:
        table = StructureTable(m, n, cap)
    rad = radical_dimension(table, field, deltas)
    out = {"verdict": "semisimple" if rad == 0 else "not-semisimple",
           "radical": rad, "admissible": deltas_admissible(deltas)}
    if not out["admissible"]:
        out["note"] = OFF_LOCUS_NOTE
    if n in (2, 3):
        dets = _cell_det_values(table, field, deltas)
        out["cell_dets"] = [(tag, str(v)) for tag, v in dets]
        cells_ok = all(v for _, v in dets)
        out["cross_check_agrees"] = (rad == 0) == cells_ok
    return out


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
            todo.append(("fixture", [field.embed(v) for v in vec]))
        items.append((m, n, todo))
    return items


def sweep_item(item, cap=500):
    """The report records of one sweep_points item: every criterion
    variant and the oracle at each point, on one shared structure table."""
    m, n, todo = item
    field = CyclotomicField(m)
    table = StructureTable(m, n, cap)
    points = []
    for provenance, deltas in todo:
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
        oracle = semisimple_verdict(m, n, field, deltas, table=table, cap=cap)
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
