"""Brute-force semisimplicity oracle and the concordance harness.

The oracle is independent of the criterion machinery: it computes the trace
form of the left regular representation on the full diagram basis and
measures its radical, which in characteristic 0 equals the Jacobson radical
of the algebra.  Characteristic p is refused rather than risked.

Structure table: each pair of unlabelled skeletons is traced once with
every label carried as a signed linear form in the 2n input labels; all
labellings then follow from one integer matrix product mod m, stored as an
int32 array of (product index, loop counts) rows.  The trace form is built
from that array, evaluating each distinct loop monomial, trace and entry
once in exact field arithmetic.

Rank strategy: a trace matrix whose entries are all rational (so whenever
every delta_a is real and m is 1, 2, 3, 4 or 6, as Q(zeta_m) meets R in Q;
this covers every point the concordance sweep generates) has the same rank
over Q(zeta_m) as over Q and is used as it is.  Otherwise it is viewed as
a matrix over Q by replacing every cyclotomic entry with its
phi(m) x phi(m) regular-representation block.  A modular row reduction at
a large prime, reducing each distinct entry once, gives the fast answer;
full rank mod p certifies semisimplicity outright, and a rank deficit is
certified by rationally reconstructing the mod-p kernel basis and
verifying T v = 0 exactly in integer arithmetic (T and v scaled to
integers; int64 only under a proven overflow bound).  If reconstruction
fails at every prime (never observed), exact fraction elimination is the
fallback for small sizes and the point is reported unresolved otherwise.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import lcm

import numpy as np

from . import __version__
from .criterion import VARIANTS, decide, g_mu
from .diagrams import NumericParams, basis_size, compose_strands, enumerate_basis
from .gram import cell_gram, format_scalar
from .linalg import gauss_rank, primes_for_modular, rational_reconstruct, rref_mod_p
from .partitions import multipartitions
from .scalars import CyclotomicField

CONTENT_ASSUMPTION = ("box content c = col - row, 1-based, identical in every "
                      "component of a multipartition (component-blind)")


def deltas_admissible(deltas):
    """Whether delta_a = delta_{m-a} for all a.  The diagram product is
    associative exactly on this locus (automatically for m <= 2), so the
    trace-form radical is only algebra-theoretically meaningful there."""
    m = len(deltas)
    return all(deltas[a] == deltas[(m - a) % m] for a in range(1, m))


class StructureTable:
    """All N^2 products of basis diagrams, each a single basis diagram times
    a monomial in delta_0..delta_{m-1}.

    ``products`` is an int32 array with N^2 rows: row i*N + j holds the
    index k of the product diagram of b_i * b_j, then the exponents of
    delta_0..delta_{m-1} (the loop counts per label).

    The basis lists each unlabelled skeleton with its m^n labellings in
    lexicographic order.  For a fixed pair of skeletons the product skeleton
    is fixed, and every output arc and loop label is a signed linear form
    in the 2n input labels, so each skeleton pair is traced once (by
    ``compose_strands``, on unit-vector labels) and all m^{2n} labellings
    follow from one integer matrix product mod m.
    """

    def __init__(self, m, n, cap=500):
        N = basis_size(m, n)
        if N > cap:
            raise ValueError("basis size %d exceeds cap %d" % (N, cap))
        self.m = m
        self.n = n
        self.basis = enumerate_basis(m, n)
        self.size = N
        M = m ** n  # labellings per skeleton
        S = N // M
        skeletons = [self.basis[s * M].arcs for s in range(S)]
        skeleton_index = {arcs: s for s, arcs in enumerate(skeletons)}
        unit = np.eye(2 * n, dtype=np.int64)
        digits = np.array(list(itertools.product(range(m), repeat=n)),
                          dtype=np.int64).reshape(M, n)
        # row xi * M + yj: the labels of b_{s1, xi} followed by b_{s2, yj}
        labels = np.hstack([np.repeat(digits, M, axis=0),
                            np.tile(digits, (M, 1))])
        place = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
        max_loops = n // 2  # a loop uses at least two middle points
        products = np.empty((S, M, S, M, 1 + m), dtype=np.int32)
        for s1, xs in enumerate(skeletons):
            # per right factor: n output-arc forms, then the loop forms
            # padded with zero forms (label 0, subtracted again below)
            forms = np.zeros((S, n + max_loops, 2 * n), dtype=np.int64)
            pads = np.empty(S, dtype=np.int64)
            out_skeleton = np.empty(S, dtype=np.int64)
            for s2, ys in enumerate(skeletons):
                arcs, loops = compose_strands(n, zip(xs, unit[:n]),
                                              zip(ys, unit[n:]))
                arcs.sort(key=lambda arc: arc[0])
                out_skeleton[s2] = skeleton_index[tuple(pq for pq, _ in arcs)]
                for r, (_, form) in enumerate(arcs):
                    forms[s2, r] = form
                for r, form in enumerate(loops):
                    forms[s2, n + r] = form
                pads[s2] = max_loops - len(loops)
            values = labels @ forms.transpose(0, 2, 1) % m  # (S, M*M, .)
            k = out_skeleton[:, None] * M + values[:, :, :n] @ place
            exps = (values[:, :, n:, None] == np.arange(m)).sum(axis=2)
            exps[:, :, 0] -= pads[:, None]
            block = products[s1]  # (xi, s2, yj, column)
            block[..., 0] = k.reshape(S, M, M).transpose(1, 0, 2)
            block[..., 1:] = exps.reshape(S, M, M, m).transpose(1, 0, 2, 3)
        self.products = products.reshape(N * N, 1 + m)


def _monomial_value(field, deltas, exps):
    out = field.one
    for d, e in zip(deltas, exps):
        for _ in range(e):
            out = out * d
    return out


def trace_matrix(table, field, deltas):
    """T_{ij} = trace of left multiplication by b_i * b_j.

    With b_i b_j = mono_ij b_k, T_ij = mono_ij * trace(L_{b_k}), and
    trace(L_{b_k}) sums mono_kr over the r with b_k b_r in the span of b_r.
    Each distinct monomial, trace and (monomial, trace) product is computed
    once in exact field arithmetic; numpy only counts and indexes.
    """
    N = table.size
    deltas = [d if not isinstance(d, (int, Fraction)) else field.embed(d)
              for d in deltas]
    prod = table.products
    k = prod[:, 0].astype(np.int64)
    base = table.n // 2 + 1  # exponents are loop counts, at most n // 2
    keys = prod[:, 1:].astype(np.int64) @ base ** np.arange(table.m,
                                                            dtype=np.int64)
    _, first, mono = np.unique(keys, return_index=True, return_inverse=True)
    monos = [_monomial_value(field, deltas, prod[f, 1:]) for f in first]
    # trace of L_{b_k}: how often each monomial sits on the diagonal
    rows = np.arange(N * N, dtype=np.int64)
    diag = k == rows % N
    counts = np.bincount(rows[diag] // N * len(monos) + mono[diag],
                         minlength=N * len(monos)).reshape(N, len(monos))
    count_rows, trace_class = np.unique(counts, axis=0, return_inverse=True)
    traces = []
    for row in count_rows:
        acc = field.zero
        for u in np.nonzero(row)[0]:
            acc = acc + monos[u] * int(row[u])
        traces.append(acc)
    pairs, entry = np.unique(mono * len(traces) + trace_class[k],
                             return_inverse=True)
    # one shared object per distinct entry
    pool = np.empty(len(pairs), dtype=object)
    pool[:] = [monos[pair // len(traces)] * traces[pair % len(traces)]
               for pair in pairs.tolist()]
    return pool[entry].reshape(N, N).tolist()


def _to_rational_blocks(field, T):
    """Flatten a matrix over Q(zeta_m) to a matrix of Fractions.

    A matrix whose entries are all rational has the same rank over
    Q(zeta_m) as over Q, so it is kept as it is (deg = 1).  Otherwise each
    entry is replaced by its multiplication matrix on the power basis
    (deg = phi(m)).
    """
    deg = getattr(field, "degree", 1)
    entries = {id(x): x for row in T for x in row}.values()
    if deg == 1 or not any(any(getattr(x, "coeffs", ())[1:]) for x in entries):
        return [[x.coeffs[0] if hasattr(x, "coeffs") else Fraction(x)
                 for x in row] for row in T], 1
    N = len(T)
    big = [[Fraction(0)] * (N * deg) for _ in range(N * deg)]
    basis = [field.element([0] * k + [1]) for k in range(deg)]
    for i in range(N):
        for j in range(N):
            x = T[i][j]
            if not x:
                continue
            for c in range(deg):
                col = x * basis[c]
                for r in range(deg):
                    big[i * deg + r][j * deg + c] = col.coeffs[r]
    return big, deg


def _product_is_zero(a, b):
    """Whether the product of two integer matrices (numpy object arrays of
    Python integers) is exactly zero.  It is formed in int64 when max|a|
    times the largest column sum of |b| bounds every partial sum below
    2^63, and in Python integers otherwise."""
    if abs(a).max() * abs(b).sum(axis=0).max() < 2 ** 63:
        a, b = a.astype(np.int64), b.astype(np.int64)
    return not np.count_nonzero(a @ b)


def _rank_exact_certified(big, primes):
    """Exact rank of a Fraction matrix via a modular pass with certificates.

    Returns (rank, method).  Full rank mod p is already exact (minors can
    only vanish further mod p); a deficit is accepted only once the lifted
    kernel vectors are verified exactly: T and every vector are scaled to
    integers and T v = 0 is checked in exact integer arithmetic.
    """
    N = len(big)
    # T from trace_matrix repeats a handful of entry objects: index the
    # distinct objects (cheap, by identity) and handle each value once
    objs = {id(x): x for row in big for x in row}
    pos = {key: i for i, key in enumerate(objs)}
    index = np.array([[pos[id(x)] for x in row] for row in big],
                     dtype=np.int64)
    values = list(objs.values())
    den = lcm(*(x.denominator for x in values))
    scaled = np.array([x.numerator * (den // x.denominator) for x in values],
                      dtype=object)[index]
    for p in primes:
        if any(x.denominator % p == 0 for x in values):
            continue
        by_value = {}
        for x in values:
            if x not in by_value:
                by_value[x] = x.numerator * pow(x.denominator, p - 2, p) % p
        residues = np.array([by_value[x] for x in values], dtype=np.int64)
        rank_p, _, kernel = rref_mod_p(residues[index], p)
        if rank_p == N:
            return N, "modular-full-rank"
        lift = {}
        for v in kernel:
            for a in v:
                if a not in lift:
                    lift[a] = rational_reconstruct(a, p)
        if any(x is None for x in lift.values()):
            continue
        vectors = []
        for v in kernel:
            scale = lcm(*(lift[a].denominator for a in set(v)))
            vectors.append([lift[a].numerator * (scale // lift[a].denominator)
                            for a in v])
        # verify T v = 0 exactly
        if _product_is_zero(scaled, np.array(vectors, dtype=object).T):
            return rank_p, "modular-certified-kernel"
    if N <= 160:
        return gauss_rank(big), "exact-gauss"
    raise ArithmeticError("rank not certifiable within prime budget")


def radical_dimension(table, field, deltas):
    """dim of the radical of the trace form; 0 iff semisimple (char 0)."""
    if field.characteristic:
        raise ValueError("oracle is valid in characteristic 0 only")
    T = trace_matrix(table, field, deltas)
    big, deg = _to_rational_blocks(field, T)
    primes = primes_for_modular(field.m if hasattr(field, "m") else 1, count=4)
    rank_q, method = _rank_exact_certified(big, primes)
    if rank_q % deg:
        raise AssertionError("rank over Q not divisible by the field degree")
    return table.size - rank_q // deg


def galois_conjugate_deltas(field, deltas, a):
    """Apply the Galois map zeta -> zeta^a (gcd(a, m) = 1) entrywise."""
    m = field.m
    out = []
    for d in deltas:
        acc = field.zero
        z = field.zeta
        for k, c in enumerate(d.coeffs):
            acc = acc + field.embed(c) * z ** ((k * a) % m)
        out.append(acc)
    return out


def _cell_det_values(m, n, field, deltas):
    """Determinants of the k = 1 cell Gram matrices (n <= 3 only)."""
    params = NumericParams(field, deltas)
    dets = []
    if n == 2:
        g = cell_gram(m, 2, tuple(() for _ in range(m)), params)
        dets.append(("empty", g.det))
    else:
        for j in range(1, m + 1):
            mu = tuple((1,) if c == j else () for c in range(1, m + 1))
            g = cell_gram(m, 3, mu, params)
            dets.append(("box-comp-%d" % j, g.det))
    return dets


def semisimple_verdict(m, n, field, deltas, table=None, cap=500):
    """Oracle verdict with the n <= 3 cell-determinant cross-check.

    Returns a dict: verdict ("semisimple" / "not-semisimple" /
    "unsupported"), radical dimension, cell determinants, and the
    cross-check agreement flag (must always be True; a failure is an
    implementation bug, never an acceptable discrepancy).
    """
    if field.characteristic:
        return {"verdict": "unsupported", "reason": "characteristic p"}
    if basis_size(m, n) > cap:
        return {"verdict": "unsupported", "reason": "cap exceeded"}
    if table is None:
        table = StructureTable(m, n, cap)
    rad = radical_dimension(table, field, deltas)
    out = {"verdict": "semisimple" if rad == 0 else "not-semisimple",
           "radical": rad,
           "admissible": deltas_admissible(
               [d if not isinstance(d, (int, Fraction)) else field.embed(d)
                for d in deltas])}
    if not out["admissible"]:
        out["note"] = ("parameters off the admissible locus "
                       "delta_a = delta_{m-a}: the product is not "
                       "associative there, so the verdict is relative to "
                       "the pinned composition rule")
    if n <= 3:
        dets = _cell_det_values(m, n, field, deltas)
        out["cell_dets"] = [(tag, format_scalar(v)) for tag, v in dets]
        cells_ok = all(v for _, v in dets)
        out["cross_check_agrees"] = (rad == 0) == cells_ok
    return out


# ---------------------------------------------------------------------------
# concordance sweep
# ---------------------------------------------------------------------------

def _random_rational(rng, den_max=1000):
    return Fraction(rng.randint(-999, 999), rng.randint(1, den_max))


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
    xi = field.root_of_unity(m)
    minv = field.embed(Fraction(1, m))
    deltas = []
    for j in range(m):
        acc = field.zero
        for ii in range(m):
            acc = acc + bars[ii] * xi ** ((-j * ii) % m)
        deltas.append(acc * minv)
    return deltas


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
    """
    rng = random.Random(seed)
    points = []
    for item in grid:
        if isinstance(item, dict):
            m, n = item["m"], item["n"]
            extra = item.get("deltas", [])
        else:
            m, n = item
            extra = []
        field = CyclotomicField(m)
        table = StructureTable(m, n, cap)
        todo = [("delta-zero", [field.zero] * m)]
        for idx in range(generic_points):
            # sample on the admissible locus: free coordinates 0..m//2,
            # the rest mirrored
            free = [field.embed(_random_rational(rng))
                    for _ in range(m // 2 + 1)]
            todo.append(("generic-random",
                         [free[min(j, m - j)] for j in range(m)]))
        if m >= 2 and n >= 2:
            from .criterion import z_set
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
        for provenance, deltas in todo:
            rec = {"m": m, "n": n, "provenance": provenance,
                   "deltas": [field.format_element(d) for d in deltas]}
            verdicts = {}
            for variant in VARIANTS:
                v = decide(m, n, field, deltas, variant)
                verdicts[variant] = v.to_json()
            rec["criteria"] = verdicts
            if n >= 2:
                rec["g_mu"] = [
                    {"mu": [list(p) for p in mu],
                     "value": format_scalar(g_mu(field, deltas, mu))}
                    for mu in multipartitions(m, n - 2)]
            oracle = semisimple_verdict(m, n, field, deltas, table=table, cap=cap)
            rec["oracle"] = oracle
            rec["agreement"] = {
                variant: verdicts[variant]["decision"] == oracle.get("verdict")
                for variant in VARIANTS}
            points.append(rec)
    disagreements = [
        {"m": p["m"], "n": p["n"], "provenance": p["provenance"],
         "deltas": p["deltas"],
         "variants": [v for v, ok in p["agreement"].items() if not ok]}
        for p in points if not all(p["agreement"].values())]
    cross_failures = [p for p in points
                      if p["oracle"].get("cross_check_agrees") is False]
    generic_disagreements = [d for d in disagreements
                             if d["provenance"] == "generic-random"]
    report = {
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
            "generic_disagreements": generic_disagreements,
            "cross_check_failures": len(cross_failures),
        },
    }
    return report


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
