"""Gram matrices: the iota-form on V, cellular forms, and the 3m x 3m
one-box matrix at n = 3."""

import itertools
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycbrauer.diagrams import (DiagramAlgebra, NumericParams, SymbolicParams,
                                from_awb, generator, iota_diagram,
                                is_admissible, multiply_diagrams, times_loops,
                                wreath_to_diagram)
from cycbrauer.criterion import bar_deltas
from cycbrauer.gram import (GramMatrix, _block_kinds, cell_form, cell_gram,
                            cell_pairing, equivariance_check, gram_big,
                            shape_check, single_box_gram, v_basis)
from cycbrauer.linalg import gauss_det, minor_det
from cycbrauer.oracle import _hyperplane_point
from cycbrauer.scalars import CyclotomicField, field_with_root
from cycbrauer.wreath import (WreathElement, compose, enumerate_group, gen_s,
                              gen_t)
from strands import reference_product

Q = CyclotomicField(1)


def v_dim(m, n):
    # m * binom(n,2) * |W_{m,n-2}|
    order = m ** (n - 2)
    for k in range(2, n - 1):
        order *= k
    return m * (n * (n - 1) // 2) * order


def admissible_numeric(m, seed=0):
    rng = random.Random(seed)
    free = [Fraction(rng.randint(-20, 20), rng.randint(1, 7))
            for _ in range(m // 2 + 1)]
    return NumericParams(Q, [free[min(j, m - j)] for j in range(m)])


def test_v_basis_sizes():
    for (m, n) in [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)]:
        assert len(v_basis(m, n)) == v_dim(m, n)


@pytest.mark.parametrize("mn", [(2, 3), (3, 3), (2, 4)])
def test_right_action_is_a_diagram_product(mn):
    # V is spanned by b = alpha (x) w (x) alpha_0, in this order, and the
    # right W_{m,n-2} action w |-> w y is b * (y (+) 1_2), closing no loop
    m, n = mn
    group = enumerate_group(m, n - 2)
    alpha0 = [(n - 1, n, 0)]
    halves = [([arc + (lab,)], w)
              for arc in itertools.combinations(range(1, n + 1), 2)
              for lab in range(m) for w in group]
    basis = v_basis(m, n)
    assert basis == [from_awb(m, n, alpha, w, alpha0) for alpha, w in halves]

    def plus_two(y):  # the diagram of y (+) 1_2
        return wreath_to_diagram(WreathElement(m, n, y.perm + (n - 1, n),
                                               y.colors + (0, 0)))

    for y in group:
        for b, (alpha, w) in zip(basis, halves):
            assert multiply_diagrams(b, plus_two(y)) == \
                (from_awb(m, n, alpha, compose(w, y), alpha0), ())
    # equivariance_check multiplies by the generators of W_{m,n} that fix
    # n - 1 and n: these are the y (+) 1_2 of the generators y of W_{m,n-2}
    assert plus_two(gen_t(m, n - 2, 1)) == generator(m, n, "t", 1)
    for i in range(1, n - 2):
        assert plus_two(gen_s(m, n - 2, i)) == generator(m, n, "s", i)


def test_gram_shape():
    for (m, n) in [(2, 2), (3, 2), (2, 3)]:
        params = SymbolicParams(m)
        gm = gram_big(m, n, params)
        assert gm.size == v_dim(m, n)
        assert shape_check(gm, params) == []


def _with_entry(gm, i, j, x):
    """gm with entry (i, j) replaced by x, a new value with its own code."""
    index = gm.index.copy()
    index[i, j] = len(gm.values)
    return GramMatrix(gm.kind, gm.values + [x], index, gm.basis)


def test_shape_check_reports_violations():
    params = SymbolicParams(2)
    x = params.delta(0) + params.one
    gm = _with_entry(_with_entry(gram_big(2, 3, params), 0, 0,
                                 params.delta(1)), 0, 1, x)
    assert shape_check(gm, params) == [(0, 0, str(params.delta(1))),
                                       (0, 1, str(x))]


def test_gram_n2_is_anticirculant():
    # at n = 2 the iota-form matrix is delta_{(j-i) mod m}
    m = 3
    params = SymbolicParams(m)
    gm = gram_big(m, 2, params)
    for i in range(m):
        for j in range(m):
            assert gm.entries[i][j] == params.delta(j - i)


def test_equivariance_on_admissible_locus():
    for (m, n) in [(2, 2), (2, 3)]:
        rep = equivariance_check(m, n, SymbolicParams(m))
        assert rep["ok"], rep
    for (m, n) in [(3, 2), (3, 3)]:
        rep = equivariance_check(m, n, SymbolicParams(m, symmetric=True))
        assert rep["ok"] and rep["admissible"], rep


def test_equivariance_random_numeric_points():
    for seed in (1, 2, 3):
        rep = equivariance_check(3, 3, admissible_numeric(3, seed))
        assert rep["ok"], rep


def test_equivariance_fails_off_locus():
    rep = equivariance_check(3, 2, SymbolicParams(3))
    assert not rep["admissible"]
    assert not rep["ok"]


def _reference_gram_big(m, n, params):
    """gram_big's entries by one strand-walker product per entry."""
    basis = v_basis(m, n)
    e = generator(m, n, "e", n - 1)

    def entry(x, y):
        prod, loops = reference_product(iota_diagram(x), y)
        return times_loops(params, params.one, loops) if prod == e \
            else params.zero

    return [[entry(x, y) for y in basis] for x in basis]


def _reference_equivariance(m, n, params, gm):
    """equivariance_check's report by a double loop per generator, with the
    basis permutations from the strand walker."""
    basis, G, f = gm.basis, gm.entries, gm.size
    index = {b: k for k, b in enumerate(basis)}
    failures, checked = [], []

    def commutes(perm_cols, tag):
        inv = [0] * f
        for j, i in enumerate(perm_cols):
            inv[i] = j
        for i in range(f):
            for j in range(f):
                if G[inv[i]][j] != G[i][perm_cols[j]]:
                    failures.append({"generator": tag, "i": i, "j": j})
                    return
        checked.append(tag)

    def left(name, i):
        g = generator(m, n, name, i)
        return [index[reference_product(g, b)[0]] for b in basis]

    def right(name, i):
        y = generator(m, n, name, i)
        return [index[reference_product(b, y)[0]] for b in basis]

    for i in range(1, n):
        commutes(left("s", i), "left-s%d" % i)
    commutes(left("t", 1), "left-t1")
    if n - 2 >= 1:
        commutes(right("t", 1), "right-t1")
    for i in range(1, n - 2):
        commutes(right("s", i), "right-s%d" % i)
    return {"m": m, "n": n, "ok": not failures, "checked": checked,
            "failures": failures, "admissible": is_admissible(params)}


PARAMS = {"symbolic": SymbolicParams,
          "symmetric": lambda m: SymbolicParams(m, symmetric=True),
          "numeric": admissible_numeric}
GRAM_SIZES = [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (2, 4)]


@pytest.mark.parametrize("kind", PARAMS)
@pytest.mark.parametrize("m,n", GRAM_SIZES)
def test_gram_big_equals_the_reference(m, n, kind):
    params = PARAMS[kind](m)
    assert gram_big(m, n, params).entries == \
        _reference_gram_big(m, n, params)


@pytest.mark.parametrize("kind", PARAMS)
@pytest.mark.parametrize("m,n", GRAM_SIZES[:5])
def test_equivariance_reports_the_reference_first_failure(m, n, kind):
    params = PARAMS[kind](m)
    gm = gram_big(m, n, params)
    assert equivariance_check(m, n, params, gram=gm) == \
        _reference_equivariance(m, n, params, gm)
    rng = random.Random(100 * m + n)
    for _ in range(4):
        i, j = rng.randrange(gm.size), rng.randrange(gm.size)
        bad = _with_entry(gm, i, j, gm.values[gm.index[i, j]] + params.one)
        got = equivariance_check(m, n, params, gram=bad)
        assert got == _reference_equivariance(m, n, params, bad), (i, j)
        assert not got["ok"]


@pytest.mark.parametrize("m", [3, 4])
def test_equivariance_merges_equal_entries(m):
    # under symmetric parameters delta_a and delta_{m-a} are equal, so
    # swapping one for the other (a new object) breaks nothing
    params = SymbolicParams(m, symmetric=True)
    gm = gram_big(m, 3, params)
    cells = [(i, j) for i, row in enumerate(gm.entries)
             for j, x in enumerate(row) if x == params.delta(1)]
    assert cells
    for i, j in cells[:3]:
        swapped = _with_entry(gm, i, j, params.delta(m - 1))
        rep = equivariance_check(m, 3, params, gram=swapped)
        assert rep["ok"] and rep == \
            _reference_equivariance(m, 3, params, swapped)


def test_cell_gram_n2_det_identity():
    # det of the n = 2 cell form equals +-prod_i bar_delta_i, as an exact
    # polynomial identity in the deltas
    for m in range(1, 5):
        F = CyclotomicField(m)
        params = SymbolicParams(m, F)
        g = cell_gram(m, 2, tuple(() for _ in range(m)), params)
        assert g.size == m
        xi = F.root_of_unity(m)
        prod = params.one
        for i in range(m):
            bar = params.zero
            for j in range(m):
                bar = bar + params.delta(j) * (xi ** ((j * i) % m))
            prod = prod * bar
        if ((m - 1) * (m - 2) // 2) % 2:
            prod = -prod
        assert g.det == prod


def test_cell_gram_n2_det_matches_reference_numeric():
    F = CyclotomicField(3)
    deltas = [F.embed(Fraction(5, 2)), F.embed(-1), F.embed(7)]
    g = cell_gram(3, 2, ((), (), ()), NumericParams(F, deltas))
    # det(delta_{s+t}) is -prod_i bar_delta_i at m = 3: reversing rows
    # 1..m-1 has sign (-1)^{(m-1)(m-2)/2}
    b0, b1, b2 = bar_deltas(F, deltas)
    assert g.det == -(b0 * b1 * b2)


def _reference_cell_gram(m, n, mu, params, compute_det=True):
    """The star-product construction cell_gram replaced, kept as the slow
    reference: explicit cell generators as algebra elements, star(x) * y
    expanded in full, then read off.  Returns (entries, det)."""
    field = params.field
    alg = DiagramAlgebra(m, n, params)
    if n == 2:
        e1 = generator(m, 2, "e", 1)
        basis = [alg.element(wreath_to_diagram(
                     WreathElement(m, 2, (1, 2), (s, 0))))
                 * alg.element(e1) for s in range(m)]
        entries = [[(x.star() * y).coefficient(e1) for y in basis]
                   for x in basis]
    else:
        j = [sum(p) for p in mu].index(1) + 1
        l = (1 - j) % m or m
        xi = field.root_of_unity(m)
        # g_l(t) = prod_{j' = 1..m, j' != l} (t - xi^{j'}), coefficients of t^s
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

        def basis_vector(arc, k):
            terms = None
            for s, c in enumerate(coeffs):
                if not c:
                    continue
                w = WreathElement(m, 1, (1,), (s % m,))
                d = from_awb(m, 3, [arc + (k,)], w, [(2, 3, 0)])
                el = alg.element(d, params.one * c)
                terms = el if terms is None else terms + el
            return terms

        targets = {from_awb(m, 3, [(2, 3, 0)], WreathElement(m, 1, (1,), (s,)),
                            [(2, 3, 0)]): s for s in range(m)}
        # the xi^{ls} character of star(x) * y, divided by chi_l(g_l)
        norm = (field.embed(m) * xi ** ((l * (m - 1)) % m)).inverse()

        def phi(x_star, y):
            out = params.zero
            for d, c in (x_star * y).terms.items():
                out = out + c * xi ** ((l * targets[d]) % m)
            return out * norm

        vecs = [basis_vector(arc, k) for arc in ((1, 2), (1, 3), (2, 3))
                for k in range(m)]
        entries = [[phi(x.star(), y) for y in vecs] for x in vecs]
    det = None
    if compute_det:
        det = (minor_det(entries, params.zero, params.one)
               if isinstance(params, SymbolicParams)
               else gauss_det(entries, field.one))
    return entries, det


def _cell_mus(m, n):
    """The empty multipartition at n = 2.  At n = 3 the box in components
    1, 2 and m, so that l = 0, m - 1 and 1 all occur; for m >= 4, where
    the reference costs 9 m^4 diagram products, only component 2."""
    if n == 2:
        return [tuple(() for _ in range(m))]
    comps = {2} if m >= 4 else {1, min(2, m), m}
    return [tuple((1,) if c == j else () for c in range(1, m + 1))
            for j in sorted(comps)]


def _params_of_kind(kind, m):
    F = CyclotomicField(m)
    xi = F.root_of_unity(m)
    if kind == "rational":
        return NumericParams(F, [Fraction(3 * a - 4, a + 2) for a in range(m)])
    if kind == "zeta":
        return NumericParams(F, [xi ** a + Fraction(a, 2) for a in range(m)])
    if kind == "finite":  # GF(p^k) with p not dividing m
        K = field_with_root(7, m)
        return NumericParams(K, [K.embed(a * a + 3) for a in range(m)])
    return SymbolicParams(m, F, symmetric=kind == "symmetric")


@pytest.mark.parametrize("kind", ["rational", "zeta", "finite", "symbolic",
                                  "symmetric"])
def test_cell_gram_matches_star_product_reference(kind):
    # the n = 3 reference takes over a second at m = 5, 6: there two kinds,
    # one numeric and one symbolic, stand for all five
    wide = kind in ("zeta", "symmetric")
    for m in range(1, 7):
        params = _params_of_kind(kind, m)
        for n in (2, 3) if m <= 4 or wide else (2,):
            for mu in _cell_mus(m, n):
                # determinants at small sizes only (minor expansion when
                # symbolic): equal entries already fix the rest
                size = m if n == 2 else 3 * m
                with_det = size <= (6 if kind in ("symbolic", "symmetric")
                                    else 12)
                g = cell_form(m, n, mu, params, cell_pairing(m, n),
                              compute_det=with_det)
                entries, det = _reference_cell_gram(m, n, mu, params, with_det)
                assert g.entries == entries, (kind, m, n, mu)
                assert g.det == det, (kind, m, n, mu)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 6), n=st.sampled_from([2, 3]), box=st.integers(0, 5),
       admissible=st.booleans(),
       raw=st.lists(st.fractions(min_value=-9, max_value=9,
                                 max_denominator=9), min_size=6, max_size=6))
def test_cell_gram_symmetric(m, n, box, admissible, raw):
    # the cell form is symmetric on and off the admissible locus
    F = CyclotomicField(m)
    deltas = [raw[min(a, m - a)] if admissible else raw[a] for a in range(m)]
    mu = tuple((1,) if c == box % m and n == 3 else () for c in range(m))
    g = cell_form(m, n, mu, NumericParams(F, deltas), cell_pairing(m, n),
                  compute_det=False)
    for i in range(g.size):
        for j in range(g.size):
            assert g.entries[i][j] == g.entries[j][i]


def _one_box_mus(m):
    return [tuple((1,) if c == j else () for c in range(m)) for j in range(m)]


@pytest.mark.parametrize("symmetric", [False, True])
def test_cell_det_blocks_match_full_minor_det(symmetric):
    # the label-Fourier block determinant against the minor expansion of
    # the whole matrix, as polynomials: every one-box mu at m <= 4, and
    # n = 2 at m <= 5.  With free parameters at m = 4 the expansion over
    # Q(zeta_4) takes up to 2.7 s per mu: the cell-gram pins in test_cli
    # hold components 1 and 2 to the bytes of the full expansion, and here
    # components 3 and 4 are expanded over GF(5)
    cases = [(m, 2, tuple(() for _ in range(m)), CyclotomicField(m))
             for m in range(1, 6)]
    cases += [(m, 3, mu, CyclotomicField(m))
              for m in range(1, 5) for mu in _one_box_mus(m)
              if symmetric or m < 4]
    if not symmetric:
        cases += [(4, 3, mu, field_with_root(5, 4)) for mu in _one_box_mus(4)[2:]]
    for m, n, mu, F in cases:
        params = SymbolicParams(m, F, symmetric=symmetric)
        g = cell_gram(m, n, mu, params)
        assert g.det == minor_det(g.entries, params.zero, params.one), (m, n, mu)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 6), n=st.sampled_from([2, 3]), box=st.integers(0, 5),
       char=st.sampled_from([0, 5, 7]),
       raw=st.lists(st.fractions(min_value=-9, max_value=9,
                                 max_denominator=9), min_size=6, max_size=6))
def test_cell_det_matches_gauss_det(m, n, box, char, raw):
    # at random points of Q(zeta_m) and of GF(p^k), on and off the locus
    if char == 5 and m == 5:
        char = 7
    F = field_with_root(char, m)
    deltas = [F.embed(x if char == 0 else x.numerator) for x in raw[:m]]
    mu = tuple((1,) if c == box % m and n == 3 else () for c in range(m))
    g = cell_gram(m, n, mu, NumericParams(F, deltas))
    assert g.det == gauss_det(g.entries, F.one)


def test_cell_det_on_hyperplanes():
    # bar_i = bar_{-i} = v, the other bars random integers: the points where
    # one Fourier block is singular, and det G = 0
    rng = random.Random(0)
    zeros = 0
    for m in (2, 3, 4):
        F = CyclotomicField(m)
        for i in range(m // 2 + 1):
            for v in (-2 * m, -m, 0, m):
                k = (m if i == 0 else 0) - v
                params = NumericParams(F, _hyperplane_point(F, m, i, k, rng))
                for n, mus in ((2, [tuple(() for _ in range(m))]),
                               (3, _one_box_mus(m))):
                    for mu in mus:
                        g = cell_gram(m, n, mu, params)
                        assert g.det == gauss_det(g.entries, F.one)
                        zeros += not g.det
    assert zeros >= 20


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cell_det_guard_rejects_a_perturbed_entry(m):
    # the block guard reads the pattern's integer codes: the blocks pairing
    # {1,2} with {2,3} are circulant (at m = 2 both kinds coincide and
    # anticirculant is read first), and one changed code leaves a block
    # neither anticirculant nor circulant
    rng = random.Random(m)
    pairing = cell_pairing(m, 3)
    circulant = m > 2
    assert pairing.circulant.tolist() == [[False, False, circulant],
                                          [False, False, False],
                                          [circulant, False, False]]
    for _ in range(5):
        index = pairing.index.copy()
        r, c = rng.randrange(3 * m), rng.randrange(3 * m)
        index[r, c] = len(pairing.pairs)
        with pytest.raises(ValueError, match="neither anticirculant nor "
                                             "circulant"):
            _block_kinds(index, m)


def test_cell_pairing_index_is_read_only():
    # every form that cell_form evaluates on one pattern shares its index
    pairing = cell_pairing(3, 3)
    F = CyclotomicField(3)
    forms = [cell_form(3, 3, mu, NumericParams(F, [F.one] * 3), pairing)
             for mu in _one_box_mus(3)]
    assert all(g.index is pairing.index for g in forms)
    with pytest.raises(ValueError, match="read-only"):
        pairing.index[0, 0] = 0
    with pytest.raises(ValueError, match="read-only"):
        forms[0].index[0, 0] = 0


def test_equal_parameter_rings_mix():
    # one SymbolicParams per (m, field, symmetric): the iota-form built on
    # one SymbolicParams(2) checks against another, while a free and a
    # symmetric ring refuse to mix and print apart
    assert SymbolicParams(2) is SymbolicParams(2, Q, symmetric=False)
    assert shape_check(gram_big(2, 3, SymbolicParams(2)),
                       SymbolicParams(2)) == []
    free, sym = SymbolicParams(3), SymbolicParams(3, symmetric=True)
    assert repr(free) != repr(sym)
    with pytest.raises(ValueError, match=re.escape(
            "mixed rings %r and %r" % (free, sym))):
        free.delta(1) + sym.delta(1)
    assert pickle.loads(pickle.dumps(sym.delta(1))) == sym.delta(2)


def test_single_box_gram():
    for m in range(2, 6):
        gm, rep = single_box_gram(m)
        assert gm.size == 3 * m
        assert rep["matches_printed_at_zero"], rep
        assert rep["rank_at_zero"] == 3
        assert all(c == "0" for c in rep["det_at_zero"].split(","))
        # the delta-dependent entries do deviate from the printed constant
        # block form away from delta = 0 (recorded, not patched)
        assert rep["identical_in_delta"] is False
