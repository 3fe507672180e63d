"""Diagram basis, multiplication kernel, relations and involutions."""

import operator
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycbrauer.diagrams import (Diagram, DiagramAlgebra, NumericParams,
                                SymbolicParams, associativity_check,
                                associativity_witness, basis_diagram,
                                basis_index, basis_involutions, basis_size,
                                enumerate_basis,
                                from_awb, generator, identity_diagram,
                                iota_diagram, is_admissible,
                                make_diagram, multiply_all,
                                multiply_diagrams, star_diagram,
                                symbolic_algebra, verify_relations,
                                wreath_to_diagram)
from cycbrauer.scalars import CyclotomicField
from cycbrauer.wreath import WreathElement, enumerate_group, inverse
from strands import compose_strands, reference_product

Q = CyclotomicField(1)


def admissible_numeric(m, seed=0):
    rng = random.Random(seed)
    free = [Fraction(rng.randint(-30, 30), rng.randint(1, 9))
            for _ in range(m // 2 + 1)]
    return NumericParams(Q, [free[min(j, m - j)] for j in range(m)])


def test_dimension_counts():
    for m in (1, 2, 3, 4):
        for n in (1, 2, 3):
            dfac = 1
            for k in range(1, 2 * n, 2):
                dfac *= k
            assert basis_size(m, n) == m ** n * dfac
            if basis_size(m, n) <= 2000:
                assert len(enumerate_basis(m, n)) == basis_size(m, n)


def reference_generator(m, n, name, i):
    """The generator diagrams as hand-written arc lists, the construction
    that generator replaced by the group elements and the cap e_i."""
    arcs = []
    for j in range(1, n + 1):
        if name == "s" and j in (i, i + 1):
            arcs.append(((j, n + (2 * i + 1 - j)), 0))
        elif name == "e" and j in (i, i + 1):
            continue
        else:
            arcs.append(((j, n + j), 1 % m if name == "t" and j == i else 0))
    if name == "e":
        arcs += [((i, i + 1), 0), ((n + i, n + i + 1), 0)]
    return make_diagram(m, n, arcs)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_generators_equal_the_arc_lists(m):
    for n in range(6):
        assert identity_diagram(m, n) == make_diagram(
            m, n, [((j, n + j), 0) for j in range(1, n + 1)])
        for name, top in (("s", n - 1), ("e", n - 1), ("t", n)):
            for i in range(1, top + 1):
                assert generator(m, n, name, i) == \
                    reference_generator(m, n, name, i)


@pytest.mark.parametrize("name,i", [("x", 1), ("S", 1), ("", 1), ("s", 0),
                                    ("s", 3), ("e", 3), ("t", 0), ("t", 4)])
def test_generator_rejects_unknown_names_and_indices(name, i):
    # an unknown name once fell through to t_i
    with pytest.raises(ValueError):
        generator(2, 3, name, i)


def test_make_diagram_validates():
    with pytest.raises(ValueError):
        make_diagram(2, 2, [((1, 2), 0), ((2, 3), 0)])


@pytest.mark.parametrize("mn", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                (4, 2), (4, 3)])
def test_relation_suite(mn):
    m, n = mn
    results = verify_relations(m, n)
    bad = [r for r in results if not r["ok"]]
    assert not bad, bad


def test_basis_closure_exhaustive():
    # a product of basis diagrams is always a delta monomial times a basis
    # diagram; exhaustively at (2,2) and (3,2)
    for (m, n) in [(2, 2), (3, 2)]:
        basis = set(enumerate_basis(m, n))
        for x in basis:
            for y in basis:
                prod, loops = multiply_diagrams(x, y)
                assert prod in basis
                assert all(0 <= a < m for a in loops)


def test_multiply_diagrams_at_n_0_and_1():
    for m in (1, 2, 3, 5):
        empty = make_diagram(m, 0, [])
        assert multiply_diagrams(empty, empty) == (empty, ())
        for a in range(m):
            for b in range(m):
                x = make_diagram(m, 1, [((1, 2), a)])
                y = make_diagram(m, 1, [((1, 2), b)])
                assert multiply_diagrams(x, y) == \
                    (make_diagram(m, 1, [((1, 2), a + b)]), ())


def random_diagram(rng, m, n):
    points = rng.sample(range(1, 2 * n + 1), 2 * n)
    return make_diagram(m, n, [((points[k], points[k + 1]), rng.randrange(m))
                               for k in range(0, 2 * n, 2)])


def test_multiply_builds_the_normal_form_directly():
    # the product diagrams come from basis_diagram, not make_diagram: each
    # must equal the one make_diagram canonicalizes and validates from the
    # walker's composed arcs, on every pair with N <= 405 (one multiply_all
    # per (m, n)) and on random pairs at n = 4..6
    def check(xs, ys, out):
        for x, y, (k, _) in zip(xs, ys, out):
            arcs, _ = compose_strands(x.n, x.arc_items(), y.arc_items())
            assert basis_diagram(x.m, x.n, k) == make_diagram(x.m, x.n, arcs)

    for m in range(1, 6):
        for n in range(5):
            if basis_size(m, n) <= 405:
                basis = enumerate_basis(m, n)
                out = multiply_all(basis, basis)[0].tolist()
                for x, row in zip(basis, out):
                    check([x] * len(basis), basis, row)
    rng = random.Random(5)
    for m in range(1, 5):
        for n in range(4, 7):
            xs = [random_diagram(rng, m, n) for _ in range(300)]
            ys = [random_diagram(rng, m, n) for _ in range(300)]
            out = multiply_all(xs, ys)[0]
            check(xs, ys, out[np.arange(300), np.arange(300)].tolist())


def test_products_where_the_packed_labels_outgrow_int32():
    # the arc labels are read a group of digits at a time and the loop
    # slots apart, so no lookup table grows with the product of the label
    # ranges: lists multiply wherever the basis indices fit int32, here with
    # a diagram capped at 2k - 1, 2k in both rows in each list (n // 2 loops
    # against itself)
    rng = random.Random(11)
    for m, n in [(6, 6), (7, 6), (12, 5), (20, 4), (130, 3), (5000, 2)]:
        caps = [((k, k + 1), rng.randrange(m)) for k in range(1, n, 2)]
        caps += [((n + p, n + q), lab) for (p, q), lab in caps]
        caps += [((n, 2 * n), 0)] if n % 2 else []
        xs = [random_diagram(rng, m, n) for _ in range(4)]
        ys = [random_diagram(rng, m, n) for _ in range(4)]
        xs.append(make_diagram(m, n, caps))
        ys.append(make_diagram(m, n, caps))
        out, loops = multiply_all(xs, ys)
        for x, row in zip(xs, out.tolist()):
            for y, (k, u) in zip(ys, row):
                assert (basis_diagram(m, n, k), loops[u]) == \
                    reference_product(x, y), (m, n)
        assert len(loops[out[-1, -1, 1]]) == n // 2
        assert multiply_diagrams(xs[0], ys[0]) == \
            reference_product(xs[0], ys[0])


def test_basis_diagram_inverts_basis_index():
    for m in range(1, 5):
        for n in range(5):
            if basis_size(m, n) <= 1680:
                basis = enumerate_basis(m, n)
                assert [basis_diagram(m, n, k) for k in range(len(basis))] \
                    == basis, (m, n)
                assert all(type(x) is int for k in (0, len(basis) - 1)
                           for x in basis_diagram(m, n, k).labels)


def test_basis_index_is_the_enumeration_position():
    for m in range(1, 5):
        for n in range(5):
            if basis_size(m, n) <= 1680:
                basis = enumerate_basis(m, n)
                assert [basis_index(d) for d in basis] == \
                    list(range(len(basis))), (m, n)


def test_enumerate_basis_is_in_normal_form():
    # the diagrams are built without make_diagram, which leaves each as it is
    for m in range(1, 5):
        for n in range(4):
            for d in enumerate_basis(m, n):
                assert make_diagram(m, n, d.arc_items()) == d
                assert all(type(x) is int for x in d.labels)


def test_basis_involutions_match_star_and_negation():
    for m in range(1, 5):
        for n in range(5):
            if basis_size(m, n) <= 1680:
                basis = enumerate_basis(m, n)
                star, negation = basis_involutions(basis)
                assert star.tolist() == [basis_index(star_diagram(d))
                                         for d in basis], (m, n)
                assert negation.tolist() == [
                    basis_index(Diagram(m, n, d.arcs,
                                        tuple(-a % m for a in d.labels)))
                    for d in basis], (m, n)


@st.composite
def diagram_lists(draw):
    """Two non-empty lists of basis diagrams of one (m, n), m, n in 1..4:
    a few skeletons and their flips (a flip times its skeleton closes a
    loop per top arc), some of their labellings, repeats."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    skeletons = draw(st.lists(st.permutations(range(1, 2 * n + 1)),
                              min_size=1, max_size=3))
    skeletons += [[p + n if p <= n else p - n for p in s] for s in skeletons]
    labelled = st.tuples(st.sampled_from(skeletons),
                         st.lists(st.integers(0, m - 1), min_size=n,
                                  max_size=n))

    def diagrams():
        pool = [make_diagram(m, n, [((p[2 * k], p[2 * k + 1]), lab)
                                    for k, lab in enumerate(labels)])
                for p, labels in draw(st.lists(labelled, min_size=1,
                                               max_size=5))]
        return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))

    return diagrams(), diagrams()


@settings(max_examples=300, deadline=None)
@given(diagram_lists())
def test_multiply_all_matches_multiply_diagrams(lists):
    xs, ys = lists
    out, loops = multiply_all(xs, ys)
    assert out.dtype == np.int32 and out.shape == (len(xs), len(ys), 2)
    # each loop multiset listed once, in increasing order of its code
    assert len(set(loops)) == len(loops)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            prod, labels = multiply_diagrams(x, y)
            assert out[i, j, 0] == basis_index(prod), (i, j)
            assert loops[out[i, j, 1]] == labels, (i, j)


@st.composite
def walker_lists(draw):
    """Two non-empty lists of basis diagrams of one (m, n), m, n in 1..5,
    of their own lengths and with repeats: a few random skeletons, their
    flips (a flip times its skeleton closes a loop per top arc) and the
    skeleton capping points 2k - 1, 2k in both rows (n // 2 loops against
    itself, two from n = 4), each list holding a capped diagram, all under
    random labels: a loop through a crossing then reads a or m - a by its
    orientation alone."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    caps = [p for k in range(0, n - 1, 2)
            for p in (k + 1, k + 2, n + k + 1, n + k + 2)]
    caps += [n, 2 * n] if n % 2 else []
    skeletons = draw(st.lists(st.permutations(range(1, 2 * n + 1)),
                              min_size=1, max_size=3))
    skeletons += [[p + n if p <= n else p - n for p in s] for s in skeletons]
    labels = st.lists(st.integers(0, m - 1), min_size=n, max_size=n)

    def diagram(p, labels):
        return make_diagram(m, n, [((p[2 * k], p[2 * k + 1]), lab)
                                   for k, lab in enumerate(labels)])

    def diagrams():
        pool = [diagram(p, lab) for p, lab in draw(st.lists(
            st.tuples(st.sampled_from(skeletons + [caps]), labels),
            min_size=1, max_size=6))]
        picked = draw(st.lists(st.sampled_from(pool), max_size=7))
        return draw(st.permutations(picked + [diagram(caps, draw(labels))]))

    return diagrams(), diagrams()


def _loop_code(m, n, loops):
    """The code multiply_all orders its loop multisets by."""
    digits = [0] * (n // 2 - len(loops)) + [a + 1 for a in sorted(loops)]
    return sum(d * (m + 1) ** s for s, d in enumerate(digits))


@settings(max_examples=300, deadline=None)
@given(walker_lists())
def test_multiply_all_matches_the_strand_walker(lists):
    xs, ys = lists
    m, n = xs[0].m, xs[0].n
    out, loops = multiply_all(xs, ys)
    assert out.dtype == np.int32 and out.shape == (len(xs), len(ys), 2)
    found = set()
    for x, row in zip(xs, out.tolist()):
        for y, (k, u) in zip(ys, row):
            prod, labels = reference_product(x, y)
            assert (basis_diagram(m, n, k), loops[u]) == (prod, labels), \
                (x, y)
            found.add(labels)
    # the loop multisets that occur, each once, in increasing code order
    assert set(loops) == found
    codes = [_loop_code(m, n, labels) for labels in loops]
    assert codes == sorted(set(codes))
    if n >= 4:
        assert any(len(labels) == 2 for labels in loops)


def test_multiply_all_refuses_mixed_sizes():
    for ys in ([identity_diagram(2, 3)], [identity_diagram(3, 2)]):
        with pytest.raises(ValueError):
            multiply_all([identity_diagram(2, 2)], ys)


def test_associativity_sampling():
    rep = associativity_check(2, 3, trials=300, seed=7)
    assert rep["ok"], rep
    rep = associativity_check(3, 3, trials=100, seed=7)
    assert rep["ok"] and rep["admissible"], rep


def test_associativity_admissible_numeric():
    for (m, n) in [(3, 2), (4, 2)]:
        rep = associativity_check(m, n, params=admissible_numeric(m),
                                  trials=400, seed=1)
        assert rep["ok"], rep


@lru_cache(maxsize=None)
def cached_basis(m, n):
    return enumerate_basis(m, n)


@st.composite
def admissible_triples(draw):
    """(algebra at an admissible rational point, three basis elements)."""
    m, n = draw(st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2), (3, 3),
                                 (4, 2), (5, 2)]))
    free = draw(st.lists(st.fractions(-9, 9, max_denominator=7),
                         min_size=m // 2 + 1, max_size=m // 2 + 1))
    alg = DiagramAlgebra(m, n, NumericParams(
        Q, [free[min(j, m - j)] for j in range(m)]))
    basis = cached_basis(m, n)
    picks = st.integers(0, len(basis) - 1)
    return alg, [alg.element(basis[draw(picks)]) for _ in range(3)]


@settings(max_examples=150, deadline=None)
@given(admissible_triples())
def test_associativity_property(sample):
    _, (x, y, z) = sample
    assert (x * y) * z == x * (y * z)


@settings(max_examples=150, deadline=None)
@given(admissible_triples())
def test_star_is_an_anti_involution_property(sample):
    alg, (x, y, z) = sample
    s = x + y.scale(Fraction(-3, 2))  # a sum, not only a basis diagram
    assert (s * z).star() == z.star() * s.star()
    assert s.star().star() == s
    assert alg.one.star() == alg.one


def test_associativity_needs_admissible_parameters():
    """The defining relations force delta_a = delta_{m-a} in an associative
    algebra; off that locus the product has a nonzero associator."""
    w = associativity_witness(3)
    assert w is not None
    assert w["left"] != w["right"]
    params = w["left"].ring.params
    e1 = generator(3, 2, "e", 1)
    assert w["left"].coefficient(e1) == params.delta(1)
    assert w["right"].coefficient(e1) == params.delta(2)
    assert associativity_witness(2) is None
    rep = associativity_check(3, 2, params=SymbolicParams(3),
                              trials=200, seed=0)
    assert not rep["admissible"] and not rep["ok"]


def test_identity_and_powers():
    alg = symbolic_algebra(3, 3)
    one = alg.one
    x = alg.s(1) * alg.t(2) + alg.e(2).scale(alg.params.delta(1))
    assert one * x == x and x * one == x
    assert alg.t(1) ** 3 == one


def test_e_squared_and_ete():
    alg = symbolic_algebra(4, 2)
    d = alg.params.delta
    assert alg.e(1) * alg.e(1) == alg.e(1).scale(d(0))
    for a in range(1, 4):
        assert alg.e(1) * alg.t(1) ** a * alg.e(1) == alg.e(1).scale(d(a))


def test_star_anti_involution():
    rng = random.Random(9)
    for (m, n) in [(2, 3), (3, 2), (3, 3)]:
        params = admissible_numeric(m, seed=m)
        alg = DiagramAlgebra(m, n, params)
        basis = enumerate_basis(m, n)
        for _ in range(150):
            x = alg.element(rng.choice(basis))
            y = alg.element(rng.choice(basis))
            assert (x * y).star() == y.star() * x.star()
            assert x.star().star() == x


def test_iota_is_an_involution():
    for (m, n) in [(2, 2), (3, 2), (2, 3)]:
        for d in enumerate_basis(m, n):
            assert iota_diagram(iota_diagram(d)) == d
            assert star_diagram(star_diagram(d)) == d


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_iota_is_its_parenthesis_definition(data):
    # iota(alpha (x) w (x) beta) = ~beta (x) w^{-1} (x) ~alpha, ~ negating
    # the arc labels; iota_diagram computes it as star after negation
    m = data.draw(st.integers(1, 5), "m")
    n = data.draw(st.integers(0, 6), "n")
    k = data.draw(st.integers(0, n // 2), "k")
    label = st.integers(0, m - 1)

    def arcs():
        pts = data.draw(st.permutations(range(1, n + 1)))[:2 * k]
        return [tuple(sorted(pts[a:a + 2])) + (data.draw(label),)
                for a in range(0, 2 * k, 2)]

    tops, bots = arcs(), arcs()
    r = n - 2 * k
    w = WreathElement(m, r, tuple(data.draw(st.permutations(range(1, r + 1)))),
                      tuple(data.draw(st.lists(label, min_size=r,
                                               max_size=r))))

    def neg(arcs):
        return [(i, j, -lab % m) for i, j, lab in arcs]

    assert iota_diagram(from_awb(m, n, tops, w, bots)) == \
        from_awb(m, n, neg(bots), inverse(w), neg(tops))


def test_iota_group_action():
    # iota(w * x) = iota(x) * w^{-1}, with no loops involved on either side
    rng = random.Random(13)
    for (m, n) in [(2, 3), (3, 2), (3, 3)]:
        params = admissible_numeric(m, seed=m + 1)
        alg = DiagramAlgebra(m, n, params)
        basis = enumerate_basis(m, n)
        W = enumerate_group(m, n)
        for _ in range(150):
            w, x = rng.choice(W), rng.choice(basis)
            lhs = (alg.element(wreath_to_diagram(w)) * alg.element(x)).iota()
            rhs = alg.element(x).iota() * alg.element(wreath_to_diagram(inverse(w)))
            assert lhs == rhs


def test_wreath_embedding_is_a_homomorphism():
    rng = random.Random(17)
    from cycbrauer.wreath import compose
    for (m, n) in [(2, 3), (3, 2)]:
        alg = symbolic_algebra(m, n)
        W = enumerate_group(m, n)
        for _ in range(100):
            g, h = rng.choice(W), rng.choice(W)
            assert alg.embed_wreath(g) * alg.embed_wreath(h) == \
                alg.embed_wreath(compose(g, h))


def test_is_admissible():
    assert is_admissible(SymbolicParams(2))
    assert not is_admissible(SymbolicParams(3))
    assert is_admissible(SymbolicParams(3, symmetric=True))
    assert is_admissible(NumericParams(Q, [1, 5, 5]))
    assert not is_admissible(NumericParams(Q, [1, 5, 6]))


def test_operands_must_share_the_ring():
    # one rule for delta polynomials and algebra elements: both operands
    # belong to the same ring object, else ValueError.  Parameter rings are
    # shared per (m, field, symmetric), so a free and a symmetric ring stand
    # for two different rings
    p, q = SymbolicParams(2), SymbolicParams(2, symmetric=True)
    a, b = DiagramAlgebra(2, 2, p), DiagramAlgebra(2, 2, p)
    for x, y in [(p.delta(0), q.delta(0)), (a.s(1), b.s(1)),
                 (a.one, symbolic_algebra(2, 2).one)]:
        for op in (operator.add, operator.sub, operator.mul, operator.eq):
            with pytest.raises(ValueError, match="mixed rings"):
                op(x, y)
    assert a.s(1) + a.e(1) - a.e(1) == a.s(1) and p.delta(0) - p.delta(0) == 0
