"""Wreath group G(m,1,n) = (Z/m) wr S_n and its group algebra, the span of
the all-vertical diagrams in B_{m,n}."""

import random

import pytest

from cycbrauer.diagrams import (DiagramAlgebra, NumericParams,
                                verify_prop_eta)
from cycbrauer.scalars import CyclotomicField
from cycbrauer.wreath import (WreathElement, compose, enumerate_group, gen_s,
                              gen_t, group_order, identity, inverse)


def test_group_order_and_enumeration():
    for m in range(1, 5):
        for n in range(1, 5):
            want = m ** n * 1
            for k in range(2, n + 1):
                want *= k
            assert group_order(m, n) == want
            els = enumerate_group(m, n)
            assert len(els) == want
            assert len(set(els)) == want


def test_group_axioms():
    rng = random.Random(2)
    for (m, n) in [(2, 3), (3, 2), (4, 2)]:
        els = enumerate_group(m, n)
        e = identity(m, n)
        for _ in range(100):
            g, h, k = (rng.choice(els) for _ in range(3))
            assert compose(compose(g, h), k) == compose(g, compose(h, k))
            assert compose(g, inverse(g)) == e
            assert compose(inverse(g), g) == e
            assert compose(g, e) == g


def test_generator_relations():
    m, n = 3, 3
    s1, s2 = gen_s(m, n, 1), gen_s(m, n, 2)
    t1, t2 = gen_t(m, n, 1), gen_t(m, n, 2)
    e = identity(m, n)
    assert compose(s1, s1) == e
    assert compose(compose(s1, s2), s1) == compose(compose(s2, s1), s2)
    tm = t1
    for _ in range(m - 1):
        tm = compose(tm, t1)
    assert tm == e
    assert compose(t1, t2) == compose(t2, t1)
    assert compose(s1, t1) == compose(t2, s1)


def test_bad_elements_rejected():
    with pytest.raises(ValueError):
        WreathElement(2, 2, (1, 1), (0, 0))
    with pytest.raises(ValueError):
        WreathElement(2, 2, (1, 2), (0, 2))


def test_group_algebra_distributes():
    F = CyclotomicField(3)
    alg = DiagramAlgebra(3, 2, NumericParams(F, [0, 0, 0]))
    els = enumerate_group(3, 2)
    rng = random.Random(4)
    picks = [alg.embed_wreath(rng.choice(els)).scale(F.zeta ** k)
             for k in range(6)]
    a = picks[0] + picks[1]
    b = picks[2] - picks[3]
    c = picks[4] + picks[5]
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_prop_eta(m):
    rep = verify_prop_eta(m)
    assert rep["ok"], rep
    assert rep["rank"] == m
