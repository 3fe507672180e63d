"""Partition and multipartition combinatorics."""

import itertools

import pytest

from cycbrauer.partitions import (add_one_box, add_two_boxes_not_same_column,
                                  admissible_set, multipartitions, partitions,
                                  t_set)

PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partition_counts():
    for d, want in enumerate(PARTITION_COUNTS):
        ps = partitions(d)
        assert len(ps) == want
        for p in ps:
            assert sum(p) == d
            assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))


def test_multipartition_counts():
    # |Lambda_m(d)| = sum over compositions; spot check small values
    assert len(multipartitions(2, 2)) == 5
    assert len(multipartitions(3, 2)) == 9
    for m in (1, 2, 3):
        for d in range(4):
            for mu in multipartitions(m, d):
                assert len(mu) == m
                assert sum(map(sum, mu)) == d


def _skew_boxes(lam, mu):
    """Boxes of lam/mu as (component, row, col), 1-based; lam contains mu."""
    return [(comp, i + 1, j + 1)
            for comp, (lp, mp) in enumerate(zip(lam, mu), 1)
            for i, row in enumerate(lp)
            for j in range(mp[i] if i < len(mp) else 0, row)]


def _containing(p, t):
    """The partitions with t more boxes than p that contain p."""
    return [q for q in partitions(sum(p) + t)
            if len(q) >= len(p) and all(a <= b for a, b in zip(p, q))]


def _reference_admissible_set(mu, m):
    """admissible_set as {lam: (condition, content)} by the skew-box
    construction it replaced: every lam with two more boxes than mu, the
    conditions read off the boxes' components and columns, the content
    summed over the boxes."""
    out = {}
    for a, b in itertools.combinations_with_replacement(range(m), 2):
        if a == b:
            lams = [mu[:a] + (q,) + mu[a + 1:] for q in _containing(mu[a], 2)]
        else:
            lams = [mu[:a] + (qa,) + mu[a + 1:b] + (qb,) + mu[b + 1:]
                    for qa in _containing(mu[a], 1)
                    for qb in _containing(mu[b], 1)]
        for lam in lams:
            (c1, r1, k1), (c2, r2, k2) = _skew_boxes(lam, mu)
            if c1 == c2 == m and k1 != k2:
                tag = 1
            elif c1 + c2 == m and c1 != c2:
                tag = 2 if m % 2 else 3
            elif 2 * c1 == 2 * c2 == m and k1 != k2:
                tag = 4
            else:
                continue
            out[lam] = (tag, k1 - r1 + k2 - r2)
    return out


def test_admissible_set_matches_the_skew_box_reference():
    count = 0
    for m in range(1, 7):
        for d in range(9 if m <= 2 else 6):
            for mu in multipartitions(m, d):
                got = admissible_set(mu, m)
                assert {p.lam: (p.condition, p.content) for p in got} == \
                    _reference_admissible_set(mu, m), (m, mu)
                assert len({p.lam for p in got}) == len(got), (m, mu)
                count += 1
    assert count == 3263


def test_same_column_iff_the_content_drops_by_one():
    # add_two_boxes_not_same_column reads "one column" as c2 == c1 - 1
    dominoes = 0
    for d in range(12):
        for p in partitions(d):
            for q1, c1 in add_one_box(p):
                for q2, c2 in add_one_box(q1):
                    (_, r1, k1), (_, r2, k2) = _skew_boxes((q2,), (p,))
                    assert (k1 == k2) == (c2 == c1 - 1), (p, q2)
                    dominoes += k1 == k2
    assert dominoes


def test_box_additions():
    assert set(add_one_box(())) == {((1,), 0)}
    got = add_one_box((2, 1))
    # three addable corners with contents 2, 0, -2
    assert sorted(c for _, c in got) == [-2, 0, 2]
    for lam, c in add_two_boxes_not_same_column((1,)):
        assert sum(lam) == 3
    pairs = add_two_boxes_not_same_column(())
    assert sorted(c for _, c in pairs) == [1]  # only the row (2)


def test_admissible_set_smallest():
    # mu empty, m = 2: the admissible lambdas are two-box additions to one
    # component subject to the defining constraints
    mu = ((), ())
    pairs = admissible_set(mu, 2)
    assert pairs
    for pr in pairs:
        assert sum(map(sum, pr.lam)) == 2
        assert isinstance(pr.content, int)


@pytest.mark.parametrize("a", range(13))
def test_t_set_closed_form(a):
    brute, closed, equal = t_set(a)
    assert equal
    assert brute == closed

