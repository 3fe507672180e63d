"""Partition and multipartition combinatorics."""

import pytest

from cycbrauer.partitions import (add_one_box, add_two_boxes_not_same_column,
                                  admissible_set, content_sum, contains,
                                  multipartitions, partitions, skew_boxes,
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


def test_skew_and_content():
    lam, mu = ((3, 1), ()), ((1,), ())
    boxes = skew_boxes(lam, mu)
    assert len(boxes) == 3
    assert contains(lam, mu)
    assert not contains(mu, lam)
    # contents col - row over the skew boxes
    assert content_sum(lam, mu) == sum(j - i for _, i, j in boxes)


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

