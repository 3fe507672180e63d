"""The three benchmark workloads: input generation, ops and output checks.

Each workload is a fixed list of ops built from the workload seed.  An op is
one call (or a short fixed group of calls) into the public functions of
``cycbrauer``; the library only ever sees the generated delta vectors (the
concordance sweep also takes the seed, as its own point generator is part of
what it measures).  Every result is checked: a check returns None when the
output is correct and a one-line reason otherwise.

Pinned values hold at DEFAULT_SEED.  Inputs that do not depend on the seed
(delta = 0, the symbolic Gram forms) are checked against their pinned values
at every seed; every other check is a self-consistency check that holds at
every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from cycbrauer.criterion import VARIANTS, bar_deltas, decide, z_set
from cycbrauer.diagrams import NumericParams, SymbolicParams
from cycbrauer.gram import (cell_gram, equivariance_check, gram_big,
                            shape_check, single_box_gram)
from cycbrauer.oracle import concordance_sweep, semisimple_verdict
from cycbrauer.scalars import CyclotomicField

DEFAULT_SEED = 0
WORKLOADS = ("oracle-cold", "concord-sweep", "closed-form")

# radical dimension of B_{m,n}(0)
PINNED_RADICAL = {(2, 3): 54, (3, 3): 162}
CONCORD_GRID = [{"m": 2, "n": 2, "deltas": [[1, -1]]}, (3, 2), (2, 3)]
CONCORD_POINTS = 46
# iota-form on V: size, nonzero entries, generators equivariance covers
PINNED_GRAM = {(2, 4): (96, 960, ["left-s1", "left-s2", "left-s3", "left-t1",
                                  "right-t1", "right-s1"]),
               (4, 3): (48, 576, ["left-s1", "left-s2", "left-t1",
                                  "right-t1"])}


@dataclass
class Op:
    name: str
    group: str  # which detail metric the op's time feeds
    run: Callable[[], object]
    check: Callable[[object], object]
    units: int = 1  # decide calls or sweep points done by one run


def _is_rational_integer(x):
    c = x.coeffs
    return c[0].denominator == 1 and not any(c[1:])


def generic_point(field, m, rng):
    """An admissible delta (delta_a = delta_{m-a}) with no bar_delta_i a
    rational integer, hence off every variant's hyperplane locus."""
    while True:
        free = [field.embed(Fraction(rng.choice((-1, 1)) * rng.randint(100, 999),
                                     rng.randint(100, 999)))
                for _ in range(m // 2 + 1)]
        deltas = [free[min(j, m - j)] for j in range(m)]
        if not any(_is_rational_integer(b) for b in bar_deltas(field, deltas)):
            return deltas


def hyperplane_point(field, m, i, k, rng):
    """An admissible delta with eps_{i,0} m - bar_delta_i = k and the other
    bar coordinates random integers (the bar transform inverted)."""
    bars = [None] * m
    for j in range(m // 2 + 1):
        bars[j] = bars[(m - j) % m] = field.embed(rng.randint(2 * m + 1, 6 * m))
    bars[i] = bars[(m - i) % m] = field.embed((m if i == 0 else 0) - k)
    xi = field.root_of_unity(m)
    minv = field.embed(Fraction(1, m))
    deltas = []
    for j in range(m):
        acc = field.zero
        for ii in range(m):
            acc = acc + bars[ii] * xi ** ((-j * ii) % m)
        deltas.append(acc * minv)
    lhs = field.embed(m if i == 0 else 0) - bar_deltas(field, deltas)[i]
    if lhs != field.embed(k):
        raise ValueError("hyperplane point generation is inconsistent")
    return deltas


# ---------------------------------------------------------------------------
# oracle-cold
# ---------------------------------------------------------------------------

def _verdict_check(radical):
    def check(v):
        if v.get("verdict") not in ("semisimple", "not-semisimple"):
            return "verdict %r" % v.get("verdict")
        if v.get("cross_check_agrees") is not True:
            return "cell-determinant cross-check disagrees"
        if not v.get("admissible"):
            return "point off the admissible locus"
        if v["radical"] != radical:
            return "radical %d, expected %d" % (v["radical"], radical)
        if (v["verdict"] == "semisimple") != (radical == 0):
            return "verdict contradicts radical"
        return None
    return check


def oracle_cold(seed, root):
    rng = random.Random(seed)
    ops = []
    for (m, n) in ((2, 3), (3, 3)):
        field = CyclotomicField(m)
        points = [("delta-zero", "radical", [field.zero] * m,
                   PINNED_RADICAL[(m, n)]),
                  ("generic", "full-rank", generic_point(field, m, rng), 0)]
        for tag, group, deltas, radical in points:
            ops.append(Op(
                "(%d,%d)/%s" % (m, n, tag), group,
                lambda m=m, n=n, f=field, d=deltas:
                    semisimple_verdict(m, n, f, d),
                _verdict_check(radical)))
    return ops


# ---------------------------------------------------------------------------
# concord-sweep
# ---------------------------------------------------------------------------

def _normalised(report):
    out = json.loads(json.dumps(report, sort_keys=True))
    out.pop("elapsed_seconds", None)
    return out


def concord_sweep(seed, root):
    tracked = None
    if seed == DEFAULT_SEED:
        with open(root / "reports" / "concordance.json") as fh:
            tracked = _normalised(json.load(fh))

    def check(report):
        s = report["summary"]
        if s["num_points"] != CONCORD_POINTS:
            return "%d points, expected %d" % (s["num_points"], CONCORD_POINTS)
        if s["generic_disagreements"]:
            return "%d generic disagreements" % len(s["generic_disagreements"])
        if s["cross_check_failures"]:
            return "%d cross-check failures" % s["cross_check_failures"]
        if any(p["oracle"].get("verdict") == "unsupported"
               for p in report["points"]):
            return "oracle returned unsupported"
        if tracked is not None and _normalised(report) != tracked:
            return "report differs from reports/concordance.json"
        return None

    return [Op("sweep", "sweep",
               lambda: concordance_sweep(CONCORD_GRID, seed=seed,
                                         generic_points=10,
                                         hyperplane_points=99),
               check, units=CONCORD_POINTS)]


# ---------------------------------------------------------------------------
# closed-form
# ---------------------------------------------------------------------------

def _decide_check(expected):
    def check(verdicts):
        got = {v.variant: v.decision for v in verdicts}
        if set(got.values()) != {expected}:
            return "variants %s, expected all %s" % (got, expected)
        return None
    return check


def _shape_result(m, n):
    free = SymbolicParams(m)
    g = gram_big(m, n, free)
    return g, shape_check(g, free)


def _shape_check(m, n):
    def check(result):
        g, bad = result
        shape = (g.size, sum(1 for row in g.entries for x in row if x))
        if shape != PINNED_GRAM[(m, n)][:2]:
            return "iota-form size, nonzero entries %s" % (shape,)
        return "%d shape violations" % len(bad) if bad else None
    return check


def _equivariance_check(m, n):
    def check(rep):
        if not rep["ok"] or rep["checked"] != PINNED_GRAM[(m, n)][2]:
            return "equivariance failed: %s" % rep["failures"][:1]
        return None
    return check


def _cell_check(m, mu, point):
    """The symbolic determinant is nonzero and, evaluated at a generic
    point, equals the numeric determinant there (computed once; later runs
    must return the determinant already verified)."""
    verified = []

    def check(g):
        if not g.det:
            return "symbolic cell determinant is zero"
        if verified:
            return (None if g.det.terms == verified[0].terms
                    else "determinant changed")
        numeric = cell_gram(m, 3, mu, NumericParams(CyclotomicField(m), point))
        if g.det.evaluate(point) != numeric.det:
            return "symbolic determinant disagrees with the numeric one"
        verified.append(g.det)
        return None
    return check


def _single_box_check(result):
    _, rep = result
    if not rep["matches_printed_at_zero"]:
        return "%d block-form mismatches" % len(rep["mismatches"])
    if any(c != "0" for c in rep["det_at_zero"].split(",")):
        return "det at delta = 0 is %s" % rep["det_at_zero"]
    return None


def closed_form(seed, root):
    rng = random.Random(seed)
    ops = []
    generic = {}
    for m in (2, 3, 4):
        field = CyclotomicField(m)
        for n in (4, 5, 6):
            generic[(m, n)] = generic_point(field, m, rng)
            points = [("generic", generic[(m, n)], "semisimple")]
            combos = [(k, i) for k in sorted(z_set(m, n, "printed"))
                      for i in range(m // 2 + 1)]
            for k, i in rng.sample(combos, 2):
                points.append(("k=%d,i=%d" % (k, i),
                               hyperplane_point(field, m, i, k, rng),
                               "not-semisimple"))
            for tag, deltas, expected in points:
                ops.append(Op(
                    "decide (%d,%d) %s" % (m, n, tag), "decide",
                    lambda m=m, n=n, f=field, d=deltas:
                        [decide(m, n, f, d, v) for v in VARIANTS],
                    _decide_check(expected), units=len(VARIANTS)))
    for (m, n) in ((2, 4), (4, 3)):
        ops.append(Op("gram_big+shape (%d,%d)" % (m, n), "gram",
                      lambda m=m, n=n: _shape_result(m, n), _shape_check(m, n)))
        ops.append(Op("equivariance (%d,%d)" % (m, n), "gram",
                      lambda m=m, n=n: equivariance_check(
                          m, n, SymbolicParams(m, symmetric=m >= 3)),
                      _equivariance_check(m, n)))
    for m in (2, 3, 4):
        mu = tuple([(1,)] + [()] * (m - 1))
        ops.append(Op("cell_gram (%d,3)" % m, "gram",
                      lambda m=m, mu=mu: cell_gram(
                          m, 3, mu, SymbolicParams(m, CyclotomicField(m),
                                                   symmetric=True)),
                      _cell_check(m, mu, generic[(m, 4)])))
    for m in (2, 3, 4, 5):
        ops.append(Op("single_box m=%d" % m, "gram",
                      lambda m=m: single_box_gram(m), _single_box_check))
    return ops


BUILDERS = {"oracle-cold": oracle_cold, "concord-sweep": concord_sweep,
            "closed-form": closed_form}


def build(workload, seed, root):
    return BUILDERS[workload](seed, root)
