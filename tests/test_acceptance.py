"""Acceptance gate: thirteen criteria, one printed pass/fail line each.

Each criterion prints exactly one ACCEPTANCE line (visible because pytest is
configured with -s) and then asserts, so the pytest outcome and the printed
table always agree.
"""

import json
import os
import random
import tempfile
import time
from fractions import Fraction

import numpy as np

from cycbrauer.criterion import z_tilde
from cycbrauer.diagrams import (DiagramAlgebra, NumericParams, SymbolicParams,
                                associativity_check, enumerate_basis,
                                basis_size, multiply_diagrams,
                                verify_prop_eta, verify_relations,
                                wreath_to_diagram)
from cycbrauer.gram import (cell_gram, equivariance_check, gram_big,
                            shape_check, single_box_gram)
from cycbrauer.linalg import primes_for_modular
from cycbrauer.oracle import (_rank_exact_certified, _to_rational_blocks,
                              concordance_sweep, report_csv,
                              semisimple_verdict)
from cycbrauer.partitions import t_set
from cycbrauer.scalars import CyclotomicField
from cycbrauer.wreath import (compose, enumerate_group, group_order, identity,
                              inverse)

Q = CyclotomicField(1)
REPORT_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "reports")

_cache = {}


def emit(num, name, ok, detail=""):
    line = "ACCEPTANCE %02d %s: %s" % (num, name, "PASS" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def admissible_numeric(m, seed=0):
    rng = random.Random(seed)
    free = [Fraction(rng.randint(-25, 25), rng.randint(1, 8))
            for _ in range(m // 2 + 1)]
    return NumericParams(Q, [free[min(j, m - j)] for j in range(m)])


def _without_timing(report):
    report = dict(report)
    report.pop("elapsed_seconds", None)
    return report


def concord_report():
    """Criterion 13 sweep, shared with criterion 12.  The deliverable is
    written to a temporary directory, read back and compared with the
    tracked reports/concordance.{json,csv}, apart from elapsed_seconds;
    tests never rewrite tracked files.  The grid and settings are the
    tracked reports/concordance.config.json."""
    if "concord" not in _cache:
        with open(os.path.join(REPORT_DIR, "concordance.config.json")) as fh:
            config = json.load(fh)
        t0 = time.time()
        rep = concordance_sweep(**config)
        rep["elapsed_seconds"] = round(time.time() - t0, 1)
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "concordance.json"), "w") as fh:
                json.dump(rep, fh, indent=2, sort_keys=True)
            with open(os.path.join(tmp, "concordance.csv"), "w") as fh:
                fh.write(report_csv(rep))
            with open(os.path.join(tmp, "concordance.json")) as fh:
                written = json.load(fh)
            with open(os.path.join(tmp, "concordance.csv")) as fh:
                written_csv = fh.read()
        with open(os.path.join(REPORT_DIR, "concordance.json")) as fh:
            tracked = json.load(fh)
        with open(os.path.join(REPORT_DIR, "concordance.csv")) as fh:
            tracked_csv = fh.read()
        _cache["concord"] = rep
        _cache["concord_matches_tracked"] = (
            _without_timing(written) == _without_timing(tracked)
            and written_csv == tracked_csv)
    return _cache["concord"]


def test_criterion_01_relation_suite():
    t0 = time.time()
    bad = []
    for m in (2, 3, 4):
        for n in (2, 3):
            bad += [r for r in verify_relations(m, n) if not r["ok"]]
    bad += [r for r in verify_relations(2, 4) if not r["ok"]]
    elapsed = time.time() - t0
    emit(1, "relation suite on the (m,n) grid", not bad and elapsed < 30,
         "%.1fs" % elapsed)


def test_criterion_02_dimension_counts():
    ok = True
    for m in (2, 3, 4):
        for n in (2, 3):
            dfac = 1
            for k in range(1, 2 * n, 2):
                dfac *= k
            ok &= len(enumerate_basis(m, n)) == m ** n * dfac
    ok &= len(enumerate_basis(2, 4)) == basis_size(2, 4) == 2 ** 4 * 105
    for m in range(1, 5):
        for n in range(1, 5):
            fact = 1
            for k in range(2, n + 1):
                fact *= k
            ok &= group_order(m, n) == m ** n * fact
            ok &= len(enumerate_group(m, n)) == group_order(m, n)
    emit(2, "dimension and group order counts", ok)


def test_criterion_03_associativity_and_closure():
    r1 = associativity_check(2, 3, trials=1000, seed=101)
    r2 = associativity_check(3, 3, trials=200, seed=102)
    closure = True
    for (m, n) in [(2, 2), (3, 2)]:
        basis = set(enumerate_basis(m, n))
        for x in basis:
            for y in basis:
                prod, loops = multiply_diagrams(x, y)
                closure &= prod in basis
    emit(3, "associativity sampling and basis closure",
         r1["ok"] and r2["ok"] and closure,
         "1000@(2,3), 200@(3,3) on the admissible locus")


def test_criterion_04_star_and_iota_action():
    rng = random.Random(44)
    ok = True
    count = 0
    for (m, n) in [(2, 3), (3, 2)]:
        alg = DiagramAlgebra(m, n, admissible_numeric(m, seed=m))
        basis = enumerate_basis(m, n)
        W = enumerate_group(m, n)
        for _ in range(250):
            x = alg.element(rng.choice(basis))
            y = alg.element(rng.choice(basis))
            ok &= (x * y).star() == y.star() * x.star()
            ok &= x.star().star() == x
            w = rng.choice(W)
            lhs = (alg.element(wreath_to_diagram(w)) * x).iota()
            rhs = x.iota() * alg.element(wreath_to_diagram(inverse(w)))
            ok &= lhs == rhs
            count += 1
    emit(4, "star anti-involution and iota group action", ok,
         "%d samples each" % count)


def test_criterion_05_degree2_decomposition():
    ok = True
    for m in (2, 3, 4, 5):
        rep = verify_prop_eta(m)
        ok &= rep["ok"] and rep["rank"] == m
    emit(5, "degree-2 eigenvector decomposition, m=2..5", ok)


def test_criterion_06_shape_and_equivariance():
    ok = True
    for (m, n) in [(2, 2), (3, 2), (2, 3)]:
        free = SymbolicParams(m)
        ok &= shape_check(gram_big(m, n, free), free) == []
        ok &= equivariance_check(m, n,
                                 SymbolicParams(m, symmetric=(m >= 3)))["ok"]
    for seed in (1, 2, 3):
        ok &= equivariance_check(3, 3, admissible_numeric(3, seed))["ok"]
    emit(6, "iota-form shape and equivariance", ok)


def test_criterion_07_tset_closed_form():
    ok = all(t_set(a)[2] for a in range(13))
    emit(7, "one-box content set closed form, a=0..12", ok)


def test_criterion_08_set_equality():
    ok = True
    for m in range(1, 6):
        for n in range(4, 9):
            ok &= z_tilde(m, n, "printed") == z_tilde(m, n, "combinatorial")
    diffs = []
    for n in (2, 3):
        for m in range(1, 6):
            d = sorted(z_tilde(m, n, "combinatorial") ^
                       z_tilde(m, n, "printed"))
            diffs.append("m=%d,n=%d:%s" % (m, n, d))
    emit(8, "combinatorial vs closed-form Z sets, 4<=n<=8", ok,
         "recorded n<=3 differences " + " ".join(diffs))


def test_criterion_09_single_box_matrix():
    ok = True
    for m in range(2, 6):
        gm, rep = single_box_gram(m)
        ok &= rep["matches_printed_at_zero"]
        ok &= all(c == "0" for c in rep["det_at_zero"].split(","))
    emit(9, "one-box block matrix and det 0, m=2..5", ok)


def test_criterion_10_n2_cell_det_identity():
    ok = True
    for m in range(1, 5):
        F = CyclotomicField(m)
        params = SymbolicParams(m, F)
        g = cell_gram(m, 2, tuple(() for _ in range(m)), params)
        xi = F.root_of_unity(m)
        prod = params.one
        for i in range(m):
            bar = params.zero
            for j in range(m):
                bar = bar + params.delta(j) * (xi ** ((j * i) % m))
            prod = prod * bar
        if ((m - 1) * (m - 2) // 2) % 2:
            prod = -prod
        ok &= g.det == prod
    emit(10, "n=2 cell det equals +-prod of bar deltas, m<=4", ok)


def test_criterion_11_oracle_sanity():
    ok = True
    details = []
    for m in (2, 3, 4):
        F = CyclotomicField(m)
        group = enumerate_group(m, 2)
        N = len(group)
        e = identity(m, 2)
        index = np.array([[int(compose(g, h) == e) for h in group]
                          for g in group])
        values, blocks, deg = _to_rational_blocks(F, [F.zero, F.embed(N)],
                                                  [index[None]])
        (rank,), _ = _rank_exact_certified([values], blocks,
                                           primes_for_modular(m)[:3])
        ok &= rank == N * deg
    for (m, n) in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        F = CyclotomicField(m)
        t0 = time.time()
        v = semisimple_verdict(m, n, F, [F.zero] * m)
        dt = time.time() - t0
        ok &= v["radical"] > 0
        ok &= dt < (600 if (m, n) == (3, 3) else 60)
        details.append("(%d,%d) rad %d %.1fs" % (m, n, v["radical"], dt))
    emit(11, "oracle sanity (Maschke, delta=0 radicals)", ok,
         "; ".join(details))


def test_criterion_12_cell_det_cross_check():
    rep = concord_report()
    fails = rep["summary"]["cross_check_failures"]
    emit(12, "oracle vs cell-determinant cross-check", fails == 0,
         "%d points, %d failures" % (rep["summary"]["num_points"], fails))


def test_criterion_13_concordance_deliverable():
    rep = concord_report()
    s = rep["summary"]
    c1 = [p for p in rep["points"] if p["provenance"] == "fixture"
          and p["m"] == 2 and p["n"] == 2][0]
    c1_ok = c1["oracle"]["verdict"] == "not-semisimple"
    c1_printed = c1["criteria"]["printed-z"]["decision"]
    if c1_printed != c1["oracle"]["verdict"]:
        print("NOTE: fixture (2,2) delta=(1,-1): printed-variant says %s, "
              "oracle says %s (predicted disagreement, recorded in the "
              "report)" % (c1_printed, c1["oracle"]["verdict"]))
    matches = _cache["concord_matches_tracked"]
    ok = (not s["generic_disagreements"] and c1_ok
          and rep["elapsed_seconds"] < 1800 and matches)
    emit(13, "concordance deliverable", ok,
         "%d points in %.0fs, %d with a variant against the oracle, %s"
         % (s["num_points"], rep["elapsed_seconds"],
            s["num_disagreements"],
            "equals reports/ apart from timing" if matches
            else "DIFFERS from reports/"))
