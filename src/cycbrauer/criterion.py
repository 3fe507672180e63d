"""Semisimplicity criterion for B_{m,n}(delta).

Ingredients: the transformed parameters bar_delta_i = sum_j delta_j xi^{ji},
the integer sets Z_{m,n} = m * Ztilde_{m,n} (available both as a closed-form
"printed" set and as a "combinatorial" set of skew content sums over
admissible two-box extensions), the cell factors g_{lambda,mu} and their
products g_mu, and the decision procedure itself.

The three decision variants are deliberately kept separate so that the
concordance sweep can compare them against the brute-force oracle instead of
silently reconciling them; they provably agree for n >= 4 but differ on a
thin locus for n in {2, 3}.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import lru_cache
from math import factorial

from .partitions import admissible_set, multipartitions, partitions, \
    add_two_boxes_not_same_column

VARIANTS = ("printed-z", "combinatorial-rho", "gmu")


def divides(e, k):
    """Whether e | k, with e None meaning characteristic 0 (never divides
    a nonzero integer)."""
    if e is None:
        return False
    return k % e == 0


def char_e(field):
    p = field.characteristic
    return p if p else None


def bar_deltas(field, deltas):
    """bar_delta_i = sum_{j=1}^m delta_j xi^{ji} for i = 0..m-1, with
    delta_m = delta_0 and xi a fixed primitive m-th root of unity in F."""
    m = len(deltas)
    xi = field.root_of_unity(m)
    vals = [field.coerce(d) for d in deltas]
    out = []
    for i in range(m):
        acc = field.zero
        for j in range(1, m + 1):
            acc = acc + vals[j % m] * xi ** ((j * i) % m)
        out.append(acc)
    return out


@lru_cache(maxsize=None)
def z_tilde(m, n, variant="printed"):
    """The set Ztilde_{m,n} (n >= 2), frozen.

    printed: {3-n..n-3} u {2k-3 | 3<=k<=n}, plus {2-n, n-2} when m >= 3.
    combinatorial: content sums over admissible two-box extensions of the
    m-multipartitions of n-2 (for m = 1: two-box distinct-column extensions
    of partitions of k-2 over all 2 <= k <= n).
    """
    if n < 2:
        raise ValueError("n >= 2 required")
    if variant == "printed":
        out = set(range(3 - n, n - 2)) | {2 * k - 3 for k in range(3, n + 1)}
        if m >= 3:
            out |= {2 - n, n - 2}
        return frozenset(out)
    if variant != "combinatorial":
        raise ValueError("unknown variant %r" % variant)
    out = set()
    if m == 1:
        for k in range(2, n + 1):
            for mu in partitions(k - 2):
                for _, c in add_two_boxes_not_same_column(mu):
                    out.add(c)
        return frozenset(out)
    for mu in multipartitions(m, n - 2):
        for pair in admissible_set(mu, m):
            out.add(pair.content)
    return frozenset(out)


def z_set(m, n, variant="printed"):
    """Z_{m,n} = m * Ztilde_{m,n}."""
    return frozenset(m * a for a in z_tilde(m, n, variant))


def brauer_z(n):
    """The classical Brauer set Z(n): integer delta with B_n(delta) not
    semisimple in characteristic 0 (n >= 2)."""
    out = set(range(4 - 2 * n, n - 1))
    out -= {i for i in range(4 - 2 * n + 1, 3 - n + 1) if i % 2}
    return frozenset(out)


def g_lambda_mu(field, deltas, pair):
    """The cell factor attached to an admissible pair lambda/mu."""
    m = len(deltas)
    bars = bar_deltas(field, deltas)
    c = field.embed(m * pair.content)
    out = bars[0] - field.embed(m) + c
    for i in range(1, m):
        out = out * (bars[i] + c)
    return out


def g_mu(field, deltas, mu):
    """g_mu = product of g_{lambda,mu} over admissible lambda."""
    m = len(deltas)
    out = field.one
    for pair in admissible_set(mu, m):
        out = out * g_lambda_mu(field, deltas, pair)
    return out


@dataclass
class Verdict:
    decision: str  # "semisimple" or "not-semisimple"
    variant: str
    reasons: list = dfield(default_factory=list)

    @property
    def semisimple(self):
        return self.decision == "semisimple"

    def to_json(self):
        return {"decision": self.decision, "variant": self.variant,
                "reasons": self.reasons}


def decide(m, n, field, deltas, variant="printed-z"):
    """Decide semisimplicity of B_{m,n}(delta) over the given field.

    deltas: length-m sequence (delta_0..delta_{m-1}) of ints or field
    elements.  Variants: "printed-z" and "combinatorial-rho" test the
    hyperplane conditions eps_{i,0} m - bar_delta_i not in Z_{m,n};
    "gmu" tests g_mu != 0 over the m-multipartitions of n-2.

    m = 1 always uses the classical Brauer criterion (the hyperplane form
    of the statement is specific to m >= 2); the variant tag is recorded
    unchanged for reporting.
    """
    if variant not in VARIANTS:
        raise ValueError("unknown variant %r" % variant)
    if len(deltas) != m:
        raise ValueError("need m loop parameters")
    e = char_e(field)
    vals = [field.coerce(d) for d in deltas]
    reasons = []

    if n == 1:
        if divides(e, m):
            reasons.append({"kind": "char", "divisor": m})
            return Verdict("not-semisimple", variant, reasons)
        return Verdict("semisimple", variant, reasons)

    if m == 1:
        if divides(e, factorial(n)):
            reasons.append({"kind": "char", "divisor": factorial(n)})
            return Verdict("not-semisimple", variant, reasons)
        for k in brauer_z(n):
            if vals[0] == field.embed(k):
                reasons.append({"kind": "brauer-z", "k": k})
                return Verdict("not-semisimple", variant, reasons)
        return Verdict("semisimple", variant, reasons)

    if all(not v for v in vals):
        reasons.append({"kind": "delta-zero"})
        return Verdict("not-semisimple", variant, reasons)

    if divides(e, m * factorial(n)):
        reasons.append({"kind": "char", "divisor": m * factorial(n)})
        return Verdict("not-semisimple", variant, reasons)

    if variant == "gmu":
        for mu in multipartitions(m, n - 2):
            if not g_mu(field, vals, mu):
                reasons.append({"kind": "gmu-zero", "mu": [list(p) for p in mu]})
        if reasons:
            return Verdict("not-semisimple", variant, reasons)
        return Verdict("semisimple", variant, reasons)

    zvariant = "printed" if variant == "printed-z" else "combinatorial"
    zs = sorted(z_set(m, n, zvariant))
    bars = bar_deltas(field, vals)
    for i in range(m):
        lhs = field.embed(m if i == 0 else 0) - bars[i]
        for k in zs:
            if lhs == field.embed(k):
                reasons.append({"kind": "hyperplane", "i": i, "k": k})
    if reasons:
        return Verdict("not-semisimple", variant, reasons)
    return Verdict("semisimple", variant, reasons)
