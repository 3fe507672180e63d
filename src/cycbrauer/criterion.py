"""Semisimplicity criterion for B_{m,n}(delta).

Ingredients: the transformed parameters bar_delta_i = sum_j delta_j xi^{ji},
the integer sets Z_{m,n} = m * Ztilde_{m,n} (available both as a closed-form
"printed" set and as a "combinatorial" set of skew content sums over
admissible two-box extensions), the cell factors g_{lambda,mu} and their
products g_mu, and the decision procedure itself.

The three decision variants are deliberately kept separate so that the
concordance sweep can compare them against the brute-force oracle instead of
silently reconciling them.  The printed and combinatorial Ztilde sets
coincide for n >= 4 (checked up to m = 5, n = 8) and differ by the element
1 at n = 2, and at n = 3 for m <= 2.  None of the variants is proved
right, and each is wrong on some hyperplanes, n = 4 included: at (2,4),
delta = (-59/58, 405/58) has a radical of dimension 23, yet all three say
semisimple; at (3,3), delta = (578/87, -28/87, -28/87) has none, yet all
three say not semisimple.  They agree with the oracle at every generic
point checked.

"gmu" and "combinatorial-rho" always reach the same decision, in any
characteristic: g_{lambda,mu} vanishes iff one of its factors
m eps_{i,0} - bar_delta_i - m c does (c the content of lambda/mu), and the
combinatorial Z_{m,n} is m times the same contents.  Only their reasons
differ, so a concordance sweep compares two independent decisions with the
oracle, not three.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import lru_cache
from math import factorial, prod

from .partitions import admissible_set, multipartitions

VARIANTS = ("printed-z", "combinatorial-rho", "gmu")


def bar_deltas(field, deltas):
    """bar_delta_i = sum_{j=1}^m delta_j xi^{ji} for i = 0..m-1, with
    delta_m = delta_0 and xi a fixed primitive m-th root of unity in F.
    Applied to a bar vector it gives m delta_{-i}: the inverse up to m."""
    m = len(deltas)
    xi = field.root_of_unity(m)
    roots = [field.one, xi]  # xi^k at k; m = 1 reads only xi^0
    for _ in range(m - 2):
        roots.append(roots[-1] * xi)
    vals = [field.coerce(d) for d in deltas]
    return [sum((vals[j % m] * roots[j * i % m] for j in range(1, m + 1)),
                field.zero) for i in range(m)]


@lru_cache(maxsize=1)
def _bars(field, deltas):
    """bar_deltas of a tuple of field elements, kept for the last point:
    decide in each variant and g_mu_values at one point share one
    transform."""
    return tuple(bar_deltas(field, deltas))


@lru_cache(maxsize=None)
def z_tilde(m, n, variant="printed"):
    """The set Ztilde_{m,n} (n >= 2), frozen.

    printed: {3-n..n-3} u {2k-3 | 3<=k<=n}, plus {2-n, n-2} when m >= 3.
    combinatorial: content sums over admissible two-box extensions of the
    m-multipartitions of n-2 (for m = 1, of k-2 over all 2 <= k <= n).
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
    return frozenset().union(*(_mu_contents(m, k)[1]
                               for k in (range(2, n + 1) if m == 1 else (n,))))


def z_set(m, n, variant="printed"):
    """Z_{m,n} = m * Ztilde_{m,n}."""
    return frozenset(m * a for a in z_tilde(m, n, variant))


def brauer_z(n):
    """The classical Brauer set Z(n), n >= 2: the nonzero integers delta
    with B_n(delta) not semisimple in characteristic 0, and 0, which
    decide settles apart by Rui's theorem."""
    out = set(range(4 - 2 * n, n - 1))
    out -= {i for i in range(4 - 2 * n + 1, 3 - n + 1) if i % 2}
    return frozenset(out)


def g_lambda_mu(field, bars, content):
    """The cell factor attached to an admissible pair lambda/mu of the given
    content, from the bar vector ``bars = bar_deltas(field, deltas)``."""
    m = len(bars)
    c = field.embed(m * content)
    out = bars[0] - field.embed(m) + c
    for i in range(1, m):
        out = out * (bars[i] + c)
    return out


def g_mu(field, deltas, mu):
    """g_mu = product of g_{lambda,mu} over admissible lambda."""
    bars = _bars(field, tuple(field.coerce(d) for d in deltas))
    out = field.one
    for pair in admissible_set(mu, len(deltas)):
        out = out * g_lambda_mu(field, bars, pair.content)
    return out


@lru_cache(maxsize=None)
def _mu_contents(m, n):
    """Each m-multipartition mu of n - 2 with the contents of its
    admissible pairs (one per pair), in multipartitions order, and the set
    of all those contents."""
    table = tuple((mu, tuple(p.content for p in admissible_set(mu, m)))
                  for mu in multipartitions(m, n - 2))
    return table, frozenset().union(*(cs for _, cs in table))


def g_mu_values(m, n, field, deltas):
    """(mu, g_mu) for each m-multipartition mu of n - 2, in multipartitions
    order: one bar transform, and one cell factor per content, which
    enters g_mu once per admissible pair of that content."""
    table, contents = _mu_contents(m, n)
    bars = _bars(field, tuple(field.coerce(d) for d in deltas))
    factor = {c: g_lambda_mu(field, bars, c) for c in contents}
    return [(mu, prod((factor[c] for c in cs), start=field.one))
            for mu, cs in table]


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

    B_{m,0} is the field, semisimple in every variant; B_{m,1} is the
    group algebra of Z/m, semisimple iff the characteristic does not
    divide m.  m = 1 always uses the classical criterion for B_n(delta) (the
    hyperplane form of the statement is specific to m >= 2): Rui's at
    delta = 0, the Brauer set Z(n) elsewhere; the variant tag is recorded
    unchanged for reporting.
    """
    if variant not in VARIANTS:
        raise ValueError("unknown variant %r" % variant)
    if len(deltas) != m:
        raise ValueError("need m loop parameters")
    reasons = _obstructions(m, n, field, [field.coerce(d) for d in deltas],
                            variant)
    return Verdict("not-semisimple" if reasons else "semisimple", variant,
                   reasons)


def _obstructions(m, n, field, vals, variant):
    """decide's reasons against semisimplicity; none means semisimple."""
    p = field.characteristic
    if n == 0:  # B_{m,0} is the field
        return []
    if n == 1:  # the group algebra of Z/m
        return [{"kind": "char", "divisor": m}] if p and m % p == 0 else []
    if m == 1:
        if p and factorial(n) % p == 0:
            return [{"kind": "char", "divisor": factorial(n)}]
        if not vals[0]:  # Rui (2005): B_n(0) is semisimple iff n in {1, 3, 5}
            return [] if n in (3, 5) else [{"kind": "delta-zero"}]
        for k in brauer_z(n):
            if vals[0] == field.embed(k):
                return [{"kind": "brauer-z", "k": k}]
        return []
    if all(not v for v in vals):
        return [{"kind": "delta-zero"}]
    if p and m * factorial(n) % p == 0:
        return [{"kind": "char", "divisor": m * factorial(n)}]
    bars = _bars(field, tuple(vals))
    if variant == "gmu":
        # g_mu = 0 iff one of its factors is, and a factor depends on its
        # pair only through the content: one zero test per content
        table, contents = _mu_contents(m, n)
        zeros = {c for c in contents if not g_lambda_mu(field, bars, c)}
        return [{"kind": "gmu-zero", "mu": [list(part) for part in mu]}
                for mu, cs in table if zeros.intersection(cs)]
    zs = sorted(z_set(m, n, "printed" if variant == "printed-z"
                      else "combinatorial"))
    lhs = [field.embed(m if i == 0 else 0) - b for i, b in enumerate(bars)]
    return [{"kind": "hyperplane", "i": i, "k": k}
            for i, x in enumerate(lhs) for k in zs if x == field.embed(k)]
