"""Multivariate polynomials in the loop parameters delta_0..delta_{m-1}.

Sparse representation: a map from exponent vectors (length-m tuples of
non-negative ints) to nonzero scalars of a base field.  Used for symbolic
Gram matrices and symbolic determinants at small sizes.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import prod

from .scalars import CyclotomicField, FieldElement, power


class SymbolicParams:
    """Loop parameters as polynomial generators: the ring
    field[delta_0, ..., delta_{m-1}] of DeltaPoly.

    With symmetric=True the generators for delta_a and delta_{m-a} are
    identified, i.e. the parameters are generic on the admissible locus
    (the largest locus where the diagram product is associative)."""

    def __init__(self, m, field=None, symmetric=False):
        self.field = field or CyclotomicField(1)
        self.m = m
        self.symmetric = symmetric
        self.zero = DeltaPoly(self, {})
        self.one = self.embed(self.field.one)

    def __repr__(self):
        return "%r[delta_0..delta_%d]" % (self.field, self.m - 1)

    def embed(self, scalar):
        scalar = self.field.coerce(scalar)
        if not scalar:
            return DeltaPoly(self, {})
        return DeltaPoly(self, {(0,) * self.m: scalar})

    def delta(self, a):
        a = a % self.m
        if self.symmetric:
            a = min(a, self.m - a) if a else 0
        exp = [0] * self.m
        exp[a] = 1
        return DeltaPoly(self, {tuple(exp): self.field.one})


class DeltaPoly:
    """Element of the ring of a SymbolicParams.  Terms never store zero
    coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _coerce(self, other):
        if isinstance(other, DeltaPoly):
            if other.ring is not self.ring:
                raise ValueError("mixed delta rings")
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.ring.embed(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if s:
                terms[e] = s
            elif e in terms:
                del terms[e]
        return DeltaPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return DeltaPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(map(operator.add, e1, e2))
                c = c1 * c2
                s = terms.get(e)
                s = c if s is None else s + c
                if s:
                    terms[e] = s
                elif e in terms:
                    del terms[e]
        return DeltaPoly(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        return power(self, k, self.ring.one)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def evaluate(self, deltas):
        """Evaluate at a point (sequence of field elements, length m)."""
        field = self.ring.field
        out = field.zero
        for exps, c in self.terms.items():
            out = out + prod((power(d, e, field.one)
                              for d, e in zip(deltas, exps) if e), start=c)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        fmt = self.ring.field.format_element
        bits = []
        for exps, c in sorted(self.terms.items()):
            mono = "*".join("d%d^%d" % (i, e) for i, e in enumerate(exps) if e)
            bits.append("(%s)%s" % (fmt(c), "*" + mono if mono else ""))
        return " + ".join(bits)
