"""Sparse linear combinations, and the polynomials in the loop parameters
delta_0..delta_{m-1} built on them.

LinearCombination is the one sparse type: a map from basis keys to nonzero
coefficients in a ring, with the ring's sum, negation, equality and powers.
Two subclasses add their own basis product: DeltaPoly, whose keys are
exponent vectors (length-m tuples of non-negative ints) over a base field,
and diagrams.AlgebraElement, whose keys are basis diagrams.  Delta
polynomials are the coefficients of symbolic Gram matrices and symbolic
determinants at small sizes.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import prod

from .scalars import CyclotomicField, FieldElement, _Field, power


class LinearCombination:
    """Sparse linear combination of basis keys, an element of ``ring``;
    terms never store zero coefficients.  Operands must share the ring
    object: one of another ring raises ValueError.  A subclass lists in
    ``_scalars`` the scalar types its ring embeds (through ``ring.embed``);
    any other operand gives NotImplemented."""

    __slots__ = ("ring", "terms")
    _scalars = ()

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def _coerce(self, other):
        if other.__class__ is self.__class__:
            if other.ring is not self.ring:
                raise ValueError("mixed rings %r and %r"
                                 % (self.ring, other.ring))
            return other
        if isinstance(other, self._scalars):
            return self.ring.embed(other)
        return None

    def _collect(self, items):
        """The combination sum c * key over (key, c) pairs."""
        terms = {}
        for key, c in items:
            s = terms.get(key)
            terms[key] = c if s is None else s + c
        return self.__class__(self.ring, {k: c for k, c in terms.items() if c})

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in o.terms.items():
            s = terms.get(key)
            s = c if s is None else s + c
            if s:
                terms[key] = s
            else:
                del terms[key]
        return self.__class__(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return self.__class__(self.ring,
                              {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __pow__(self, k):
        return power(self, k, self.ring.one)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __bool__(self):
        return bool(self.terms)


class SymbolicParams(_Field):
    """Loop parameters as polynomial generators: the ring
    field[delta_0, ..., delta_{m-1}] of DeltaPoly, one shared instance per
    (m, field, symmetric), so that equal rings mix.

    With symmetric=True the generators for delta_a and delta_{m-a} are
    identified, i.e. the parameters are generic on the admissible locus
    (the largest locus where the diagram product is associative)."""

    def __new__(cls, m, field=None, symmetric=False):
        return super().__new__(cls, m, field or CyclotomicField(1),
                               bool(symmetric))

    def _init(self, m, field, symmetric):
        self.m, self.field, self.symmetric = m, field, symmetric
        self.zero = DeltaPoly(self, {})
        self.one = self.embed(self.field.one)

    def __repr__(self):
        return "%r[delta_0..delta_%d]%s" % (
            self.field, self.m - 1,
            "/(delta_a - delta_{m-a})" if self.symmetric else "")

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


class DeltaPoly(LinearCombination):
    """Element of the ring of a SymbolicParams: exponent vectors to field
    coefficients.  Ints, Fractions and field elements are constants."""

    __slots__ = ()
    _scalars = (int, Fraction, FieldElement)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._collect((tuple(map(operator.add, e1, e2)), c1 * c2)
                             for e1, c1 in self.terms.items()
                             for e2, c2 in o.terms.items())

    __rmul__ = __mul__

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
