"""Exact coefficient arithmetic.

The coefficient tower used everywhere else in the package:

* ``CyclotomicField(m)`` -- Q(zeta_m), an element stored as integer
  numerators on the power basis of zeta over one positive common
  denominator, in lowest terms (zero has denominator 1), reduced modulo the
  m-th cyclotomic polynomial (Cohen, A Course in Computational Algebraic
  Number Theory, 4.2).  ``CyclotomicField(1)`` is plain Q.
* ``FiniteField(p, k)`` -- GF(p^k), elements stored as length-k vectors modulo
  the lexicographically smallest monic irreducible polynomial of degree k.

Both moduli are monic over Z, so each field builds a fold table once:
zeta^k for deg <= k <= 2 deg - 2 as integer rows on the power basis
(``_fold_table``).  A product is the schoolbook convolution ``_poly_mul``
and one pass through that table (``_fold_mul``), on integers in both
fields: the numerators of Q(zeta_m) over the product of the denominators,
brought to lowest terms by one gcd, and residues taken mod p in GF(p^k).
In Q(zeta_m) a factor in Q, the bulk of the Gram and determinant traffic,
just scales the other factor, and an inverse is a product of conjugates
over the norm, in integers too.  The ``_poly_*`` helpers (coefficients in
any field) also serve the cyclotomic polynomials, the irreducibility test
and the reduction of long input and of conjugates.  All arithmetic is
exact: ``element``, ``embed`` and ``coerce`` take ints and Fractions and
refuse bools and floats; there is no floating point anywhere in this
package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class NoRootError(ValueError):
    """The field has no element of the requested multiplicative order."""


def power(x, k, one):
    """x ** k for k >= 0 by square and multiply; ``one`` is the identity.
    Field elements, delta polynomials and diagram-algebra elements all
    raise to powers through this one routine.  It multiplies
    bit_length(k) - 1 + popcount(k) - 1 times for k >= 1: no product
    with ``one`` and no square after the top bit.  A negative k raises
    ValueError; only field elements invert, in ``FieldElement.__pow__``."""
    if k < 0:
        raise ValueError("negative exponent %d" % k)
    out = one if not k else None
    while k:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if k:
            x = x * x
    return out


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Miller-Rabin on the first twelve prime bases, which is deterministic
    for every n below 3.3 * 10^24."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient lists, ascending degree)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Coefficients of the m-th cyclotomic polynomial (ascending, ints)."""
    poly = [Fraction(c) for c in [-1] + [0] * (m - 1) + [1]]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d),
                                     Fraction(0))
            if rem:
                raise ArithmeticError("inexact polynomial division")
    return tuple(int(c) for c in poly)


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _poly_rem(num, den):
    """Remainder of ``num`` modulo the monic polynomial ``den``."""
    num = list(num)
    dn = len(den) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        f = num[i]
        if f:
            for j in range(dn):
                num[i - dn + j] -= f * den[j]
    return num[:dn]


def _fold_table(modulus):
    """Rows of zeta^k for deg <= k <= 2 deg - 2 on the power basis
    1, zeta, ..., zeta^(deg-1), zeta a root of the monic integer polynomial
    ``modulus``: every power a product of two reduced elements reaches."""
    top = [-c for c in modulus[:-1]]  # zeta^deg
    rows, row = [], top
    for _ in range(len(top) - 1):
        rows.append(tuple(row))
        row = [a + row[-1] * b for a, b in zip([0] + row[:-1], top)]
    return tuple(rows)


def _fold_mul(a, b, fold):
    """Product of two reduced power-basis vectors of integers: the
    schoolbook convolution, then each zeta^k (k >= deg) replaced by its
    fold row."""
    d = len(a)
    out = _poly_mul(a, b, 0)
    for c, row in zip(out[d:], fold):
        if c:
            for j, r in enumerate(row):
                if r:
                    out[j] += r * c
    return out[:d]


def _poly_xgcd(a, b, zero, one):
    """Extended gcd for polynomials over a field (coefficient lists)."""
    # track the cofactor of b only: r_i = (...)*a + s_i*b throughout
    r0, r1 = list(a), list(b)
    s0, s1 = [zero], [one]
    while any(c != zero for c in r1):
        q, r = _poly_divmod(r0, r1, zero)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1, zero), zero)
    return r0, s0


def _poly_divmod(num, den, zero):
    num = list(num)
    while num and num[-1] == zero:
        num.pop()
    den = list(den)
    while den and den[-1] == zero:
        den.pop()
    if len(num) < len(den):
        return [zero], num
    q = [zero] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        f = num[i + len(den) - 1] / den[-1]
        q[i] = f
        if f != zero:
            for j, d in enumerate(den):
                num[i + j] -= f * d
    while num and num[-1] == zero:
        num.pop()
    return q, num


def _poly_mul(a, b, zero):
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b, zero):
    out = [zero] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return out


# ---------------------------------------------------------------------------
# fields and their elements
# ---------------------------------------------------------------------------

class _Field:
    """One shared instance per ring (per class and parameters): the fields
    here and the loop-parameter rings of deltapoly."""

    _instances = {}

    def __new__(cls, *key):
        obj = _Field._instances.get((cls,) + key)
        if obj is None:
            obj = super().__new__(cls)
            obj._init(*key)
            obj._key = key
            _Field._instances[(cls,) + key] = obj
        return obj

    def __reduce__(self):
        # unpickling looks the field up again, so elements sent to another
        # process land on that process's own field instance
        return type(self), self._key

    def coerce(self, x):
        """``x`` in this field: ints and Fractions are embedded, its own
        elements pass, another field's raise ValueError and anything else
        (a bool, a float or a numpy integer, say) raises TypeError."""
        out = self.zero._coerce(x)
        if out is None:
            raise TypeError("%r is not a scalar of %r" % (x, self))
        return out


def _rational(c):
    """c if it is an int (not a bool) or a Fraction, else TypeError."""
    if c.__class__ is bool or not isinstance(c, (int, Fraction)):
        raise TypeError("%r is not an int or a Fraction" % (c,))
    return c


class FieldElement:
    """Arithmetic shared by CycElt and FFElt, elements of ``field`` with a
    tuple ``coeffs`` on the power basis.  Each subclass defines its own
    ring operations (add, sub, neg, mul, inverse) and hash."""

    __slots__ = ("field",)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("mixed fields %r and %r"
                                 % (self.field, other.field))
            return other
        try:
            return self.field.embed(other)
        except TypeError:  # not an int (a bool, say) or a Fraction
            return None

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return power(self.inverse(), -k, self.field.one)
        return power(self, k, self.field.one)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __str__(self):
        return self.field.format_element(self)

    def __repr__(self):
        return "<%s: %s>" % (self.field, self)


def field_with_root(p_or_zero, m):
    """Smallest field of the given characteristic containing a primitive
    m-th root of unity: Q(zeta_m) in characteristic 0, GF(p^k) with k the
    multiplicative order of p mod m otherwise."""
    if p_or_zero == 0:
        return CyclotomicField(m)
    p = p_or_zero
    if m == 1:
        return FiniteField(p, 1)
    if gcd(p, m) != 1:
        raise NoRootError("no order-%d root in characteristic %d" % (m, p))
    k, pw = 1, p % m
    while pw != 1:
        pw = pw * p % m
        k += 1
    return FiniteField(p, k)


# ---------------------------------------------------------------------------
# Q(zeta_m)
# ---------------------------------------------------------------------------

class CyclotomicField(_Field):
    """The cyclotomic field Q(zeta_m); m = 1 gives plain Q."""

    characteristic = 0

    def _init(self, m):
        self.m = m
        self.modulus = cyclotomic_polynomial(m)
        self.degree = len(self.modulus) - 1
        self.fold = _fold_table(self.modulus)
        self._pad = (0,) * (self.degree - 1)
        self.zero = CycElt(self, (0,) * self.degree, 1)
        self.one = self.embed(1)

    def __repr__(self):
        return "Q" if self.m == 1 else "Q(zeta_%d)" % self.m

    def element(self, coeffs):
        """sum_i coeffs[i] zeta^i for ints and Fractions coeffs."""
        coeffs = [_rational(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        if len(num) > self.degree:
            num = _poly_rem(num, self.modulus)
        return _lowest(self, tuple(num) + (0,) * (self.degree - len(num)),
                       den)

    def embed(self, a):
        _rational(a)
        return CycElt(self, (a.numerator,) + self._pad, a.denominator)

    @property
    def zeta(self):
        """The canonical primitive m-th root of unity."""
        return self.element([0, 1])

    def root_of_unity(self, k):
        """An element of order k: zeta^(m/k) for k | m and, for odd m
        (where Q(zeta_m) = Q(zeta_2m)), -zeta^(2m/k) for k | 2m."""
        if self.m % k == 0:
            return self.zeta ** (self.m // k)
        if self.m % 2 and 2 * self.m % k == 0:
            return -self.zeta ** (2 * self.m // k)
        raise NoRootError("Q(zeta_%d) has no order-%d root" % (self.m, k))

    def format_element(self, x):
        return ",".join(str(c) for c in x.coeffs)

    def reduction_hom(self, p):
        """Ring homomorphism into GF(p) (zeta -> an order-m element mod p).
        Requires p = 1 (mod m) and p prime."""
        if self.m > 1 and (p - 1) % self.m != 0:
            raise NoRootError("p must be 1 mod m")
        r = FiniteField(p, 1).root_of_unity(self.m).coeffs[0]

        def hom(x):
            den = x.den % p
            if den == 0:
                raise ZeroDivisionError("bad prime for reduction")
            acc = 0
            for c in reversed(x.num):
                acc = (acc * r + c) % p
            return acc * pow(den, -1, p) % p

        return hom


def _lowest(field, num, den):
    """The element num / den (den > 0) of field in lowest terms."""
    g = gcd(den, *num)
    if g == 1:
        return CycElt(field, num, den)
    return CycElt(field, tuple(c // g for c in num), den // g)


class CycElt(FieldElement):
    """Element num / den of Q(zeta_m): integer numerators on the power
    basis of zeta over one positive denominator, in lowest terms."""

    __slots__ = ("num", "den")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self):
        """The power-basis coefficients as a tuple of Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _lowest(self.field, tuple(
                x + y for x, y in zip(self.num, o.num)), da)
        return _lowest(self.field, tuple(
            x * db + y * da for x, y in zip(self.num, o.num)), da * db)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _lowest(self.field, tuple(
                x - y for x, y in zip(self.num, o.num)), da)
        return _lowest(self.field, tuple(
            x * db - y * da for x, y in zip(self.num, o.num)), da * db)

    def __neg__(self):
        return CycElt(self.field, tuple(-x for x in self.num), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        if any(a[1:]):
            if any(b[1:]):
                return _lowest(self.field, tuple(
                    _fold_mul(a, b, self.field.fold)), self.den * o.den)
            a, b = b, a
        c = a[0]  # a lies in Q: scale b
        return _lowest(self.field, tuple(c * y for y in b), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self):
        """For self = a / den: a times its other conjugates sigma_k(a)
        (zeta -> zeta^k, k a unit mod m, k != 1) is the norm N(a), a
        nonzero integer, so 1 / self = den prod_k sigma_k(a) / N(a)."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        field, num = self.field, self.num
        m, fold = field.m, field.fold
        cof = (1,) + field._pad
        if any(num[1:]):
            for k in range(2, m):
                if gcd(k, m) == 1:
                    conj = [0] * m
                    for i, c in enumerate(num):
                        conj[i * k % m] += c
                    cof = _fold_mul(cof, _poly_rem(conj, field.modulus), fold)
        norm = _fold_mul(num, cof, fold)[0]
        scale = self.den if norm > 0 else -self.den
        return _lowest(field, tuple(scale * c for c in cof), abs(norm))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __bool__(self):
        return any(self.num)

    def __hash__(self):
        return hash((self.field.m, self.coeffs))


# ---------------------------------------------------------------------------
# GF(p^k)
# ---------------------------------------------------------------------------

class FiniteField(_Field):
    """GF(p^k) modulo the lexicographically smallest monic irreducible."""

    def _init(self, p, k):
        if not is_prime(p):
            raise ValueError("p must be prime")
        self._setup(p, k, _smallest_irreducible(p, k))

    def _setup(self, p, k, modulus):
        self.p = p
        self.k = k
        self.characteristic = p
        self.degree = k
        self.order = p ** k
        self.modulus = modulus
        self.fold = _fold_table(modulus)
        self.zero = FFElt(self, (0,) * k)
        self.one = self.embed(1)

    def __repr__(self):
        return "GF(%d)" % self.p if self.k == 1 else "GF(%d^%d)" % (self.p, self.k)

    def element(self, coeffs):
        """sum_i coeffs[i] x^i for ints and Fractions coeffs, a
        denominator a unit mod p."""
        coeffs = [self._residue(c) for c in coeffs]
        if len(coeffs) > self.k:
            coeffs = [c % self.p for c in _poly_rem(coeffs, self.modulus)]
        return FFElt(self, tuple(coeffs) + (0,) * (self.k - len(coeffs)))

    def embed(self, a):
        return FFElt(self, (self._residue(a),) + (0,) * (self.k - 1))

    def _residue(self, c):
        den = _rational(c).denominator % self.p
        if den == 0:
            raise ZeroDivisionError("denominator divisible by p")
        return c.numerator * pow(den, -1, self.p) % self.p

    def root_of_unity(self, m):
        """The first g^((q - 1)/m) of order m, i.e. g no r-th power for any
        prime r | m, g != 0 in base-p order, constant term leading.  The
        first p are 0 and c x^(k-1): if r | (q - 1)/(p - 1), each c in GF(p)
        is an r-th power, so if x^(k-1) is one too, all p are skipped."""
        p, k, q = self.p, self.k, self.order
        if (q - 1) % m != 0:
            raise NoRootError("%r has no order-%d root" % (self, m))
        rs = _prime_factors(m)
        lead = self.element([0] * (k - 1) + [1])
        skip = any((q - 1) // (p - 1) % r == 0 and
                   lead ** ((q - 1) // r) == self.one for r in rs)
        for code in range(p if skip else 1, q):
            z = FFElt(self, tuple(code // p ** (k - 1 - i) % p
                                  for i in range(k))) ** ((q - 1) // m)
            if all(z ** (m // r) != self.one for r in rs):
                return z
        raise NoRootError("no order-%d root found" % m)

    def format_element(self, x):
        if self.k == 1:
            return str(x.coeffs[0])
        return ",".join(str(c) for c in x.coeffs)


def _gf_xgcd(p, a, b):
    """``_poly_xgcd`` of two integer coefficient lists over GF(p)."""
    gf = FiniteField(p, 1)
    return _poly_xgcd([gf.embed(c) for c in a], [gf.embed(c) for c in b],
                      gf.zero, gf.one)


@lru_cache(maxsize=None)
def _smallest_irreducible(p, k):
    """Monic irreducible of degree k over GF(p), smallest in the base-p
    encoding of its non-leading coefficients (a_0 + a_1 p + ...).

    f has a factor of degree d <= k/2 iff gcd(x^(p^d) - x, f) != 1.  The
    powers of x are taken in GF(p)[x]/(f): a FiniteField built on f and
    kept out of the field cache, as f need not be irreducible.

    The codes below p are the binomials x^k + a.  None is irreducible when
    a prime r | k does not divide p - 1, or 4 | k and p = 3 (mod 4)
    (Lidl-Niederreiter, Finite Fields, Thm 3.75), and the walk then starts
    at code p rather than test p reducible binomials."""
    if k == 1:
        return (0, 1)  # x
    binomials = all((p - 1) % r == 0 for r in _prime_factors(k)) \
        and not (k % 4 == 0 and p % 4 == 3)
    for code in range(0 if binomials else p, p ** k):
        f = tuple(code // p ** i % p for i in range(k)) + (1,)
        ring = object.__new__(FiniteField)
        ring._setup(p, k, f)
        x = pw = ring.element([0, 1])
        for _ in range(k // 2):
            pw = pw ** p
            g, _ = _gf_xgcd(p, f, (pw - x).coeffs)
            if any(g[1:]):
                break
        else:
            return f
    raise AssertionError("unreachable")


class FFElt(FieldElement):
    """Element of GF(p^k) as a length-k vector of residues mod p."""

    __slots__ = ("coeffs",)

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FFElt(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FFElt(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, o.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FFElt(self.field, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field = self.field
        return FFElt(field, tuple(c % field.p for c in _fold_mul(
            self.coeffs, o.coeffs, field.fold)))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        if field.k == 1:
            return FFElt(field, (pow(self.coeffs[0], -1, field.p),))
        return power(self, field.order - 2, field.one)  # x^(q-1) = 1

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coeffs))
