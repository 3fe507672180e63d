"""Exact coefficient arithmetic.

The coefficient tower used everywhere else in the package:

* ``CyclotomicField(m)`` -- Q(zeta_m), elements stored as rational vectors of
  length phi(m) in the power basis of zeta, reduced modulo the m-th cyclotomic
  polynomial.  ``CyclotomicField(1)`` is plain Q.
* ``FiniteField(p, k)`` -- GF(p^k), elements stored as length-k vectors modulo
  the lexicographically smallest monic irreducible polynomial of degree k.

Both moduli are monic over Z, so each field builds a fold table once:
zeta^k for deg <= k <= 2 deg - 2 as integer rows on the power basis
(``_fold_table``).  A product is the schoolbook convolution ``_poly_mul``
and one pass through that table (``_fold_mul``), on Fractions for
Q(zeta_m) and on integers taken mod p for GF(p^k).  In Q(zeta_m) a factor
in Q, the bulk of the Gram and determinant traffic, just scales the other
factor.  The ``_poly_*`` helpers (coefficients in any field) also serve
the cyclotomic polynomials, inversion in Q(zeta_m), the irreducibility
test and the reduction of long input.  All arithmetic is exact; there
is no floating point anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


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


def _fold_mul(a, b, fold, zero):
    """Product of two reduced power-basis vectors: the schoolbook
    convolution, then each zeta^k (k >= deg) replaced by its fold row."""
    d = len(a)
    out = _poly_mul(a, b, zero)
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
        (a float or a numpy integer, say) raises TypeError."""
        out = self.zero._coerce(x)
        if out is None:
            raise TypeError("%r is not a scalar of %r" % (x, self))
        return out


class FieldElement:
    """Arithmetic shared by CycElt and FFElt: a field handle and a tuple of
    coefficients on the power basis.  Each subclass defines its own ring
    operations (add, sub, neg, mul, inverse) and hash."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("mixed fields %r and %r"
                                 % (self.field, other.field))
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.embed(other)
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
        mod = cyclotomic_polynomial(m)
        self.degree = len(mod) - 1
        self.modulus = tuple(Fraction(c) for c in mod)
        self.fold = _fold_table(mod)
        self.zero = CycElt(self, (Fraction(0),) * self.degree)
        self.one = self.embed(1)

    def __repr__(self):
        return "Q" if self.m == 1 else "Q(zeta_%d)" % self.m

    def element(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > self.degree:
            coeffs = _poly_rem(coeffs, self.modulus)
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        return CycElt(self, tuple(coeffs))

    def embed(self, a):
        return self.element([Fraction(a)])

    @property
    def zeta(self):
        """The canonical primitive m-th root of unity."""
        return self.element([Fraction(0), Fraction(1)])

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
            acc = 0
            pw = 1
            for c in x.coeffs:
                den = c.denominator % p
                if den == 0:
                    raise ZeroDivisionError("bad prime for reduction")
                acc = (acc + c.numerator * pow(den, -1, p) * pw) % p
                pw = pw * r % p
            return acc

        return hom


class CycElt(FieldElement):
    """Element of Q(zeta_m) in the power basis of zeta."""

    __slots__ = ()

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycElt(self.field, tuple(a + b if b else a
                                        for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycElt(self.field, tuple(a - b if b else a
                                        for a, b in zip(self.coeffs, o.coeffs)))

    def __neg__(self):
        return CycElt(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if any(a[1:]):
            if any(b[1:]):
                return CycElt(self.field, tuple(
                    _fold_mul(a, b, self.field.fold, Fraction(0))))
            a, b = b, a
        c = a[0]  # a lies in Q: scale b, keeping its zero coefficients
        return CycElt(self.field, tuple(c * y if y else y for y in b))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero")
        if not any(self.coeffs[1:]):
            return CycElt(self.field, (1 / self.coeffs[0],) + self.coeffs[1:])
        g, s = _poly_xgcd(self.field.modulus, self.coeffs, Fraction(0), Fraction(1))
        # g is a nonzero constant (modulus irreducible)
        c = g[0]
        return self.field.element([x / c for x in s])

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
        if len(coeffs) > self.k:
            coeffs = _poly_rem(coeffs, self.modulus)
        coeffs = [c % self.p for c in coeffs]
        coeffs += [0] * (self.k - len(coeffs))
        return FFElt(self, tuple(coeffs))

    def embed(self, a):
        if isinstance(a, Fraction):
            den = a.denominator % self.p
            if den == 0:
                raise ZeroDivisionError("denominator divisible by p")
            return self.element([a.numerator * pow(den, -1, self.p)])
        return self.element([a])

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
    """Element of GF(p^k) as a length-k coefficient vector."""

    __slots__ = ()

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
            self.coeffs, o.coeffs, field.fold, 0)))

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
