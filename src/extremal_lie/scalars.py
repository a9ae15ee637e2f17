"""Exact field arithmetic over the rationals and prime fields GF(p), p an odd prime.

Fields act as arithmetic contexts on *raw* values; ``Scalar`` wraps a raw
value together with its field for user-facing code.  Over GF(p) a raw value
is a canonical residue, an ``int`` in ``[0, p)``.  Over Q it is an ``int``
when it is integral and a ``Fraction`` otherwise: the field's constructors
(``zero``, ``one``, ``from_int``, ``from_fraction``, ``inv``) return an
``int`` whenever they can.  Python's int and Fraction arithmetic mix exactly,
and an integral Fraction equals and hashes like the int, so a sum or product
that comes back as an integral ``Fraction`` is the same raw value.  Fields and
scalars are immutable and safe to share between threads.

The methods of ``Field`` work on one value at a time.  Sparse vectors of raw
values, and the rule that keeps them canonical, are described in ``linalg``
(``axpy`` and ``canonical``).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def _integral(q):
    """A Fraction as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


class CharacteristicTwoUnsupported(ValueError):
    """Raised for GF(2): the whole theory assumes characteristic != 2."""


class NotPrime(ValueError):
    """Raised when a prime-field modulus is composite."""


def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin, valid far beyond any modulus we will see
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Arithmetic context: kind 'rationals' (char 0) or 'prime-field' (char p odd).

    A raw value of the rationals is an ``int`` when integral and a
    ``Fraction`` otherwise; of GF(p), an ``int`` in ``[0, p)``."""

    __slots__ = ("kind", "characteristic")

    def __init__(self, kind, characteristic):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "characteristic", characteristic)

    def __setattr__(self, *a):
        raise AttributeError("Field is immutable")

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else "GF(%d)" % self.characteristic

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.characteristic == other.characteristic
        )

    def __hash__(self):
        return hash((self.kind, self.characteristic))

    # -- raw value arithmetic ------------------------------------------------

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def from_int(self, n):
        p = self.characteristic
        return n % p if p else _integral(Fraction(n))

    def from_fraction(self, q):
        p = self.characteristic
        q = Fraction(q)
        if not p:
            return _integral(q)
        den = q.denominator % p
        if den == 0:
            raise ZeroDivisionError("denominator divisible by %d" % p)
        return q.numerator * pow(den, -1, p) % p

    def add(self, a, b):
        p = self.characteristic
        return (a + b) % p if p else a + b

    def sub(self, a, b):
        p = self.characteristic
        return (a - b) % p if p else a - b

    def mul(self, a, b):
        p = self.characteristic
        return a * b % p if p else a * b

    def neg(self, a):
        p = self.characteristic
        return -a % p if p else -a

    def inv(self, a):
        p = self.characteristic
        if p:
            if a % p == 0:
                raise ZeroDivisionError("inverse of zero in GF(%d)" % p)
            return pow(a, -1, p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _integral(1 / Fraction(a))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == 0 if self.characteristic == 0 else a % self.characteristic == 0

    # -- square roots ----------------------------------------------------------

    def sqrt_raw(self, a):
        """A canonical square root of ``a`` or None if ``a`` is not a square.

        GF(p): the smaller of the two residues.  Rationals: the positive root
        of a perfect-square fraction.
        """
        p = self.characteristic
        if p == 0:
            a = Fraction(a)
            if a < 0:
                return None
            rn, rd = isqrt(a.numerator), isqrt(a.denominator)
            if rn * rn == a.numerator and rd * rd == a.denominator:
                return _integral(Fraction(rn, rd))
            return None
        a %= p
        if a == 0:
            return 0
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        r = _sqrt_mod_prime(a, p)
        return min(r, p - r)

    # -- serialization ---------------------------------------------------------

    def to_str(self, a):
        if self.characteristic:
            return str(a % self.characteristic)
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)

    def from_str(self, s):
        s = s.strip()
        if "/" in s:
            n, d = s.split("/")
            return self.from_fraction(Fraction(int(n), int(d)))
        return self.from_int(int(s))

    def raw(self, value):
        """The raw value of an int, Fraction or Scalar of this field (a raw
        value is an int or a Fraction, so it comes back equal)."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise ValueError("scalar belongs to a different field")
            return value.value
        if isinstance(value, (int, Fraction)):
            return self.from_fraction(value)
        raise TypeError("%r is not a scalar of %r" % (value, self))

    def scalar(self, value):
        """Wrap an int, Fraction or raw value as a Scalar of this field."""
        if isinstance(value, Scalar) and value.field == self:
            return value
        return Scalar(self, self.raw(value))


def _sqrt_mod_prime(a, p):
    """Tonelli-Shanks; assumes ``a`` is a nonzero quadratic residue mod odd p."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


QQ = Field("rationals", 0)


def field_create(kind, modulus=None):
    """Create a field handle: ``field_create("rationals")`` or ``field_create("prime-field", p)``."""
    if kind in ("rationals", "QQ", "Q"):
        return QQ
    if kind in ("prime-field", "GF", "Fp"):
        if modulus == 2:
            raise CharacteristicTwoUnsupported("characteristic 2 is unsupported")
        if modulus is None or not _is_prime(modulus):
            raise NotPrime("modulus %r is not prime" % (modulus,))
        return Field("prime-field", modulus)
    raise ValueError("unknown field kind %r" % kind)


def GF(p):
    return field_create("prime-field", p)


class Scalar:
    """Immutable field element in canonical form; equality is structural."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    def _coerce(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.field.raw(other)
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.sub(self.value, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.sub(v, self.value))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.mul(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.div(self.value, v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.div(v, self.value))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.value))

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field == other.field and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self.value == self._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return not self.field.is_zero(self.value)

    def __repr__(self):
        return self.field.to_str(self.value)


def sqrt(a):
    """Square root of a Scalar, or None when absent (absence is a value)."""
    r = a.field.sqrt_raw(a.value)
    return None if r is None else Scalar(a.field, r)
