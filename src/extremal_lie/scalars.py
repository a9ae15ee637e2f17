"""Exact field arithmetic over the rationals and prime fields GF(p), p an odd prime.

A field value inside the package is a *raw* value, and only that; a
``Field`` is the arithmetic context that gives it meaning.  Over GF(p) a raw
value is a canonical residue, an ``int`` in ``[0, p)``.  Over Q it is an
``int`` when it is integral and a ``Fraction`` otherwise: ``zero``, ``one``,
``raw``, ``mul``, ``div`` and ``inv`` return an ``int`` whenever they can.
Python's int and Fraction arithmetic mix exactly, and an integral Fraction
equals and hashes like the int, so a sum that comes back as an integral
``Fraction`` is the same raw value.  ``Field.raw`` is the one place
where an int or a Fraction becomes a raw value.  Text appears only at the
command-line boundary: ``from_str`` reads an argument and ``to_str`` writes a
report.  Fields are immutable and safe to share between threads.

The methods of ``Field`` work on one value at a time.  Sparse vectors of raw
values, and the rule that keeps them canonical, are described in ``linalg``
(``axpy`` and ``canonical``).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def _integral(q):
    """An int or a Fraction as an int when it is integral."""
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
    """Arithmetic context of one characteristic: 0 for the rationals, an odd
    prime p for GF(p).  Two fields are equal when their characteristics are.

    A raw value of the rationals is an ``int`` when integral and a
    ``Fraction`` otherwise; of GF(p), an ``int`` in ``[0, p)``.  Any other
    characteristic raises: 2 CharacteristicTwoUnsupported, a non-prime
    NotPrime."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic):
        if characteristic == 2:
            raise CharacteristicTwoUnsupported("characteristic 2 is unsupported")
        if characteristic and not _is_prime(characteristic):
            raise NotPrime("modulus %r is not prime" % (characteristic,))
        object.__setattr__(self, "characteristic", characteristic)

    def __setattr__(self, *a):
        raise AttributeError("Field is immutable")

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else "GF(%d)" % self.characteristic

    def __eq__(self, other):
        return isinstance(other, Field) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(self.characteristic)

    # -- raw value arithmetic ------------------------------------------------

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def add(self, a, b):
        p = self.characteristic
        return (a + b) % p if p else a + b

    def sub(self, a, b):
        p = self.characteristic
        return (a - b) % p if p else a - b

    def mul(self, a, b):
        p = self.characteristic
        return a * b % p if p else _integral(a * b)

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

    # -- squares ---------------------------------------------------------------

    def is_square(self, a):
        """Whether ``a`` is a square in this field: by Euler's criterion over
        GF(p); over Q when ``a`` >= 0 and its numerator and denominator in
        lowest terms are perfect squares."""
        p = self.characteristic
        if p:
            return a % p == 0 or pow(a, (p - 1) // 2, p) == 1
        a = Fraction(a)
        return a >= 0 and all(isqrt(n) ** 2 == n for n in (a.numerator, a.denominator))

    # -- serialization ---------------------------------------------------------

    def to_str(self, a):
        if self.characteristic:
            return str(a % self.characteristic)
        a = Fraction(a)
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)

    def from_str(self, s):
        """The raw value of a command-line scalar: an integer or ``n/d``."""
        s = s.strip()
        if "/" in s:
            n, d = s.split("/")
            return self.raw(Fraction(int(n), int(d)))
        return self.raw(int(s))

    def raw(self, value):
        """The raw value of an int or a Fraction: the one place where a
        number becomes a value of this field."""
        p = self.characteristic
        if isinstance(value, int):
            return value % p if p else int(value)
        if isinstance(value, Fraction):
            if not p:
                return _integral(value)
            den = value.denominator % p
            if den == 0:
                raise ZeroDivisionError("denominator divisible by %d" % p)
            return value.numerator * pow(den, -1, p) % p
        raise TypeError("%r is neither an int nor a Fraction" % (value,))


QQ = Field(0)


def GF(p):
    """The prime field of odd characteristic ``p`` (``Field`` rejects any
    other)."""
    return Field(p)
