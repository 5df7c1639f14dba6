"""Exact scalar arithmetic over the rationals or a prime field.

Scalars are canonical in every characteristic.  Over the rationals an
integral scalar is a plain ``int`` and any other scalar is a ``Fraction``
with denominator > 1, so the kernel reads numerators and denominators at C
speed and an integral ``Fraction`` never occurs.  In characteristic p a
scalar is an ``int`` in ``range(p)``.  No floating point exists anywhere in
this package: ``int / int`` is never applied to scalars.
"""

from __future__ import annotations

from fractions import Fraction


# Miller-Rabin to these 13 bases is exact below _PRIME_BOUND, which is psi_13
# of Sorenson and Webster (2015)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n < _PRIME_BOUND is prime, by deterministic Miller-Rabin."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    return all(x == 1 or any(pow(x, 1 << r, n) == n - 1 for r in range(s))
               for x in (pow(a, d, n) for a in _WITNESSES))


def rational(q):
    """The canonical form of a rational q: its int when q is integral."""
    return q.numerator if q.denominator == 1 else q


class FieldSpec:
    """Ground field: characteristic 0 means the rationals, p a prime field."""

    __slots__ = ("characteristic", "zero", "one")

    def __init__(self, characteristic: int = 0):
        if characteristic >= _PRIME_BOUND:
            raise ValueError("characteristic %d is too large to certify prime; it must be"
                             " below %d" % (characteristic, _PRIME_BOUND))
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError("characteristic must be 0 or a prime, got %r" % (characteristic,))
        self.characteristic = characteristic
        # scalars are immutable, so one shared zero and one serve every matrix
        self.zero = 0
        self.one = 1

    # -- element constructors --

    def coerce(self, x):
        if self.characteristic == 0:
            if type(x) is int:
                return x
            return rational(x if type(x) is Fraction else Fraction(x))
        return int(x) % self.characteristic

    # -- arithmetic --

    def add(self, a, b):
        c = a + b
        if self.characteristic:
            return c % self.characteristic
        return c if type(c) is int else rational(c)

    def sub(self, a, b):
        c = a - b
        if self.characteristic:
            return c % self.characteristic
        return c if type(c) is int else rational(c)

    def mul(self, a, b):
        c = a * b
        if self.characteristic:
            return c % self.characteristic
        return c if type(c) is int else rational(c)

    def neg(self, a):
        return -a if self.characteristic == 0 else (-a) % self.characteristic

    def inv(self, a):
        if self.characteristic == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return rational(Fraction(1) / a)
        if a % self.characteristic == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.characteristic - 2, self.characteristic)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    # -- comparison / identity --

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(("FieldSpec", self.characteristic))

    def __repr__(self):
        if self.characteristic == 0:
            return "FieldSpec(QQ)"
        return "FieldSpec(GF(%d))" % self.characteristic


QQ = FieldSpec(0)
