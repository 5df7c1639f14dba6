"""Exact scalar arithmetic over the rationals or a prime field.

Scalars are plain ``Fraction`` objects in characteristic 0 and canonical
integers in ``range(p)`` in characteristic p.  No floating point exists
anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FieldSpec:
    """Ground field: characteristic 0 means the rationals, p a prime field."""

    __slots__ = ("characteristic", "zero", "one")

    def __init__(self, characteristic: int = 0):
        if characteristic != 0 and not _is_prime(characteristic):
            raise ValueError("characteristic must be 0 or a prime, got %r" % (characteristic,))
        self.characteristic = characteristic
        # scalars are immutable, so one shared zero and one serve every matrix
        self.zero = Fraction(0) if characteristic == 0 else 0
        self.one = Fraction(1) if characteristic == 0 else 1

    # -- element constructors --

    def coerce(self, x):
        if self.characteristic == 0:
            return x if type(x) is Fraction else Fraction(x)
        return int(x) % self.characteristic

    # -- arithmetic --

    def add(self, a, b):
        c = a + b
        return c if self.characteristic == 0 else c % self.characteristic

    def sub(self, a, b):
        c = a - b
        return c if self.characteristic == 0 else c % self.characteristic

    def mul(self, a, b):
        c = a * b
        return c if self.characteristic == 0 else c % self.characteristic

    def neg(self, a):
        return -a if self.characteristic == 0 else (-a) % self.characteristic

    def inv(self, a):
        if self.characteristic == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return Fraction(1) / a
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
