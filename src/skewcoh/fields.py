"""Exact scalar arithmetic over F_p (p an odd prime) or the rationals.

Elements of F_p are plain ints in [0, p); rational scalars are
fractions.Fraction.  These are the canonical scalars.  A Field object is
the input boundary: `Field.coerce` takes ints, Fractions and 'a/b' strings
(never floats or bools) to canonical scalars, and the field gives zero,
one and the printed form.  `coerce` settles the common cases by exact
type before any isinstance test: a plain int is reduced mod p (over Q it
becomes a Fraction), and a Fraction over Q is already canonical and is
returned as it is.  Everything else takes the general checks.  Only
vectors and matrices from outside the package are coerced (see the linalg
module docstring); what the package builds itself is canonical already
and skips `coerce`.

The package combines scalars inline, with one % p per result over F_p;
`Field.add/sub/mul/neg/inv/div` are kept only for the benchmark's tracer,
which binds them by name.  Characteristic 2 is rejected outright (the
theory assumes char F != 2 throughout).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]


class CharacteristicTwoError(ValueError):
    pass


class NotInvertibleError(ValueError):
    pass


# No odd composite below this bound is a strong pseudoprime to every one of
# the first 13 prime bases (Sorenson and Webster 2015; the first 12, up to
# 37, are fooled by 318665857834031151167461).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for p below
    _MILLER_RABIN_EXACT_BELOW (about 3.3e24); raises ValueError above it."""
    if p >= _MILLER_RABIN_EXACT_BELOW:
        raise ValueError("p = %d is too large to be certified prime (the bound is %d)"
                         % (p, _MILLER_RABIN_EXACT_BELOW))
    if p < 2:
        return False
    for a in _MILLER_RABIN_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """F_p for an odd prime p, or Q when p is None.  Immutable."""

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None:
            if isinstance(p, bool) or not isinstance(p, int) or not _is_prime(p):
                raise ValueError("p must be a prime, got %r" % (p,))
            if p == 2:
                raise CharacteristicTwoError("characteristic 2 is not supported")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @staticmethod
    def prime(p: int) -> "Field":
        if p is None:
            raise ValueError("p must be a prime, got None")
        return Field(p)

    @staticmethod
    def rational() -> "Field":
        return Field()

    @property
    def char(self) -> int:
        return self.p or 0

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return "Q" if self.p is None else "F_%d" % self.p

    # -- element construction ------------------------------------------

    def coerce(self, x) -> Scalar:
        """Bring an int, Fraction, or 'a/b' string into the field.

        A plain int, and a Fraction over Q, is settled by its exact type
        first: `isinstance(x, Fraction)` goes through the ABC machinery and
        costs more than the reduction itself.  Anything else, bool, an int
        subclass, a Fraction over F_p, str and float included, takes the
        general checks below."""
        t = type(x)
        if t is int:
            return Fraction(x) if self.p is None else x % self.p
        if t is Fraction and self.p is None:
            return x
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise TypeError("cannot coerce %r into %r" % (x, self))
        if self.p is None:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return x % self.p

    def zero(self) -> Scalar:
        return Fraction(0) if self.p is None else 0

    def one(self) -> Scalar:
        return Fraction(1) if self.p is None else 1

    # -- arithmetic ----------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.p else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.p if self.p else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.p else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.p else -a

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise NotInvertibleError("division by zero")
        return Fraction(1) / a if self.p is None else pow(a, -1, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    # -- formatting ----------------------------------------------------

    def to_str(self, a: Scalar) -> str:
        """str(a), interned: a --json document repeats a few scalars (mostly
        "0") thousands of times, and one shared string each keeps the
        document's peak memory down."""
        return sys.intern(str(a))
