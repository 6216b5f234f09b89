"""Exact arithmetic in a prime field F_p with canonical residues in [0, p).

The default modulus 32003 stands in for an infinite field: generic-coordinate
statements hold over a large prime field with overwhelming probability, and
reports always record the modulus so a suspicious run can be replayed at a
different prime.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .errors import ConfigurationError, RingMismatchError

DEFAULT_PRIME = 32003

# the dense kernels multiply two residues in int64
_INT64_MAX = 2**63 - 1


def check_int64_prime(p):
    """Reject a modulus whose residue products overflow int64.

    The largest prime that passes is 3037000493.
    """
    if p * p > _INT64_MAX:
        raise ConfigurationError(
            f"modulus {p} is too large: p*p must fit in int64, so the "
            f"largest usable prime is 3037000493")


@lru_cache(maxsize=64)
def check_prime(p):
    """Reject a modulus that is not a prime usable by the int64 kernels.

    Over Z/p with p composite, the Fermat inverse pow(c, p - 2, p) that
    every elimination takes is not an inverse, so results would be wrong
    without an error.  The int64 bound is checked first, so an oversized
    modulus fails before trial division.  Primes are cached: the check sits
    on polynomial construction, where one modulus repeats.
    """
    check_int64_prime(p)
    if not is_prime(p):
        raise ConfigurationError(f"modulus {p!r} is not prime")


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    r = isqrt(n)
    while f <= r:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The modulus and the arithmetic that goes with it."""

    p: int = DEFAULT_PRIME

    def __post_init__(self):
        if not isinstance(self.p, int):
            raise ConfigurationError(f"modulus {self.p!r} is not prime")
        check_prime(self.p)
        if self.p < 3:
            raise ConfigurationError("modulus must be an odd prime (p >= 3)")

    def reduce(self, a):
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e):
        return pow(a % self.p, e, self.p)

    def element(self, value):
        return FieldElement(value % self.p, self)


@dataclass(frozen=True)
class FieldElement:
    """A canonical residue tied to its field; operators check the modulus."""

    value: int
    field: PrimeField

    def __post_init__(self):
        if not 0 <= self.value < self.field.p:
            raise ConfigurationError(
                f"residue {self.value} outside [0, {self.field.p})"
            )

    def _same_field(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field.p != self.field.p:
            raise RingMismatchError(
                f"moduli differ: {self.field.p} vs {other.field.p}"
            )

    def __add__(self, other):
        self._same_field(other)
        return FieldElement(self.field.add(self.value, other.value), self.field)

    def __sub__(self, other):
        self._same_field(other)
        return FieldElement(self.field.sub(self.value, other.value), self.field)

    def __mul__(self, other):
        self._same_field(other)
        return FieldElement(self.field.mul(self.value, other.value), self.field)

    def __neg__(self):
        return FieldElement(self.field.neg(self.value), self.field)

    def inverse(self):
        return FieldElement(self.field.inv(self.value), self.field)

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.field.p})"
