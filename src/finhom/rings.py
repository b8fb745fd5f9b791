"""Base rings with exact element arithmetic.

Three kinds of commutative rings are supported:

* ``Integers()``          -- Z with arbitrary-precision arithmetic,
* ``IntegersModN(n)``     -- Z/n, residues normalized to [0, n),
* ``PrimeField(p)``       -- F_p, a field, also normalized to [0, p).

Elements are plain Python ints in normal form.  All arithmetic is exact;
nothing in the library ever touches floating point.  Z/n and F_p are
quasi-Frobenius (self-injective, projective = injective); Z is not, and
the ``is_quasi_frobenius`` flag lets callers refuse questions that have
no honest answer over Z.
"""

from __future__ import annotations

import math

from .errors import UnsupportedRingError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Ring:
    """A computable commutative base ring.

    Instances are immutable value objects; two rings compare equal iff
    they have the same kind and modulus.
    """

    __slots__ = ("kind", "modulus")

    INTEGERS = "Integers"
    MOD_N = "IntegersModN"
    PRIME_FIELD = "PrimeField"

    def __init__(self, kind: str, modulus: int | None = None):
        if kind == Ring.INTEGERS:
            modulus = None
        elif kind == Ring.MOD_N:
            if modulus is None or modulus < 1:
                raise ValueError("IntegersModN needs a positive modulus")
        elif kind == Ring.PRIME_FIELD:
            if modulus is None or not _is_prime(modulus):
                raise ValueError(f"PrimeField needs a prime modulus, got {modulus}")
        else:
            raise ValueError(f"unknown ring kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, *a):
        raise AttributeError("Ring is immutable")

    # -- value semantics ------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Ring)
            and self.kind == other.kind
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        if self.kind == Ring.INTEGERS:
            return "Z"
        if self.kind == Ring.PRIME_FIELD:
            return f"F{self.modulus}"
        return f"Z/{self.modulus}"

    # -- structural flags -----------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.modulus is not None

    @property
    def is_field(self) -> bool:
        return self.kind == Ring.PRIME_FIELD or (
            self.kind == Ring.MOD_N and _is_prime(self.modulus)
        )

    @property
    def is_quasi_frobenius(self) -> bool:
        """Self-injective rings where projective = injective: Z/n and F_p."""
        return self.modulus is not None

    def _prime_factors(self):
        n = self.modulus
        out = []
        p = 2
        while p * p <= n:
            if n % p == 0:
                out.append(p)
                while n % p == 0:
                    n //= p
            p += 1
        if n > 1:
            out.append(n)
        return out

    # -- element arithmetic ----------------------------------------------

    def normalize(self, a: int) -> int:
        return a if self.modulus is None else a % self.modulus

    def add(self, a: int, b: int) -> int:
        return self.normalize(a + b)

    def sub(self, a: int, b: int) -> int:
        return self.normalize(a - b)

    def mul(self, a: int, b: int) -> int:
        return self.normalize(a * b)

    def neg(self, a: int) -> int:
        return self.normalize(-a)

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return self.normalize(1)

    def inverse(self, a: int) -> int:
        """Multiplicative inverse of a unit; raises for non-units."""
        if self.modulus is None:
            if a in (1, -1):
                return a
            raise ZeroDivisionError(f"{a} is not a unit in Z")
        g = math.gcd(a, self.modulus)
        if g != 1:
            raise ZeroDivisionError(f"{a} is not a unit mod {self.modulus}")
        return pow(a, -1, self.modulus)

    def divides(self, a: int, b: int) -> bool:
        """Whether a x = b has a solution in the ring."""
        if self.modulus is None:
            return b == 0 if a == 0 else b % a == 0
        if a % self.modulus == 0:
            return b % self.modulus == 0
        g = math.gcd(a, self.modulus)
        return b % g == 0

    def elements(self):
        """All elements, in canonical order.  Finite rings only."""
        if self.modulus is None:
            raise UnsupportedRingError("Z is infinite; cannot enumerate elements")
        return range(self.modulus)

    def divisors(self):
        """Positive divisors of the modulus (finite rings only); these
        generate all ideals of Z/n."""
        if self.modulus is None:
            raise UnsupportedRingError("Z has infinitely many ideals")
        n = self.modulus
        return [d for d in range(1, n + 1) if n % d == 0]


def Integers() -> Ring:
    return Ring(Ring.INTEGERS)


def IntegersModN(n: int) -> Ring:
    return Ring(Ring.MOD_N, n)


def PrimeField(p: int) -> Ring:
    return Ring(Ring.PRIME_FIELD, p)
