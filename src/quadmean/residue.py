"""Exact arithmetic in Z/p^n and square-class bookkeeping for Q_p.

Residues are canonical integers in [0, p^n) and valuations are plain ints.
A square class of Q_p^x is an int label from the one list
square_class_labels(p), with the one rule disc_valuation(label, p), and
square_class(a, p) is the one classifier: Euler's criterion at odd p, the
unit part mod 8 at p = 2.  The module also has the one prime sieve, for
the Euler product and the squarefree sieve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

import numpy as np


class CapacityError(Exception):
    """Raised when an enumeration would exceed a configured size guard."""


# Largest modulus accepted by ResidueRing, and the largest value --primes
# hands to is_prime, whose trial division would run for hours near 10^18.
MAX_MODULUS = 1 << 30


def is_prime(p: int) -> bool:
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


def primes_upto(n: int) -> np.ndarray:
    """The primes up to n, ascending, as int64.  The sieve holds the odd
    numbers only, odd[i] standing for 2i + 1, and crosses out from the odd
    primes k <= sqrt(n); 1 is left in and becomes the prime 2."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)
    for i in range(1, (isqrt(n) - 1) // 2 + 1):
        if odd[i]:
            k = 2 * i + 1
            odd[k * k // 2 :: k] = False
    primes = 2 * np.flatnonzero(odd).astype(np.int64, copy=False) + 1
    primes[0] = 2
    return primes


@dataclass(frozen=True)
class ResidueRing:
    """The ring Z/p^n for a prime p and a level n >= 1."""

    p: int
    n: int
    modulus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.n < 1:
            raise ValueError(f"level must be >= 1, got {self.n}")
        m = self.p**self.n
        if m > MAX_MODULUS:
            raise CapacityError(f"modulus {self.p}^{self.n} exceeds {MAX_MODULUS}")
        object.__setattr__(self, "modulus", m)

    def __str__(self) -> str:
        return f"Z/{self.p}^{self.n}"


def valuation(q: int | Fraction, p: int) -> int:
    """p-adic valuation of a nonzero int or Fraction; ValueError on 0."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of 0")
    num, den = q.numerator, q.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _primitive_root_mod_p(p: int) -> int:
    # factor p-1, then test candidates against every maximal proper divisor
    factors = []
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
        g += 1


def unit_group_generators(ring: ResidueRing) -> list[int]:
    """Generators of (Z/p^n)^x.

    Odd p: one generator, the smallest primitive root mod p promoted to
    p^n.  p = 2: trivial at n = 1, {-1} at n = 2, {-1, 5} for n >= 3.
    """
    p, n = ring.p, ring.n
    if p == 2:
        if n == 1:
            return [1]
        if n == 2:
            return [3]
        return [ring.modulus - 1, 5]
    g = _primitive_root_mod_p(p)
    # g stays primitive mod p^n unless g^(p-1) = 1 mod p^2
    if n >= 2 and pow(g, p - 1, p * p) == 1:
        g += p
    return [g]


def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue mod an odd prime."""
    if p == 2:
        raise ValueError("defined for odd p only")
    u = 2
    while pow(u, (p - 1) // 2, p) == 1:
        u += 1
    return u


# unit square classes of Q_2 are parameterized by the unit mod 8
_TWO_ADIC_UNIT_LABEL = {1: 1, 3: -5, 5: 5, 7: -1}


def square_class_labels(p: int) -> list[int]:
    """The labels of Q_p^x mod squares in the one order of the local types
    at p: 1, the unit non-square, then the ramified classes; [1, u, p, up]
    for odd p with u the smallest non-residue."""
    if p == 2:
        return [1, 5, -1, -5, 2, -2, 10, -10]
    u = smallest_nonresidue(p)
    return [1, u, p, u * p]


def disc_valuation(label: int, p: int) -> int:
    """Valuation of the discriminant of Q_p(sqrt(label)) over Q_p: at odd p
    1 when p divides the label; at p = 2, 3 for an even label, 2 for one
    that is 3 mod 4, else 0.  It is 0 for 1 and the unit non-square only."""
    if p != 2:
        return 1 if label % p == 0 else 0
    if label % 2 == 0:
        return 3
    return 2 if label % 4 == 3 else 0


def square_class(a, p: int) -> int:
    """Label in square_class_labels(p) of the class of a nonzero rational a
    in Q_p^x.

    The label is p^(v mod 2) times the unit-part label: for odd p that is 1
    or the smallest non-residue by Euler's criterion; for p = 2 the unit
    part mod 8 maps 1 -> 1, 3 -> -5, 5 -> 5, 7 -> -1.
    """
    a = Fraction(a)
    if a == 0:
        raise ValueError("square class of 0 is undefined")
    v = valuation(a, p)
    unit = a / Fraction(p) ** v
    num, den = unit.numerator, unit.denominator
    if p == 2:
        w = num * pow(den, -1, 8) % 8
        label = _TWO_ADIC_UNIT_LABEL[w]
    else:
        w = num * pow(den, -1, p) % p
        label = 1 if pow(w, (p - 1) // 2, p) == 1 else smallest_nonresidue(p)
    return label * p if v % 2 == 1 else label
