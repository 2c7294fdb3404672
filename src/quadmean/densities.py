"""Orbital volumes and local densities for quadratic algebras.

Each separable quadratic algebra of Q_p gets a density: the volume of
the orbit of its standard representative under the integral group, with
the measure normalized so the ambient coefficient ball has volume one.
Archimedean completions get exact rational multiples of powers of pi.
The module also checks the census of ramified classes and the identity
expressing the summed densities as a single rational factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .orbits import (
    QuadraticAlgebraDescriptor,
    StandardRep,
    ramified_algebra,
    standard_representatives,
)
from .residue import SquareClassLabel, ramified_labels


@dataclass(frozen=True)
class PiPower:
    """An exact rational multiple of an integer power of pi."""

    coef: Fraction
    exp: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "coef", Fraction(self.coef))

    def __mul__(self, other: "PiPower | Fraction | int") -> "PiPower":
        if isinstance(other, PiPower):
            return PiPower(self.coef * other.coef, self.exp + other.exp)
        return PiPower(self.coef * other, self.exp)

    __rmul__ = __mul__

    def value(self) -> float:
        return float(self.coef) * math.pi**self.exp

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.coef)
        return f"{self.coef}*pi^{self.exp}"


def local_density(alg: QuadraticAlgebraDescriptor, p: int | None = None) -> Fraction | PiPower:
    """Orbital volume of the standard representative of the algebra.

    Finite places give exact rationals; archimedean places give exact
    pi-power multiples.  For finite kinds, p may be omitted when the
    descriptor carries a square class.
    """
    kind = alg.kind
    if kind == "real-pair":
        return PiPower(Fraction(1, 4))
    if kind == "complex":
        return PiPower(Fraction(1, 2), -1)
    if kind == "complex-pair":
        return PiPower(Fraction(1, 4), -2)
    if p is None:
        if alg.square_class is None:
            raise ValueError("prime required for the split algebra")
        p = alg.square_class.p
    q = Fraction(p)
    if kind == "split":
        return Fraction(1, 2) * (1 - q**-2)
    if kind == "unramified":
        return Fraction(1, 2) * (1 - 1 / q) ** 2
    # ramified
    delta = alg.disc_valuation
    return Fraction(1, 2) * q**-delta * (1 - 1 / q) * (1 - q**-2)


def orbital_volume_closed(rep: StandardRep) -> Fraction:
    """Closed form of the orbit volume of a standard representative."""
    vol = local_density(rep.algebra, rep.p)
    assert isinstance(vol, Fraction)
    return vol


@dataclass(frozen=True)
class IdentityCheck:
    """One verified identity: a label, both sides, and the verdict."""

    name: str
    expected: object
    got: object
    passed: bool

    @classmethod
    def compare(cls, name: str, expected, got) -> "IdentityCheck":
        return cls(name, expected, got, expected == got)


def extension_census(p: int) -> dict[int, int]:
    """Count ramified square classes of Q_p by discriminant valuation."""
    census: dict[int, int] = {}
    for label in ramified_labels(p):
        d = SquareClassLabel(p, label).disc_valuation
        census[d] = census.get(d, 0) + 1
    return dict(sorted(census.items()))


def census_expected(p: int) -> dict[int, int]:
    """Closed-form census: 2*q^(l-1)*(q-1) classes at valuation 2l for
    1 <= l <= ord_p(2), and 2*q^ord_p(2) at valuation 2*ord_p(2) + 1."""
    m = 1 if p == 2 else 0
    out = {2 * ell: 2 * p ** (ell - 1) * (p - 1) for ell in range(1, m + 1)}
    out[2 * m + 1] = 2 * p**m
    return out


def census_check(p: int) -> IdentityCheck:
    return IdentityCheck.compare(
        f"extension-census[p={p}]", census_expected(p), extension_census(p)
    )


def ramified_density_sum(p: int, parity: str) -> Fraction:
    """Sum of local densities over the ramified classes whose discriminant
    valuation has the given parity ("even" or "odd")."""
    algebras = (ramified_algebra(p, lab) for lab in ramified_labels(p))
    want = 1 if parity == "odd" else 0
    return sum(
        (local_density(alg, p) for alg in algebras if alg.disc_valuation % 2 == want),
        Fraction(0),
    )


def remark_sums_check(p: int) -> list[IdentityCheck]:
    """The per-parity ramified density sums in closed form.

    Even valuations 2l contribute q^-l (1 - 1/q)^2 (1 - q^-2) each;
    the odd valuation contributes q^-(m+1) (1 - 1/q) (1 - q^-2).
    """
    m = 1 if p == 2 else 0
    q = Fraction(p)
    even_closed = sum(
        (q**-ell * (1 - 1 / q) ** 2 * (1 - q**-2) for ell in range(1, m + 1)),
        Fraction(0),
    )
    odd_closed = q ** -(m + 1) * (1 - 1 / q) * (1 - q**-2)
    return [
        IdentityCheck.compare(
            f"ramified-density-sum[p={p},even]", even_closed, ramified_density_sum(p, "even")
        ),
        IdentityCheck.compare(
            f"ramified-density-sum[p={p},odd]", odd_closed, ramified_density_sum(p, "odd")
        ),
    ]


def density_total(p: int) -> Fraction:
    """Sum of densities over every separable quadratic algebra of Q_p,
    ramified classes weighted by the census."""
    total = Fraction(0)
    for rep in standard_representatives(p):
        if rep.is_ramified:
            continue
        total += orbital_volume_closed(rep)
    total += ramified_density_sum(p, "even") + ramified_density_sum(p, "odd")
    return total


def mass_identity_check(p: int) -> IdentityCheck:
    """Total density equals 1 - q^-2 - q^-3 + q^-4 exactly."""
    q = Fraction(p)
    expected = 1 - q**-2 - q**-3 + q**-4
    return IdentityCheck.compare(f"mass-identity[p={p}]", expected, density_total(p))
