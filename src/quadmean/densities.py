"""Orbital volumes and local densities for quadratic algebras.

Each separable quadratic algebra of Q_p gets a density: the volume of
the orbit of its standard representative under the integral group, with
the measure normalized so the ambient coefficient ball has volume one.
At finite places that is one formula in the algebra's (chi, delta);
archimedean completions get exact rational multiples of powers of pi.
The module also gives the census of ramified classes and the closed
forms of the summed densities, which the command line compares with the
sums taken class by class.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .orbits import QuadraticAlgebraDescriptor, local_algebras
from .residue import valuation


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


def local_density(alg: QuadraticAlgebraDescriptor, p: int | None) -> Fraction | PiPower:
    """Orbital volume of the standard representative of the algebra at p,
    with p None at the archimedean place.

    Finite places follow one rule in (chi, delta), exact:
    (1/2) q^-delta (1 - 1/q)(1 - q^-2) / (1 - chi/q), with delta the
    discriminant valuation and chi = 1, -1, 0 for split, unramified and
    ramified.  q^-delta / 2 is the Serre mass of the algebra (2 = |Aut|),
    so the ramified classes at p sum to q^-1 (1 - 1/q)(1 - q^-2).
    Archimedean places give exact pi-power multiples.
    """
    kind = alg.kind
    if kind == "real-pair":
        return PiPower(Fraction(1, 4))
    if kind == "complex":
        return PiPower(Fraction(1, 2), -1)
    q = Fraction(p)
    chi = {"split": 1, "unramified": -1, "ramified": 0}[kind]
    return Fraction(1, 2) * q**-alg.disc_valuation * (1 - 1 / q) * (1 - q**-2) / (1 - chi / q)


def extension_census(p: int) -> dict[int, int]:
    """Count ramified square classes of Q_p by discriminant valuation."""
    census = Counter(alg.disc_valuation for alg in local_algebras(p) if alg.kind == "ramified")
    return dict(sorted(census.items()))


def census_expected(p: int) -> dict[int, int]:
    """Closed-form census: 2*q^(l-1)*(q-1) classes at valuation 2l for
    1 <= l <= ord_p(2), and 2*q^ord_p(2) at valuation 2*ord_p(2) + 1."""
    m = valuation(2, p)
    out = {2 * ell: 2 * p ** (ell - 1) * (p - 1) for ell in range(1, m + 1)}
    out[2 * m + 1] = 2 * p**m
    return out


def ramified_density_sum(p: int, parity: str) -> Fraction:
    """Sum of local densities over the ramified classes whose discriminant
    valuation has the given parity ("even" or "odd")."""
    want = 1 if parity == "odd" else 0
    return sum(
        (
            local_density(alg, p)
            for alg in local_algebras(p)
            if alg.kind == "ramified" and alg.disc_valuation % 2 == want
        ),
        Fraction(0),
    )


def ramified_density_sum_closed(p: int, parity: str) -> Fraction:
    """Closed form of ramified_density_sum.

    Even valuations 2l contribute q^-l (1 - 1/q)^2 (1 - q^-2) each;
    the odd valuation contributes q^-(m+1) (1 - 1/q) (1 - q^-2).
    """
    m = valuation(2, p)
    q = Fraction(p)
    if parity == "odd":
        return q ** -(m + 1) * (1 - 1 / q) * (1 - q**-2)
    return sum(
        (q**-ell * (1 - 1 / q) ** 2 * (1 - q**-2) for ell in range(1, m + 1)),
        Fraction(0),
    )


def density_total(p: int) -> Fraction:
    """Sum of densities over every separable quadratic algebra of Q_p."""
    return sum((local_density(alg, p) for alg in local_algebras(p)), Fraction(0))


def euler_factor(p: int) -> Fraction:
    """Total local density at p in closed form: 1 - q^-2 - q^-3 + q^-4, exact;
    density_total(p) sums the same density class by class."""
    q = Fraction(p)
    return 1 - q**-2 - q**-3 + q**-4
