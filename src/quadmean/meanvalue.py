"""Mean value of h*R over quadratic fields, empirically and predicted.

The prediction is a constant times X^(3/2): the constant is pi^2/9 times
the archimedean density of the ordered signature, times one factor per
finite prime.  An unconditioned prime contributes the total density
1 - q^-2 - q^-3 + q^-4; a prime pinned to one local isomorphism type
contributes that type's single density instead.  Sums are taken over
fundamental discriminants of bounded size, optionally filtered by local
type at the tracked primes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .densities import PiPower, euler_factor, local_density
from .fields import TRACKED_PRIMES, TYPE_CELLS, DiscriminantTable, cell_sums
from .orbits import ALG_COMPLEX, ALG_REAL_PAIR, QuadraticAlgebraDescriptor, local_algebras
from .residue import primes_upto

EULER_CUTOFF = 10**4

# zeta(3), Apery's constant, to 17 significant digits
ZETA3 = 1.2020569031595943
# prod_p (1 - p^-2)(1 - p^-3) = 1 / (zeta(2) zeta(3)), with zeta(2) = pi^2/6
_ZETA_PRODUCT = 6.0 / (math.pi**2 * ZETA3)

# archimedean condition value -> (discriminant sign, algebra)
_ARCH_VALUES = {"C": (-1, ALG_COMPLEX), "RxR": (1, ALG_REAL_PAIR)}


def euler_product(cutoff: int = EULER_CUTOFF, skip: tuple[int, ...] = ()) -> float:
    """Product of the total local densities f(p) = 1 - p^-2 - p^-3 + p^-4
    over all primes p not in skip.

    With g(p) = (1 - p^-2)(1 - p^-3), prod_p g(p) = 1/(zeta(2) zeta(3)) =
    6/(pi^2 zeta(3)), and f(p)/g(p) = 1 + (p^-4 - p^-5)/g(p) =
    1 + p^-4/((1 + 1/p)(1 - p^-3)).  So the product is 6/(pi^2 zeta(3))
    times the remainder prod_p f(p)/g(p), which converges like p^-4; its
    factors are multiplied out in ascending order over the primes up to
    cutoff, and euler_tail_bound bounds the rest.  Each skipped prime
    divides out its own f(p), exactly, as a Fraction.  Past p = 2^(53/4),
    about 9741, p^-4 < 2^-53 and every factor rounds to 1.0, so every
    cutoff from 10^4 up gives the same float.  A cutoff below 2 leaves no
    prime to multiply out and raises ValueError.
    """
    if cutoff < 2:
        raise ValueError(f"Euler cutoff {cutoff} below 2 leaves an empty product")
    u = 1.0 / primes_upto(cutoff)
    u2 = u * u  # products, not libm pow calls
    remainder = float(np.multiply.reduce(1.0 + u2 * u2 / ((1.0 + u) * (1.0 - u2 * u))))
    pinned = math.prod((1 / euler_factor(p) for p in set(skip)), start=Fraction(1))
    return _ZETA_PRODUCT * float(pinned) * remainder


def euler_tail_bound(cutoff: int) -> float:
    """Bound on the log of the remainder's factors past the cutoff.

    Each log f(p)/g(p) lies in [0, (p^-4 - p^-5)/g(p)], since log(1 + x) <= x,
    and g increases with p from g(2) = 21/32, so it is below
    (32/21) p^-4 < 1.53 p^-4.  The prime sum past N is below the integer
    sum, and sum_{n > N} n^-4 < integral_N^oo x^-4 dx = 1/(3 N^3): together
    1.53/(3 N^3) = 0.51/N^3.  The floats add their own rounding: at most
    one ulp per factor and per product, for the factors that differ from
    1.0, which are those of the 1,201 primes below 9741, and a few more for
    the constants: below 3e-13 relative over the whole product.
    """
    return 0.51 / cutoff**3


# ---------------------------------------------------------------------------
# local conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Conditions:
    """A parsed condition list: the discriminant sign and the algebra that
    the archimedean place is pinned to, and the pinned tracked primes as
    (p, algebra) pairs in ascending p."""

    sign: int
    arch: QuadraticAlgebraDescriptor
    pinned: tuple[tuple[int, QuadraticAlgebraDescriptor], ...]

    def cells(self) -> np.ndarray:
        """bool over the 128 raveled joint type codes (fields.cell_sums): True
        where each pinned tracked prime has its pinned type."""
        pinned = dict(self.pinned)
        allowed = np.zeros(TYPE_CELLS, dtype=bool)
        allowed[tuple(local_algebras(p).index(pinned[p]) if p in pinned else slice(None)
                      for p in TRACKED_PRIMES)] = True
        return allowed.ravel()


def parse_conditions(text: str) -> Conditions:
    """A comma-separated place=value list: exactly one of inf=C and inf=RxR,
    and at most one type label per tracked prime.  Anything else raises
    ValueError, naming the first fault in reading order."""
    arch, pinned = None, {}
    for part in text.split(",") if text.strip() else ():
        place, sep, value = part.partition("=")
        if not sep or not value:
            raise ValueError(f"condition {part!r} is not place=value")
        place, value = place.strip(), value.strip()
        if place == "inf":
            if value not in _ARCH_VALUES:
                raise ValueError('archimedean value must be "C" or "RxR"')
            if arch is not None:
                raise ValueError("duplicate place in condition list")
            arch = _ARCH_VALUES[value]
            continue
        if not place.isdigit():
            raise ValueError(f"place {place!r} is neither 'inf' nor a prime")
        p = int(place)
        if p not in TRACKED_PRIMES:
            raise ValueError(f"conditions are tracked at primes {TRACKED_PRIMES}")
        algebras = {alg.label: alg for alg in local_algebras(p)}
        if value not in algebras:
            raise ValueError(f"unknown type {value!r} at {p}; choose from {list(algebras)}")
        if p in pinned:
            raise ValueError("duplicate place in condition list")
        pinned[p] = algebras[value]
    if arch is None:
        raise ValueError("an inf=C or inf=RxR condition is required")
    return Conditions(*arch, tuple(sorted(pinned.items())))


# ---------------------------------------------------------------------------
# the predicted constant and convergence
# ---------------------------------------------------------------------------

def predicted_prefactor(conds: Conditions) -> PiPower:
    """Exact part of the predicted constant: pi^2/9 times the archimedean
    density times the densities of the pinned finite types."""
    pref = PiPower(Fraction(1, 9), 2) * local_density(conds.arch, None)
    return math.prod((local_density(alg, p) for p, alg in conds.pinned), start=pref)


def predicted_constant(conds: Conditions, cutoff: int = EULER_CUTOFF) -> float:
    """Leading coefficient of the X^(3/2) growth of the conditioned sum."""
    pinned = tuple(p for p, _ in conds.pinned)
    return predicted_prefactor(conds).value() * euler_product(cutoff, skip=pinned)


@dataclass(frozen=True)
class ConvergenceRow:
    upto: int
    empirical: float
    predicted: float

    @property
    def ratio(self) -> float:
        return self.empirical / self.predicted


def check_checkpoints(checkpoints: list[int], limit: int) -> list[int]:
    """The checkpoints in ascending order.  Refuse with ValueError an empty
    list, a checkpoint below 1 or beyond the discriminant bound limit, and
    a repeated one, which convergence-trend would compare with itself."""
    xs = sorted(checkpoints)
    if not xs:
        raise ValueError("need at least one checkpoint")
    if xs[0] < 1:
        raise ValueError(f"checkpoint {xs[0]} below 1")
    if xs[-1] > limit:
        raise ValueError(f"checkpoint {xs[-1]} beyond the discriminant bound {limit}")
    for x, y in zip(xs, xs[1:]):
        if x == y:
            raise ValueError(f"checkpoint {x} repeated")
    return xs


def convergence_report(
    table: DiscriminantTable, conds: Conditions, checkpoints: list[int]
) -> list[ConvergenceRow]:
    """Empirical versus predicted conditioned sums at increasing cutoffs: at
    each checkpoint, the sum of the cell sums that the conditions allow.

    Every list takes the same pass over the rows, whichever primes it pins:
    at 10^6 on the imaginary side it takes 1.4-1.7 ms in blocks of 2^15 rows
    (raw, 12 rounds of 60 calls, numpy 2.4.6, 2-core Xeon).  When each list
    masked and indexed its own rows, a pinned list took 0.85-1.06 ms and
    inf=C 0.19 ms, against 1.3-1.4 ms for the one pass then."""
    xs = check_checkpoints(checkpoints, table.limit)
    if conds.sign != table.sign:
        raise ValueError("conditions pin the other discriminant sign")
    sums = cell_sums(table, xs)[:, conds.cells()].sum(axis=1)
    const = predicted_constant(conds)
    return [ConvergenceRow(int(x), float(s), const * float(x) ** 1.5) for x, s in zip(xs, sums)]


def default_checkpoints(limit: int) -> list[int]:
    """Two decades of convergence context below the limit."""
    return sorted({max(limit // 100, 1), max(limit // 10, 1), limit})
