"""Scalar oracles: per-field, per-representative and per-element
reference values.

They compute one discriminant, one representative or one group element's
action at a time, straight from the definitions, so the tests can check
the array kernels of quadmean.fields and quadmean.orbits and the closed
forms of quadmean.densities against them.  act applies one element of
GL1 x GL2 to one form, the scalar reference for the orbit, stabilizer
and torus kernels, and torus_element is the multiplication matrix of the
torus.  orbit_bitset_by_generators closes an orbit under every
element of group_generators, a generating set of GL1 x GL2 that takes the
whole unit group as scalars and as diag(u, 1) and shares nothing with the
generators of quadmean.orbits: the reference for its class-quotient
closure.  stabilizer_elements_by_buckets pairs every unit
form-value bucket of top rows with its bucket of bottom rows, the
reference for the stabilizer scan, which lists the slice a = 1 only: its
rows with a = 1 are the scan's, in the same increasing (b, c, d), and all
of them are the scan's rows times the units, as a multiset.
congruence_solution_set_by_loops tries every pair (u, s)
in turn, the reference for the table read of
quadmean.orbits.congruence_solution_set.  algebra(p, label)
looks up the local type of a square class, and local_type(d, p) that of
any nonzero d, the scalar specification of the joint type codes of
quadmean.fields.  kronecker is the general Kronecker symbol: the
character of the analytic class numbers, and the reference for the
Euler-criterion classifier of quadmean.residue.  Nothing in the package
calls them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt

import numpy as np

from quadmean.orbits import (
    MAX_ORBIT_SPACE,
    BinaryQF,
    QuadraticAlgebraDescriptor,
    StandardRep,
    _rem,
    _unit_inverses,
    local_algebras,
    orbit_size,
)
from quadmean.residue import CapacityError, ResidueRing, square_class, square_class_labels


def algebra(p: int, label: int) -> QuadraticAlgebraDescriptor:
    """The algebra of local_algebras(p) whose square class is label."""
    return local_algebras(p)[square_class_labels(p).index(label)]


def local_type(d: int, p: int) -> QuadraticAlgebraDescriptor:
    """Isomorphism type of the completion at p of the quadratic algebra of
    Q(sqrt(d)), for any nonzero d: the algebra of its square class."""
    return algebra(p, square_class(d, p))


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n >= 1 (prime n gives the Legendre symbol)."""
    if n <= 0:
        raise ValueError("second argument must be positive")
    res = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            res = -res
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                res = -res
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            res = -res
        a %= n
    return res if n == 1 else 0


def act(g: tuple[int, int, int, int, int], x: BinaryQF, m: int) -> BinaryQF:
    """Apply g = (t, a, b, c, d), the pair (t, [[a, b], [c, d]]), to a form
    over Z/m: substitute v -> v*g2, then scale by t."""
    t, a, b, c, d = g
    x0, x1, x2 = x.x0, x.x1, x.x2
    y0 = t * (x0 * a * a + x1 * a * b + x2 * b * b) % m
    y1 = t * (2 * x0 * a * c + x1 * (a * d + b * c) + 2 * x2 * b * d) % m
    y2 = t * (x0 * c * c + x1 * c * d + x2 * d * d) % m
    return BinaryQF(y0, y1, y2)


def torus_element(x: StandardRep, c, d, m: int) -> tuple:
    """Matrix of multiplication by c + d*theta on Z[theta], theta a root of
    v^2 + a1 v + a2, in the basis (1, theta), mod m: [[c, d], [-a2 d, c + a1 d]],
    the GL2 part of a torus element.  c and d are ints or integer arrays."""
    return (c % m, d % m, -x.a2 * d % m, (c + x.a1 * d) % m)


def is_fundamental(d: int) -> bool:
    """Discriminant of the maximal order of a quadratic field."""
    if d == 0 or d == 1:
        return False
    if d % 4 == 1:
        return _is_squarefree(abs(d))
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _is_squarefree(abs(m))
    return False


def _is_squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    k = 3
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 2
    return True


def class_number_imaginary(d: int) -> int:
    """h(d) for a fundamental d < 0 by counting reduced positive forms
    (a, b, c): b^2 - 4ac = d, |b| <= a <= c, b >= 0 when |b| = a or a = c."""
    if d >= 0 or not is_fundamental(d):
        raise ValueError("fundamental negative discriminant required")
    n = -d
    count = 0
    b = n & 1
    while 3 * b * b <= n:
        m = (b * b + n) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                count += 1 if (b == 0 or b == a or a * a == m) else 2
            a += 1
        b += 2
    return count


def analytic_class_number_imaginary(d: int) -> Fraction:
    """Character-sum evaluation of h(d), exact: -w * sum(a*chi(a)) / (2|d|)
    with w = 6, 4, 2 for |d| = 3, 4, larger."""
    if d >= 0:
        raise ValueError("negative discriminant required")
    n = -d
    w = 6 if n == 3 else 4 if n == 4 else 2
    total = sum(a * kronecker(d, a) for a in range(1, n))
    return Fraction(-w * total, 2 * n)


def _surd_cycle(d: int) -> list[tuple[int, int]]:
    """Periodic (P, Q) states of the continued fraction of the maximal
    order generator (d mod 2 + sqrt(d))/2; each state is the purely
    periodic surd (P + sqrt(d))/Q."""
    s = isqrt(d)
    if s * s == d:
        raise ValueError("discriminant must not be a square")
    P, Q = d % 2, 2
    seen: dict[tuple[int, int], int] = {}
    states: list[tuple[int, int]] = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(states)
        states.append((P, Q))
        a = (P + s) // Q
        P = a * Q - P
        Q = (d - P * P) // Q
    return states[seen[(P, Q)] :]


def regulator_real(d: int) -> float:
    """log of the fundamental unit of the maximal real quadratic order."""
    sd = math.sqrt(d)
    return math.fsum(math.log((P + sd) / Q) for P, Q in _surd_cycle(d))


def fundamental_unit_exact(d: int) -> tuple[int, int]:
    """(t, u) with the fundamental unit (t + u*sqrt(d))/2, t^2 - d u^2 = +-4,
    by exact multiplication over the continued fraction cycle."""
    x, y = Fraction(1), Fraction(0)
    for P, Q in _surd_cycle(d):
        x, y = Fraction(P * x + d * y, Q), Fraction(x + P * y, Q)
    t, u = 2 * x, 2 * y
    if t.denominator != 1 or u.denominator != 1:
        raise ArithmeticError("unit coordinates not half-integral")
    t, u = int(t), int(u)
    if t * t - d * u * u not in (4, -4):
        raise ArithmeticError("norm of claimed unit is not +-1")
    return t, u


def _reduced_indefinite_forms(d: int) -> list[tuple[int, int, int]]:
    """All reduced forms (a, b, c) of positive non-square discriminant d:
    a*c < 0 and b > |a + c|, equivalently 0 < b < sqrt(d) < b + 2|a|
    with |sqrt(d) - 2|a|| < b."""
    forms = []
    s = isqrt(d)
    for b in range(2 - (d & 1), s + 1, 2):
        rest = d - b * b
        if rest % 4:
            continue
        n = rest // 4
        for a in range(1, isqrt(n) + 1):
            if n % a:
                continue
            c = n // a
            if b > c - a:
                forms.append((a, b, -c))
                forms.append((-a, b, c))
                if a != c:
                    forms.append((c, b, -a))
                    forms.append((-c, b, a))
    return forms


def _rho_step(form: tuple[int, int, int], d: int, s: int) -> tuple[int, int, int]:
    """Reduction-cycle neighbor: (a, b, c) -> (c, r, (r^2 - d)/(4c)) with
    r = -b mod 2|c| chosen in (sqrt(d) - 2|c|, sqrt(d))."""
    _, b, c = form
    m2 = 2 * abs(c)
    r = s - ((s - ((-b) % m2)) % m2)
    return (c, r, (r * r - d) // (4 * c))


def reduction_cycle_count(d: int) -> int:
    """Number of reduction cycles on the reduced forms of discriminant d;
    this is the narrow class number."""
    s = isqrt(d)
    todo = set(_reduced_indefinite_forms(d))
    cycles = 0
    while todo:
        start = next(iter(todo))
        f = start
        while True:
            todo.discard(f)
            f = _rho_step(f, d, s)
            if f == start:
                break
        cycles += 1
    return cycles


def class_number_real(d: int) -> int:
    """h(d) for fundamental d > 0: the cycle count, halved when the
    fundamental unit has norm +1 (narrow classes then pair up)."""
    if d <= 0 or not is_fundamental(d):
        raise ValueError("fundamental positive discriminant required")
    cycles = reduction_cycle_count(d)
    t, u = fundamental_unit_exact(d)
    if t * t - d * u * u == 4:
        if cycles % 2:
            raise ArithmeticError(f"odd cycle count with a norm +1 unit at D={d}")
        return cycles // 2
    return cycles


def hr_real(d: int) -> float:
    """h(d) * regulator, as the form sum over reduced (a, b, -c), a > 0,
    of log((b + sqrt(d))/(2c))."""
    sd = math.sqrt(d)
    return math.fsum(
        math.log((b + sd) / (-2 * c))
        for a, b, c in _reduced_indefinite_forms(d)
        if a > 0
    )


def analytic_hr_real(d: int) -> float:
    """Character-sum evaluation of h(d)*R(d):
    -(1/2) * sum over a of chi_d(a) * log(sin(pi a / d))."""
    if d <= 0:
        raise ValueError("positive discriminant required")
    return -0.5 * math.fsum(
        kronecker(d, a) * math.log(math.sin(math.pi * a / d))
        for a in range(1, d)
        if math.gcd(a, d) == 1
    )


def orbital_volume_bruteforce(rep: StandardRep, level: int) -> Fraction:
    """Orbit size over Z/p^level divided by the ball size p^(3*level).

    Stable in the level once it reaches the representative's working
    level (and in practice from level 1 for unit discriminants).
    """
    ring = ResidueRing(rep.p, level)
    return Fraction(orbit_size(rep, ring), rep.p ** (3 * level))


def group_generators(ring: ResidueRing) -> list[tuple[int, int, int, int, int]]:
    """(t, a, b, c, d) generators of GL1 x GL2 over Z/p^N, found by no search:
    the two elementary transvections, and the scalar u and diag(u, 1) for
    every u of a generating set of the whole unit group, 2..p-1 and 1 + p at
    odd p (onto the units mod p, and 1 + p generates 1 + pZ/p^N), 3 and 5 at
    p = 2 (3 = -5^k for some k).  The reference closures read it, and not
    quadmean.orbits._generators, so they can catch a fault there."""
    units = (3, 5) if ring.p == 2 else (*range(2, ring.p), 1 + ring.p)
    gens = [(1, 1, 1, 0, 1), (1, 1, 0, 1, 1)]
    for u in units:
        gens += [(u, 1, 0, 0, 1), (1, u, 0, 0, 1)]
    return gens


def orbit_bitset_by_generators(form: BinaryQF, ring: ResidueRing) -> tuple[np.ndarray, int]:
    """Dense level-synchronous closure of the G-orbit of a form under every
    element of group_generators, the unit scalars included: the reference
    for the class-quotient closure of quadmean.orbits._orbit_bitset.

    Each generator acts on (x0, x1, x2) by a 3x3 matrix mod m, applied to
    the whole frontier of packed int64 triples per level.  Returns (bool
    array keyed by packed triples, orbit size).
    """
    m = ring.modulus
    gens = []
    for t, a, b, c, d in group_generators(ring):
        rows = ((a * a, a * b, b * b), (2 * a * c, a * d + b * c, 2 * b * d), (c * c, c * d, d * d))
        gens.append([[t * k % m for k in row] for row in rows])
    x0, x1, x2 = (v % m for v in form.coeffs())
    start = (x0 * m + x1) * m + x2
    visited = np.zeros(m**3, dtype=bool)
    visited[start] = True
    frontier = np.array([start], dtype=np.int64)
    count = 1
    while frontier.size:
        xs = (frontier // (m * m), frontier // m % m, frontier % m)
        found = []
        for rows in gens:
            y0, y1, y2 = ((k0 * xs[0] + k1 * xs[1] + k2 * xs[2]) % m for k0, k1, k2 in rows)
            idx = (y0 * m + y1) * m + y2
            # a generator permutes the forms, so distinct entries have
            # distinct images: the unseen ones need no deduplication
            new = idx[~visited[idx]]
            visited[new] = True
            found.append(new)
        frontier = np.concatenate(found)
        count += frontier.size
    return visited, count


def stabilizer_elements_by_buckets(x: StandardRep, ring: ResidueRing) -> np.ndarray:
    """All (t, g2) in G(Z/p^N) fixing the form of x, as an int64 array of
    rows (t, a, b, c, d) in increasing (a, b, c, d): the reference for the
    unit-normalized slice scan of quadmean.orbits.stabilizer_elements.

    g fixes x exactly when x(a, b) = t^-1, x(c, d) = a2 t^-1, the cross
    term matches a1, and g2 is invertible.  Rows (a, b) and (c, d) are
    bucketed by their form value, so each unit r = t^-1 pairs the bucket
    of r (top rows) with the bucket of a2 r (bottom rows).
    """
    m = ring.modulus
    if m**4 > MAX_ORBIT_SPACE * 4:
        raise CapacityError(f"stabilizer scan at modulus {m} too large")
    if not x.is_ramified:
        raise ValueError("stabilizer scan implemented for ramified representatives")
    a1 = x.a1 % m
    a2 = x.a2 % m
    p = ring.p
    inv = _unit_inverses(ring)
    # int32 throughout: with m <= 128 form values stay below 3 m^3, cross
    # terms below 2 m^2 and packed keys below m^4 <= 2^28
    # packed rows a*m + b, sorted by form value, increasing within a bucket
    a = np.repeat(np.arange(m, dtype=np.int32), m)
    b = np.tile(np.arange(m, dtype=np.int32), m)
    value = _rem(a * a + a1 * a * b + a2 * b * b, m)
    order = np.argsort(value, kind="stable").astype(np.int32)
    bounds = np.searchsorted(value[order], np.arange(m + 1))
    keys = []
    for r in np.flatnonzero(inv).tolist():
        s = a2 * r % m
        top = order[bounds[r] : bounds[r + 1]]
        bot = order[bounds[s] : bounds[s + 1]]
        ta, tb = a[top][:, None], b[top][:, None]
        c, d = a[bot], b[bot]
        cross = _rem(_rem(2 * ta + a1 * tb, m) * c + _rem(a1 * ta + 2 * a2 * tb, m) * d, m)
        # t^-1 = r is a unit, so t * cross == a1 exactly when cross == a1 r
        hit = (cross == a1 * r % m) & (_rem(ta * d - tb * c, p) != 0)
        i, j = np.nonzero(hit)
        keys.append(top[i] * (m * m) + bot[j])
    keys = np.concatenate(keys)
    keys.sort()
    rows = np.empty((keys.size, 5), dtype=np.int64)
    rows[:, 0] = inv[value[keys // (m * m)]]  # t = x(a, b)^-1, by packed top row
    for j in (4, 3, 2, 1):  # peel d, c, b, a off the packed keys
        rest = keys // m
        rows[:, j] = keys - rest * m
        keys = rest
    return rows


def congruence_solution_set_by_loops(x: StandardRep, ring: ResidueRing) -> list[int]:
    """Solutions (u, s), s a unit, of  a1 s + 2u = a1  and
    u^2 + a1 u s + a2 s^2 = a2  in Z/p^N, one pair at a time, as the keys
    u*m + s in increasing order: the reference for
    quadmean.orbits.congruence_solution_set."""
    m = ring.modulus
    p = ring.p
    a1 = x.a1 % m
    a2 = x.a2 % m
    out = []
    for u in range(m):
        for s in range(m):
            if s % p == 0:
                continue
            if (a1 * s + 2 * u - a1) % m:
                continue
            if (u * u + a1 * u * s + a2 * s * s - a2) % m:
                continue
            out.append(u * m + s)
    return out
