"""Residue ring arithmetic and square-class bookkeeping."""

import random
import time
from fractions import Fraction

import pytest

from oracles import kronecker
from quadmean.orbits import _generators
from quadmean.residue import (
    MAX_MODULUS,
    CapacityError,
    ResidueRing,
    disc_valuation,
    is_prime,
    smallest_nonresidue,
    square_class,
    square_class_labels,
    valuation,
)


def test_ring_construction():
    r = ResidueRing(3, 2)
    assert r.modulus == 9
    with pytest.raises(ValueError):
        ResidueRing(4, 1)
    with pytest.raises(ValueError):
        ResidueRing(3, 0)
    with pytest.raises(CapacityError):
        ResidueRing(2, 64)


def test_max_modulus_boundary():
    # 2^30 is the guard itself; 3^18 < 2^30 < 3^19 = 1,162,261,467
    assert ResidueRing(2, 30).modulus == MAX_MODULUS
    assert ResidueRing(3, 18).modulus == 3**18
    for p, n in ((2, 31), (3, 19)):
        with pytest.raises(CapacityError):
            ResidueRing(p, n)


def test_size_guard_comes_before_the_power_and_the_primality_test():
    # the guard refuses before p^n is computed or p trial-divided: 2^61 - 1
    # would be trial-divided for minutes, and 3^(10^7) takes seconds to
    # compute; a non-prime p past the guard is refused by the guard too, one
    # below it by the primality test
    for p, n in ((2**61 - 1, 1), (3, 10**7), (3, 10**8), (4, 16)):
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            ResidueRing(p, n)
        assert time.perf_counter() - start < 0.1, (p, n)
    with pytest.raises(ValueError):
        ResidueRing(4, 1)


def test_valuation():
    assert valuation(1, 3) == 0
    assert valuation(6, 3) == 1
    assert valuation(27, 3) == 3
    assert valuation(81, 3) == 4
    assert valuation(-9, 3) == 2
    assert valuation(-12, 2) == 2
    assert valuation(250, 5) == 3
    with pytest.raises(ValueError):
        valuation(0, 3)
    # a rational is refused, never valued through its numerator
    with pytest.raises(TypeError):
        valuation(Fraction(2, 9), 3)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2), (7, 1), (2, 1), (2, 2), (2, 3), (2, 5)])
def test_unit_generators_span_unit_group(p, n):
    # the transvections generate SL2, and s I acts on forms as the scalar
    # s^2: so the GL2 generators reach every unit-scaling class of an orbit
    # exactly when their determinants and the unit squares generate the units
    ring = ResidueRing(p, n)
    m = ring.modulus
    units = {v for v in range(m) if v % p}
    gens = _generators(ring)
    assert gens[:2] == [(1, 1, 0, 1), (1, 0, 1, 1)]
    dets = {(a * d - b * c) % m for a, b, c, d in gens}
    assert dets <= units
    steps = dets | {s * s % m for s in units}
    reached = {1}
    frontier = [1]
    while frontier:
        v = frontier.pop()
        for g in steps:
            w = v * g % m
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    assert reached == units


def test_kronecker_euler_criterion():
    # (a/p) for odd prime p agrees with a^((p-1)/2)
    rng = random.Random(5)
    for p in (3, 5, 7, 11, 13):
        for _ in range(60):
            a = rng.randrange(-200, 200)
            e = pow(a % p, (p - 1) // 2, p)
            expected = 0 if a % p == 0 else (1 if e == 1 else -1)
            assert kronecker(a, p) == expected


def test_kronecker_dyadic_and_composite():
    assert [kronecker(a, 2) for a in range(8)] == [0, 1, 0, -1, 0, -1, 0, 1]
    # multiplicative in the lower argument
    rng = random.Random(6)
    for _ in range(120):
        a = rng.randrange(-60, 60)
        m = rng.randrange(1, 40)
        n = rng.randrange(1, 40)
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_euler_criterion_classifier_matches_kronecker():
    # square_class decides squares by Euler's criterion; the Kronecker
    # symbol is the independent reference, at every odd prime below 200
    for p in (q for q in range(3, 200) if is_prime(q)):
        u = smallest_nonresidue(p)
        assert [kronecker(a, p) for a in range(2, u + 1)] == [1] * (u - 2) + [-1], p
        for w in range(1, p):
            assert (square_class(w, p) == 1) == (kronecker(w, p) == 1), (w, p)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {v for v in range(2, 30) if is_prime(v)} == {v for v in primes if v < 30}
    assert not is_prime(1)
    assert not is_prime(0)


def test_square_class_labels():
    assert square_class_labels(3) == [1, 2, 3, 6]
    assert square_class_labels(5) == [1, 2, 5, 10]
    assert square_class_labels(7) == [1, 3, 7, 21]
    assert square_class_labels(2) == [1, 5, -1, -5, 2, -2, 10, -10]
    assert smallest_nonresidue(7) == 3
    # each label names its own class
    for p in (2, 3, 5, 7):
        assert [square_class(lab, p) for lab in square_class_labels(p)] == square_class_labels(p)


def test_disc_valuation_of_labels():
    # 1, the unit non-square, then the ramified classes, in the list's order
    assert [disc_valuation(lab, 2) for lab in square_class_labels(2)] == [0, 0, 2, 2, 3, 3, 3, 3]
    for p in (3, 5, 7, 11):
        assert [disc_valuation(lab, p) for lab in square_class_labels(p)] == [0, 0, 1, 1]
    assert disc_valuation(-1, 2) == 2
    assert disc_valuation(2, 2) == 3
    assert disc_valuation(10, 5) == 1


def test_square_class_is_well_defined():
    # multiplying by any nonzero square must not move the class
    rng = random.Random(17)
    for p in (2, 3, 5, 7):
        for _ in range(150):
            a = 0
            while a == 0:
                a = rng.randrange(-500, 500)
            s = rng.randrange(1, 40)
            cls = square_class(a, p)
            assert square_class(a * s * s, p) == cls
            assert square_class(a * p * p * s * s, p) == cls


def test_square_class_spot_values():
    assert square_class(1, 2) == 1
    assert square_class(-4, 2) == -1
    assert square_class(-20, 2) == -5
    assert square_class(8, 2) == 2
    assert square_class(-8, 2) == -2
    assert square_class(40, 2) == 10
    assert square_class(-40, 2) == -10
    assert square_class(17, 2) == 1
    assert square_class(5, 2) == 5
    assert square_class(12, 3) == 3
    assert square_class(24, 3) == 6
    assert square_class(-3, 3) == 6
    assert square_class(5, 5) == 5
    assert square_class(2, 2) == 2
    with pytest.raises(TypeError):
        square_class(Fraction(1, 2), 2)


def test_square_class_group_structure():
    # label multiplication closes: the class of a product is the class of
    # the product of representative labels
    rng = random.Random(23)
    for p in (2, 3, 5):
        for _ in range(100):
            a = rng.choice([v for v in range(-300, 300) if v])
            b = rng.choice([v for v in range(-300, 300) if v])
            lhs = square_class(a * b, p)
            rhs = square_class(square_class(a, p) * square_class(b, p), p)
            assert lhs == rhs
