"""Orbital volumes, census, and the density identities."""

import math
from fractions import Fraction

import pytest

from oracles import algebra, orbital_volume_bruteforce
from quadmean.densities import (
    PiPower,
    census_expected,
    density_total,
    euler_factor,
    extension_census,
    local_density,
    ramified_density_sum,
    ramified_density_sum_closed,
)
from quadmean.orbits import (
    ALG_COMPLEX,
    ALG_REAL_PAIR,
    ALG_SPLIT,
    local_algebras,
    standard_representatives,
)


def test_pipower_arithmetic():
    a = PiPower(Fraction(1, 9), 2)
    b = PiPower(Fraction(1, 2), -1)
    c = a * b
    assert c == PiPower(Fraction(1, 18), 1)
    assert c.value() == pytest.approx(math.pi / 18, rel=1e-15)
    assert (c * Fraction(3, 64)).coef == Fraction(1, 384)
    assert (2 * c).coef == Fraction(1, 9)
    assert str(PiPower(Fraction(1, 4))) == "1/4"
    assert str(b) == "1/2*pi^-1"


def test_archimedean_densities():
    assert local_density(ALG_REAL_PAIR, None) == PiPower(Fraction(1, 4))
    assert local_density(ALG_COMPLEX, None) == PiPower(Fraction(1, 2), -1)


def test_finite_densities_frozen():
    assert local_density(ALG_SPLIT, 2) == Fraction(3, 8)
    assert local_density(ALG_SPLIT, 3) == Fraction(4, 9)
    assert local_density(algebra(2, 5), 2) == Fraction(1, 8)
    assert local_density(algebra(3, 2), 3) == Fraction(2, 9)
    assert local_density(algebra(3, 3), 3) == Fraction(8, 81)
    assert local_density(algebra(3, 6), 3) == Fraction(8, 81)
    assert local_density(algebra(2, -1), 2) == Fraction(3, 64)
    assert local_density(algebra(2, 2), 2) == Fraction(3, 128)
    with pytest.raises(TypeError):
        local_density(ALG_SPLIT)  # prime required


def test_one_rule_equals_the_textbook_formulas_and_serre_mass():
    # the one formula in (chi, delta) against the three per-kind formulas,
    # and Serre's mass formula over the ramified classes, at every p <= 13
    for p in (2, 3, 5, 7, 11, 13):
        q = Fraction(p)
        textbook = {
            "split": lambda delta: Fraction(1, 2) * (1 - q**-2),
            "unramified": lambda delta: Fraction(1, 2) * (1 - 1 / q) ** 2,
            "ramified": lambda delta: Fraction(1, 2) * q**-delta * (1 - 1 / q) * (1 - q**-2),
        }
        for alg in local_algebras(p):
            assert local_density(alg, p) == textbook[alg.kind](alg.disc_valuation), (p, alg)
        ramified = [alg.disc_valuation for alg in local_algebras(p) if alg.kind == "ramified"]
        assert sum(q ** (1 - delta) / 2 for delta in ramified) == 1, p


def test_orders_fill_the_space():
    # by the class number formula for orders (Cox, Primes of the form
    # x^2 + ny^2, 7), the orders of conductor p^k, k >= 0, of an algebra of
    # character chi weigh sum_k w_{p^k}(chi) T^k = (1 - chi T)/((1 - T)(1 - pT))
    # at T = p^-3, and the densities of all orders fill the whole space:
    # sum_t d_t(p) (1 - chi_t p^-3) = (1 - p^-2)(1 - p^-3), the factor g(p)
    # of euler_product.  Unlike the mass identity it weighs each density by
    # chi, so swapping the split and unramified densities fails it
    chi = {"split": 1, "unramified": -1, "ramified": 0}
    for p in (2, 3, 5, 7, 11, 13):
        q = Fraction(p)
        total = sum(local_density(alg, p) * (1 - chi[alg.kind] * q**-3) for alg in local_algebras(p))
        assert total == (1 - q**-2) * (1 - q**-3), p


def test_closed_volume_equals_bruteforce_at_working_level():
    for p in (2, 3):
        for rep in standard_representatives(p):
            closed = local_density(rep.algebra, p)
            assert orbital_volume_bruteforce(rep, rep.n) == closed


def test_volume_stable_one_level_deeper():
    for p, idx in ((3, 2), (3, 3), (2, 2), (2, 3)):
        rep = standard_representatives(p)[idx]
        closed = local_density(rep.algebra, p)
        assert orbital_volume_bruteforce(rep, rep.n + 1) == closed


def test_split_and_unramified_volumes_stable_from_level_one():
    for p in (2, 3, 5):
        reps = standard_representatives(p)
        for rep in reps[:2]:
            closed = local_density(rep.algebra, p)
            assert orbital_volume_bruteforce(rep, 1) == closed
            assert orbital_volume_bruteforce(rep, 2) == closed


def test_census():
    assert extension_census(2) == {2: 2, 3: 4}
    assert extension_census(3) == {1: 2}
    assert extension_census(7) == {1: 2}
    assert census_expected(2) == {2: 2, 3: 4}
    assert census_expected(5) == {1: 2}
    for p in (2, 3, 5, 7):
        assert extension_census(p) == census_expected(p)


def test_remark_sums():
    assert ramified_density_sum(2, "even") == Fraction(3, 32)
    assert ramified_density_sum(2, "odd") == Fraction(3, 32)
    assert ramified_density_sum(3, "even") == 0
    assert ramified_density_sum(3, "odd") == Fraction(16, 81)
    for p in (2, 3, 5, 7):
        for parity in ("even", "odd"):
            assert ramified_density_sum(p, parity) == ramified_density_sum_closed(p, parity), parity


def test_mass_identity():
    assert density_total(2) == Fraction(11, 16)
    assert density_total(3) == Fraction(70, 81)
    assert density_total(5) == Fraction(596, 625)
    for p in (2, 3, 5, 7, 11):
        assert density_total(p) == euler_factor(p)
        q = Fraction(p)
        assert euler_factor(p) == 1 - q**-2 - q**-3 + q**-4
