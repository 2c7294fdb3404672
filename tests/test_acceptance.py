"""Acceptance gate: one check per shipped guarantee, at its stated tolerance.

Each test prints as a single pass/fail line under pytest -v.  Timed checks
measure wall-clock inside the test so the budget is part of the contract.
"""

import random
import time
from fractions import Fraction

import pytest

from oracles import (
    analytic_class_number_imaginary,
    analytic_hr_real,
    orbital_volume_bruteforce,
)
from quadmean.densities import (
    census_expected,
    density_total,
    euler_factor,
    extension_census,
    local_density,
    ramified_density_sum,
    ramified_density_sum_closed,
)
from quadmean.fields import DiscriminantTable, cell_sums
from quadmean.meanvalue import (
    convergence_report,
    euler_product,
    euler_tail_bound,
    parse_conditions,
)
from quadmean.orbits import (
    congruence_solution_check,
    congruence_solution_set,
    lift_saturation_check,
    orbit_size,
    standard_representatives,
    stabilizer_order,
    torus_order,
)
from quadmean.residue import square_class_labels


@pytest.fixture(scope="module")
def neg_table():
    t0 = time.monotonic()
    table = DiscriminantTable.compute(-1, 10**6)
    return table, time.monotonic() - t0


@pytest.fixture(scope="module")
def pos_table():
    t0 = time.monotonic()
    table = DiscriminantTable.compute(1, 10**5)
    return table, time.monotonic() - t0


def _ramified_reps(p):
    return [r for r in standard_representatives(p) if r.is_ramified]


def test_criterion_1_ramified_volumes_brute_equal_closed():
    t0 = time.monotonic()
    for p in (2, 3, 5):
        q = Fraction(p)
        for rep in _ramified_reps(p):
            closed = local_density(rep.algebra, p)
            assert closed == Fraction(1, 2) * q**-rep.delta * (1 - 1 / q) * (1 - q**-2)
            assert orbital_volume_bruteforce(rep, rep.n) == closed, rep.algebra
    assert time.monotonic() - t0 < 60.0


def test_criterion_2_stabilizer_and_torus_orders_exact():
    for p in (2, 3, 5):
        for rep in _ramified_reps(p):
            ring = rep.natural_ring()
            n, delta = rep.n, rep.delta
            expected_torus = p ** (2 * n - 1) * (p - 1)
            assert torus_order(rep, ring) == expected_torus, rep.algebra
            orbit = orbit_size(rep, ring)
            assert stabilizer_order(ring, orbit) == 2 * p**delta * expected_torus, rep.algebra


def test_criterion_3_congruence_count_and_characterization():
    for p in (2, 3, 5):
        for rep in _ramified_reps(p):
            ring = rep.natural_ring()
            solutions = congruence_solution_set(rep, ring).tolist()
            assert len(solutions) == 2 * p**rep.delta, rep.algebra
            branches = congruence_solution_check(rep)
            described = [key for branch in branches for key in branch.tolist()]
            assert set(described) == set(solutions), rep.algebra
            assert len(set(described)) == len(described), rep.algebra  # disjoint branches
            if p == 2 and rep.delta % 2 == 0:
                assert tuple(map(len, branches)) == (p**rep.delta, p**rep.delta)
            assert sorted(described) == sorted(solutions)


def test_criterion_4_orbit_lifts_saturate_one_level_deeper():
    for p in (2, 3):
        for rep in _ramified_reps(p):
            sat = lift_saturation_check(rep, rep.n + 1)
            assert not sat.missing, rep.algebra
            assert sat.lifts == p**3


def test_criterion_5_ramified_extension_census():
    for p in (2, 3, 5):
        assert extension_census(p) == census_expected(p)
        for parity in ("even", "odd"):
            assert ramified_density_sum(p, parity) == ramified_density_sum_closed(p, parity)
    assert len(square_class_labels(2)) - 1 == 7  # seven quadratic extensions of the dyadic field
    assert census_expected(2) == {2: 2, 3: 4}


def test_criterion_6_density_mass_identity():
    for q in (2, 3, 5, 7):
        assert density_total(q) == euler_factor(q)
        assert density_total(q) == 1 - Fraction(q) ** -2 - Fraction(q) ** -3 + Fraction(q) ** -4


def test_criterion_7_conditioned_sums_track_density_ratios(neg_table):
    table, build_seconds = neg_table
    assert build_seconds < 600.0

    cells = cell_sums(table, [table.limit])[0]

    def s(label):
        return float(cells[parse_conditions(f"inf=C,2={label}").cells()].sum())

    assert s("split") / s("unram") == pytest.approx(3.0, rel=0.02)
    assert s("ram:-1") / s("ram:-5") == pytest.approx(1.0, rel=0.02)
    shallow = ("ram:-1", "ram:-5")     # associated level-2 discriminant valuation
    deep = ("ram:2", "ram:-2", "ram:10", "ram:-10")  # valuation 3
    for a in shallow:
        for b in deep:
            assert s(a) / s(b) == pytest.approx(2.0, rel=0.02), (a, b)


def test_criterion_8_mean_value_matches_prediction(neg_table, pos_table):
    neg, _ = neg_table
    pos, _ = pos_table

    # README's claims: within 0.02% at 10^6 on the imaginary side and 2% at
    # 10^5 on the real side, where the secondary term is not modelled
    rows = convergence_report(neg, parse_conditions("inf=C"), (10**4, 10**5, 10**6))
    assert abs(rows[-1].ratio - 1) < 2e-4
    assert abs(rows[-1].ratio - 1) < abs(rows[0].ratio - 1)

    rows = convergence_report(pos, parse_conditions("inf=RxR"), (10**4, 10**5))
    assert abs(rows[-1].ratio - 1) < 2e-2
    assert abs(rows[-1].ratio - 1) < abs(rows[0].ratio - 1)


def test_criterion_9_sampled_oracles_and_euler_stability(neg_table, pos_table):
    neg, _ = neg_table
    pos, _ = pos_table
    rng = random.Random(2026)

    # the rows with |D| <= 10^4 are a prefix: |D| ascends
    small = int(neg.magnitude.searchsorted(10**4, "right"))
    for i in rng.sample(range(small), 50):
        exact = analytic_class_number_imaginary(-int(neg.magnitude[i]))
        assert exact.denominator == 1
        assert int(exact) == int(neg.h[i])

    small = int(pos.magnitude.searchsorted(10**4, "right"))
    for i in rng.sample(range(small), 50):
        got = float(pos.h[i] * pos.reg[i])
        want = analytic_hr_real(int(pos.magnitude[i]))
        assert abs(got / want - 1) < 1e-6

    # from 10^4 up every cutoff gives the same float, so compare the cutoffs
    # below it, within the proven tail past the smaller one
    assert abs(euler_product(10**3) / euler_product(10**4) - 1) <= euler_tail_bound(10**3)
