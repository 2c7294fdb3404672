"""Euler products, condition parsing, prediction and convergence plumbing."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import algebra, local_type
from quadmean import meanvalue
from quadmean.densities import PiPower, local_density
from quadmean.fields import (
    TRACKED_PRIMES,
    DiscriminantTable,
    imaginary_class_number_histogram,
    local_type_codes,
)
from quadmean.meanvalue import (
    EULER_CUTOFF,
    ZETA3,
    Conditions,
    ConvergenceRow,
    convergence_report,
    default_checkpoints,
    euler_factor,
    euler_product,
    euler_tail_bound,
    parse_conditions,
    predicted_constant,
    predicted_prefactor,
    primes_upto,
)
from quadmean.orbits import ALG_COMPLEX, ALG_REAL_PAIR, ALG_SPLIT, local_algebras


def test_euler_factor_frozen():
    assert euler_factor(2) == Fraction(11, 16)
    assert euler_factor(3) == Fraction(70, 81)
    assert euler_factor(5) == Fraction(596, 625)
    assert euler_factor(7) == Fraction(2346, 2401)


def test_primes_upto():
    assert list(primes_upto(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_upto(10**6)) == 78498


def _all_k_sieve(n):
    # every k up to sqrt(n) crosses out its multiples from k^2
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for k in range(2, int(n**0.5) + 1):
        if sieve[k]:
            sieve[k * k :: k] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def test_odd_sieve_equals_the_all_k_sieve():
    for n in [*range(301), 999_983, 10**6, 10**6 + 1]:
        got = primes_upto(n)
        assert got.dtype == np.int64 and np.array_equal(got, _all_k_sieve(n)), n


def test_euler_product_is_the_all_k_sieve_product(monkeypatch):
    # the same remainder factors multiplied in the same order, so the same float
    for cutoff in (EULER_CUTOFF, 10**6):
        for skip in ((), (2,), (3, 5), (2, 3, 5)):
            want = euler_product(cutoff, skip=skip)
            with monkeypatch.context() as m:
                m.setattr(meanvalue, "primes_upto", _all_k_sieve)
                assert euler_product(cutoff, skip=skip) == want, (cutoff, skip)


def _g(p):
    # the zeta factors: prod_p g(p) = 1/(zeta(2) zeta(3))
    q = Fraction(p)
    return (1 - q**-2) * (1 - q**-3)


_ZETA_PRODUCT = 6 / math.pi**2 / ZETA3


def test_euler_product_small_cutoff_exact():
    # at cutoff 2 the remainder is the single factor f(2)/g(2), held to 1e-15
    for cutoff, rel in ((2, 1e-15), (10, 1e-14), (50, 1e-14), (200, 1e-14)):
        exact = math.prod(
            (euler_factor(int(p)) / _g(int(p)) for p in primes_upto(cutoff)), start=Fraction(1)
        )
        assert euler_product(cutoff) == pytest.approx(_ZETA_PRODUCT * float(exact), rel=rel)
    skipped = math.prod(
        (euler_factor(int(p)) / _g(int(p)) for p in primes_upto(50)), start=Fraction(1)
    ) / (euler_factor(2) * euler_factor(5))
    assert euler_product(50, skip=(2, 5)) == pytest.approx(
        _ZETA_PRODUCT * float(skipped), rel=1e-14
    )


def test_euler_product_guards_its_cutoff():
    assert euler_product(2) == pytest.approx(
        _ZETA_PRODUCT * float(euler_factor(2) / _g(2)), rel=1e-15
    )
    for cutoff in (1, 0, -5):
        with pytest.raises(ValueError):
            euler_product(cutoff)


def test_euler_product_frozen_value():
    # past p = 9741 every remainder factor rounds to 1.0, so the cutoffs
    # from 10^4 up give one float
    assert euler_product(10**6) == pytest.approx(0.5358961538283141, rel=1e-12)
    assert euler_product(10**4) == euler_product(10**5) == euler_product(10**6)


def test_zeta3_is_aperys_series():
    # zeta(3) = (5/2) sum_{n >= 1} (-1)^(n+1) / (n^3 C(2n, n)); the 31st
    # term is below 1e-22, so 30 terms fix the nearest float
    series = Fraction(5, 2) * sum(
        Fraction((-1) ** (n + 1), n**3 * math.comb(2 * n, n)) for n in range(1, 31)
    )
    assert float(series) == ZETA3


def test_direct_product_lies_within_the_old_tail_bound():
    # the direct product of f(p) over the primes to 10^6, as multiplied
    # before the zeta factors were divided out, with its bound 2/(N - 1)
    ps = primes_upto(10**6).astype(np.float64)
    direct = float(np.multiply.reduce(1.0 - ps**-2.0 - ps**-3.0 + ps**-4.0))
    # the omitted factors are below 1, so the direct product lies above
    assert 0 < direct / euler_product() - 1 <= 2 / (10**6 - 1)


def test_tail_bound_dominates_observed_movement():
    lo = euler_product(10**4)
    hi = euler_product(10**5)
    assert abs(hi / lo - 1) <= euler_tail_bound(10**4)
    assert euler_tail_bound(10**6) < 3e-6


def test_remainder_log_term_bound():
    # 0 < log f(p)/g(p) <= f(p)/g(p) - 1 <= 1.53 p^-4, which euler_tail_bound sums
    for k in range(2, 2000):
        x = euler_factor(k) / _g(k) - 1
        assert 0 < x <= Fraction(153, 100) / k**4, k
        assert 0 < math.log1p(float(x)) <= 1.53 / k**4, k
    ps = [int(p) for p in primes_upto(2000)]
    for n in (2, 10, 100):
        tail = math.fsum(math.log1p(float(euler_factor(p) / _g(p) - 1)) for p in ps if p > n)
        # a bound, and not a loose one: the prime tail is a fair share of it
        assert tail <= euler_tail_bound(n) <= 10 * tail, n


def test_log_factor_bound_margin_nonnegative():
    # |log f(1/p)| <= 2/p^2 for every prime p >= 2
    for k in range(2, 2000):
        a = 1.0 / k
        assert 2 * a * a >= abs(math.log(1 - a * a - a**3 + a**4))


def test_parse_conditions_returns_one_value():
    assert parse_conditions("inf=C") == Conditions(-1, ALG_COMPLEX, ())
    c = parse_conditions(" 5=split , inf=RxR,2=ram:-1")
    assert c.arch == ALG_REAL_PAIR
    assert c.pinned == ((2, algebra(2, -1)), (5, ALG_SPLIT))
    # the pinned primes come in ascending order, whatever the list's order
    shuffled = parse_conditions("3=unram,inf=RxR,2=split")
    assert shuffled == parse_conditions("inf=RxR,2=split,3=unram")
    # each label names its algebra in the one list of local types at p
    for p in TRACKED_PRIMES:
        for alg in local_algebras(p):
            assert parse_conditions(f"inf=C,{p}={alg.label}").pinned == ((p, alg),)


def test_parse_condition_rejects_bad_input():
    # the exact messages are pinned through the command line in test_cli
    for bad in ("", "2=split", "inf=H", "7=split,inf=C", "inf=C,2=ram:3", "inf=C,2-split",
                "inf=C,inf=RxR", "inf=C,2=split,2=unram", "inf=C,2=ram:-3", "inf=C,"):
        with pytest.raises(ValueError):
            parse_conditions(bad)
    # with two faults, the first in reading order is named
    with pytest.raises(ValueError, match="duplicate place"):
        parse_conditions("inf=C,2=split,2=unram,7=x")


def test_condition_sign():
    assert parse_conditions("inf=C").sign == -1
    assert parse_conditions("2=split,inf=RxR").sign == 1
    with pytest.raises(ValueError, match="inf=C or inf=RxR"):
        parse_conditions("2=split")


def _rows_allowed(table, conds):
    """Row mask of the rows whose joint type code the conditions allow."""
    return conds.cells()[local_type_codes(table.sign, table.magnitude)]


def test_condition_mask_and_empirical_sum():
    t = DiscriminantTable.compute(-1, 100)
    m = _rows_allowed(t, parse_conditions("inf=C"))
    assert m.all() and parse_conditions("inf=C").cells().shape == (128,)
    assert float((t.h[m] * t.reg[m]).sum()) == 89.0
    m = _rows_allowed(t, parse_conditions("inf=C,2=ram:-1"))
    mags = t.magnitude[m]
    # needs D = 4k, k squarefree, k = 7 mod 8: only k = -1, -17 below 100/4
    assert [int(v) for v in mags] == [4, 68]
    m5 = _rows_allowed(t, parse_conditions("inf=C,2=ram:-5"))
    assert [int(v) for v in t.magnitude[m5]] == [20, 52, 84]
    with pytest.raises(ValueError, match="other discriminant sign"):
        convergence_report(t, parse_conditions("inf=RxR"), [100])
    m = t.magnitude <= 50
    assert float((t.h[m] * t.reg[m]).sum()) == float(t.h[m].sum())


@pytest.mark.parametrize("sign", [-1, 1])
def test_condition_mask_is_the_and_of_scalar_types(sign):
    # all 9 * 5 * 5 = 225 lists that leave each tracked prime free or pin it
    # to one of its types: the cells a list allows, read at each row's joint
    # code, are the rows whose scalar types match every pinned one
    t = DiscriminantTable.compute(sign, 2 * 10**4)
    ds = (sign * t.magnitude).tolist()
    labels = {p: np.array([local_type(d, p).label for d in ds]) for p in TRACKED_PRIMES}
    arch = "inf=C" if sign < 0 else "inf=RxR"
    choices = [[None] + [alg.label for alg in local_algebras(p)] for p in TRACKED_PRIMES]
    for combo in itertools.product(*choices):
        text, want = arch, np.ones(len(t), dtype=bool)
        for p, label in zip(TRACKED_PRIMES, combo):
            if label is not None:
                text += f",{p}={label}"
                want &= labels[p] == label
        assert np.array_equal(_rows_allowed(t, parse_conditions(text)), want), text


def test_predicted_prefactor_forms():
    pre = predicted_prefactor(parse_conditions("inf=C"))
    assert isinstance(pre, PiPower)
    assert str(pre) == "1/18*pi^1"
    assert pre.value() == pytest.approx(math.pi / 18, rel=1e-15)
    pre = predicted_prefactor(parse_conditions("inf=RxR"))
    assert str(pre) == "1/36*pi^2"
    assert pre.value() == pytest.approx(math.pi**2 / 36, rel=1e-15)
    pre = predicted_prefactor(parse_conditions("inf=C,2=ram:-1"))
    assert str(pre) == "1/384*pi^1"


def test_predicted_constant_frozen():
    assert predicted_constant(parse_conditions("inf=C")) == pytest.approx(
        0.09353152333078096, rel=1e-12
    )
    assert predicted_constant(parse_conditions("inf=RxR")) == pytest.approx(
        0.1469189732875219, rel=1e-12
    )
    assert predicted_constant(parse_conditions("inf=C,2=ram:-1")) == pytest.approx(
        0.006377149318007792, rel=1e-12
    )


def test_predicted_constant_pinning_consistency():
    # pinning a prime swaps its Euler factor for its exact local density;
    # summing densities over all types at that prime recovers the factor
    base = predicted_constant(parse_conditions("inf=C"), cutoff=10**4)
    conds = [parse_conditions(f"inf=C,3={lbl}") for lbl in ("split", "unram", "ram:3", "ram:6")]
    total = sum(predicted_constant(c, cutoff=10**4) for c in conds)
    assert total == pytest.approx(base, rel=1e-12)


def test_mertens_sum_of_form_counts_has_two_known_terms():
    # the residual method of the mean-value check, on a sum whose two terms
    # are known (Mertens): the reduced positive forms with 4ac - b^2 <= X, as
    # the imaginary histogram counts them, number c X^(3/2) - X/4 with c =
    # pi/18, the archimedean prefactor of inf=C, within 0.2 X^(3/4) at 11
    # log-spaced checkpoints of 10^5..10^6 (the worst residual is 0.073 of
    # X^(3/4), at 10^5).  Without the X/4 term the residual is 7.8 of X^(3/4)
    # at 10^6, and with c 3% high about 165
    c = (PiPower(Fraction(1, 9), 2) * local_density(ALG_COMPLEX, None)).value()
    hist = imaginary_class_number_histogram(10**6)
    i = np.arange(hist.size)
    n = 2 * i + (i & 1)  # hist[i] counts the forms at n = 0 or 3 mod 4
    running = np.cumsum(hist, dtype=np.int64)
    for k in range(11):
        x = round(10 ** (5 + k / 10))
        s = int(running[np.searchsorted(n, x, "right") - 1])
        assert abs(s - c * x**1.5 + x / 4) <= 0.2 * x**0.75, x


def test_convergence_report_shape():
    t = DiscriminantTable.compute(-1, 20000)
    rows = convergence_report(t, parse_conditions("inf=C"), checkpoints=(2000, 20000))
    assert [r.upto for r in rows] == [2000, 20000]
    for r in rows:
        assert isinstance(r, ConvergenceRow)
        assert r.empirical > 0 and r.predicted > 0
        assert r.ratio == pytest.approx(r.empirical / r.predicted, rel=1e-15)
    # the predicted column itself grows like upto^(3/2)
    assert rows[1].predicted / rows[0].predicted == pytest.approx(10 ** 1.5, rel=1e-12)
    # X^(3/2) growth: even at 2e4 the ratio is already within 15%
    assert abs(rows[-1].ratio - 1) < 0.15


@pytest.mark.parametrize(
    "sign, conds",
    [(-1, ["inf=C", "inf=C,3=split", "inf=C,2=ram:-5,5=unram"]),
     (1, ["inf=RxR", "inf=RxR,5=split", "inf=RxR,2=ram:-1,3=ram:3"])],
)
def test_convergence_report_sums_equal_the_mask_sums(sign, conds):
    # imaginary sums are exact integers; a real one is within n * 2^-53 of the
    # exact sum of its n positive terms, whatever order they are added in
    t = DiscriminantTable.compute(sign, 20000)
    checkpoints = [20000, 37, 5000, 1, 19999, 8]
    for text in conds:
        cs = parse_conditions(text)
        rows = convergence_report(t, cs, checkpoints)
        assert [r.upto for r in rows] == sorted(checkpoints)
        mask = _rows_allowed(t, cs)
        for r in rows:
            keep = mask & (t.magnitude <= r.upto)
            terms = (t.h[keep] * t.reg[keep]).tolist()
            exact = math.fsum(terms)
            if sign < 0:
                assert r.empirical == exact, (text, r.upto)
            else:
                assert abs(r.empirical - exact) <= len(terms) * 2**-53 * exact, (text, r.upto)


def test_convergence_report_errors():
    t = DiscriminantTable.compute(-1, 1000)
    with pytest.raises(ValueError):
        convergence_report(t, parse_conditions("inf=RxR"), checkpoints=(1000,))
    with pytest.raises(ValueError):
        convergence_report(t, parse_conditions("inf=C"), checkpoints=(2000,))
    with pytest.raises(ValueError):
        convergence_report(t, parse_conditions("inf=C"), checkpoints=())


def test_default_checkpoints():
    assert default_checkpoints(10**6) == [10**4, 10**5, 10**6]
    assert default_checkpoints(50) == [1, 5, 50]
    assert default_checkpoints(1) == [1]
