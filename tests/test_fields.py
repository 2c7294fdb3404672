"""Discriminant tables, class numbers, regulators, local fingerprints."""

import math
import os
import random

import numpy as np
import pytest

from quadmean import fields
from quadmean.fields import (
    DiscriminantTable,
    TRACKED_PRIMES,
    analytic_class_number_imaginary,
    analytic_hr_real,
    cached_table,
    class_number_imaginary,
    class_number_real,
    fundamental_magnitudes,
    fundamental_unit_exact,
    hr_real,
    imaginary_class_number_histogram,
    is_fundamental,
    local_type,
    local_type_codes,
    local_type_label,
    real_hr_histogram,
    reduction_cycle_count,
    regulator_real,
    type_labels,
    _isqrt_array,
    _surd_cycle,
)


def test_is_fundamental_matches_definition():
    def brute(d):
        if d in (0, 1):
            return False
        def sqfree(n):
            n = abs(n)
            return all(n % (k * k) for k in range(2, int(n**0.5) + 1))
        if d % 4 == 1:
            return sqfree(d)
        return d % 4 == 0 and (d // 4) % 4 in (2, 3) and sqfree(d // 4)

    for d in range(-300, 300):
        assert is_fundamental(d) == brute(d), d


def test_fundamental_enumeration_agrees_with_predicate():
    for sign in (-1, 1):
        mags = fundamental_magnitudes(sign, 2000)
        listed = set(int(v) for v in mags)
        for n in range(2001):
            assert (n in listed) == is_fundamental(sign * n)
        ds = sign * fundamental_magnitudes(sign, 2000)
        assert all(is_fundamental(int(d)) for d in ds)


def test_imaginary_histogram_frozen():
    hist = imaginary_class_number_histogram(100)
    mags = fundamental_magnitudes(-1, 100)
    assert hist.size == 100 // 2 + 1
    assert int(hist[mags >> 1].sum()) == 89
    assert hist[3 >> 1] == 1 and hist[4 >> 1] == 1
    assert hist[23 >> 1] == 3
    assert hist[47 >> 1] == 5
    assert hist[95 >> 1] == 8


def test_imaginary_histogram_vs_per_d_oracle():
    hist = imaginary_class_number_histogram(4000)
    for n in fundamental_magnitudes(-1, 4000):
        assert class_number_imaginary(-int(n)) == int(hist[n >> 1]), n


def _per_ab_loop(limit, offset, stride):
    # the reference: one strided add per (a, b), n = 4ac - b^2 from c = a on
    hist = np.zeros(limit + 1, dtype=np.int64)
    amax = math.isqrt(limit // 3)
    for a in range(1 + offset, amax + 1, stride):
        step = 4 * a
        for b in range(a + 1):
            first = 4 * a * a - b * b
            if first > limit:
                continue
            if b == 0 or b == a:
                hist[first::step] += 1
            else:
                hist[first::step] += 2
                hist[first] -= 1
    return hist


# the small limits cut the head window [3a^2, 4a^2) of the largest a;
# 2, 6, 10 and 4098 (= 2 mod 4) end on the entry that stands for limit + 1
_PER_AB_LIMITS = (1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 15, 16, 27, 48, 100, 1000, 4097, 4098, 4099,
                  20000)


def _halved(full):
    # n = 4k at 2k, n = 4k + 3 at 2k + 1; the entry for n = limit + 1 is 0
    n = np.arange(full.size)
    kept = (n % 4 == 0) | (n % 4 == 3)
    ref = np.zeros((full.size - 1) // 2 + 1, dtype=np.int64)
    ref[n[kept] >> 1] = full[kept]
    return ref


def test_imaginary_histogram_equals_the_per_ab_loop():
    for limit in _PER_AB_LIMITS:
        full = _per_ab_loop(limit, 0, 1)
        n = np.arange(limit + 1)
        kept = (n % 4 == 0) | (n % 4 == 3)
        # the premise of the layout: 4ac - b^2 is never 1 or 2 mod 4
        assert not full[~kept].any(), limit
        ref = _halved(full)
        hist = fields._imag_hist_range(limit, 0, 1)
        assert hist.size == limit // 2 + 1, limit
        assert np.array_equal(hist, ref), limit
        for stride in (2, 3):
            parts = [fields._imag_hist_range(limit, k, stride) for k in range(stride)]
            assert np.array_equal(sum(parts), ref), (limit, stride)
    for workers in (2, 3):
        assert np.array_equal(imaginary_class_number_histogram(limit, workers), ref), workers


def test_imaginary_histogram_flushes_a_narrow_buffer_exactly(monkeypatch):
    # an int8 buffer holds the sum of the row tops only up to 127, so the
    # kernel must flush it into the histogram and empty it mid-loop: at 20000
    # twice with stride 1, and once in one part or more with strides 2 and 3
    # (the int16 buffer first flushes above 10^7)
    monkeypatch.setattr(fields, "_COMB_ACC", np.int8)
    for limit in _PER_AB_LIMITS:
        ref = _halved(_per_ab_loop(limit, 0, 1))
        for stride in (1, 2, 3):
            parts = [fields._imag_hist_range(limit, k, stride) for k in range(stride)]
            assert all(part.dtype == np.int32 for part in parts)
            assert np.array_equal(sum(parts), ref), (limit, stride)


def test_imaginary_histogram_fits_int32_up_to_the_table_guard():
    # a <= isqrt(n/3) and at most 2a forms per a bound the count at n
    def bound(n):
        return (_isqrt_array(n // 3) + 1) ** 2 - 1

    hist = imaginary_class_number_histogram(20000)
    assert hist.dtype == np.int32
    n = np.arange(20001)
    n = n[(n % 4 == 0) | (n % 4 == 3)]
    assert np.all(hist[n >> 1] <= bound(n))
    assert bound(np.array([fields.MAX_TABLE_LIMIT]))[0] < 2**31


def test_imaginary_head_grid_fits_int32_at_the_table_guard():
    # _imag_hist_range builds the head hits 4a^2 - b^2 + 4a(c - a) in int32
    # on two bands of b: 1 <= b <= a // 2 on the columns 0 <= c - a <
    # ceil((a // 2)^2 / 4a), the rest on 0 <= c - a < ceil(a/4).  No band
    # has more columns than ceil(a/4), so b = 1 on the last of those bounds
    # every value of both, here at the largest a the guard admits
    a = math.isqrt(fields.MAX_TABLE_LIMIT // 3)
    assert 4 * a * a - 1 + 4 * a * ((a + 3) // 4 - 1) < 5 * a * a < 2**31


def test_imaginary_comb_row_fits_the_buffer_at_the_table_guard():
    # an entry of a's comb row counts at most the a + 1 values of b, two for
    # each, less one for each of b = 0 and b = a: at most 2a, so one row fits
    # the empty buffer up to the largest a the guard admits
    a = math.isqrt(fields.MAX_TABLE_LIMIT // 3)
    assert 2 * a + 1 <= np.iinfo(fields._COMB_ACC).max


def test_squarefree_sieve_over_primes_equals_the_all_k_loop():
    def all_k(limit):
        sf = np.ones(limit + 1, dtype=bool)
        for k in range(2, math.isqrt(limit) + 1):
            sf[k * k :: k * k] = False
        return sf

    for limit in (*range(201), 4097, 10**6):
        assert np.array_equal(fields._squarefree_sieve(limit), all_k(limit)), limit


def test_kronecker_hurwitz_class_number_relation():
    # sum over s^2 <= 4n of H(4n - s^2) = 2 sigma(n) - sum over d | n of
    # min(d, n/d), for every n <= N, with the Hurwitz class number
    # 12 H(m) = 12 count(m) - 6 [m = 4k^2] - 8 [m = 3k^2] and 12 H(0) = -1:
    # it checks the form count at every m <= 4N, fundamental or not
    N = 300_000  # about 0.8 s on 2 cores; the sum over s costs N^1.5
    h12 = 12 * imaginary_class_number_histogram(4 * N).astype(np.int64)
    k = np.arange(1, math.isqrt(4 * N // 3) + 1)
    h12[2 * k[k * k <= N] ** 2] -= 6  # m = 4k^2 sits at 2k^2
    h12[3 * k * k >> 1] -= 8
    h12[0] = -1
    lhs = np.zeros(N + 1, dtype=np.int64)
    for s in range(math.isqrt(4 * N) + 1):
        lo = (s * s + 3) // 4  # the least n with s^2 <= 4n
        # (4n - s^2) // 2 = 2n - ceil(s^2 / 2): one strided slice per s
        terms = h12[2 * lo - (s * s + 1) // 2 :: 2][: N + 1 - lo]
        lhs[lo:] += terms if s == 0 else 2 * terms
    sigma = np.zeros(N + 1, dtype=np.int64)
    mins = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, math.isqrt(N) + 1):  # the divisor pairs d <= n/d = q
        q = np.arange(d, N // d + 1)
        sigma[d * q] += d + q
        mins[d * q] += 2 * d
        sigma[d * d] -= d
        mins[d * d] -= d
    assert np.array_equal(lhs[1:], 12 * (2 * sigma - mins)[1:])


def test_imaginary_analytic_is_exact_integer():
    rng = random.Random(43)
    mags = fundamental_magnitudes(-1, 3000)
    for n in rng.sample([int(v) for v in mags], 25):
        val = analytic_class_number_imaginary(-n)
        assert val.denominator == 1
        assert int(val) == class_number_imaginary(-n)


def test_regulator_frozen_values():
    assert regulator_real(5) == pytest.approx(0.4812118250596034, rel=1e-12)
    assert regulator_real(8) == pytest.approx(0.8813735870195430, rel=1e-12)
    assert regulator_real(12) == pytest.approx(1.3169578969248166, rel=1e-12)


def test_isqrt_array_is_exact_below_2_53():
    # near 2^53 the float root of k^2 - 1 rounds up to k
    ks = [1, 2, 3, 1000, 2**26 - 1, 2**26, 94906265]
    ns = np.array([k * k + e for k in ks for e in (-1, 0, 1) if 0 <= k * k + e < 2**53])
    assert _isqrt_array(ns).tolist() == [math.isqrt(n) for n in ns.tolist()]


def test_lockstep_regulators_match_scalar_oracle():
    mags = fundamental_magnitudes(1, 20000)
    reg = DiscriminantTable._regulators(mags)
    for d, r in zip(mags.tolist(), reg.tolist()):
        assert r == pytest.approx(regulator_real(d), rel=1e-13), d
    # period-1 discriminants retire on their first step
    assert [len(_surd_cycle(d)) for d in (5, 8, 13)] == [1, 1, 1]
    short = DiscriminantTable._regulators(np.array([5, 8, 12, 13]))
    assert short[:3] == pytest.approx(
        [0.4812118250596034, 0.8813735870195430, 1.3169578969248166], rel=1e-12
    )
    assert short[3] == pytest.approx(math.log((3 + math.sqrt(13)) / 2), rel=1e-13)
    with pytest.raises(ValueError):
        DiscriminantTable._regulators(np.array([5, 16]))  # square


@pytest.mark.parametrize(
    "period, ds",
    [(1, [5, 8, 13, 229]), (2, [12, 21, 60]), (3, [61]), (4, [28, 136]), (20, [4728]), (45, [1993])],
)
def test_lockstep_regulators_on_named_period_shapes(period, ds):
    # the half walk stops on P for even periods, on Q for odd ones and on
    # both for period 1; every shape against the full-cycle scalar sum
    assert [len(_surd_cycle(d)) for d in ds] == [period] * len(ds)
    reg = DiscriminantTable._regulators(np.array(ds))
    for d, r in zip(ds, reg.tolist()):
        assert r == pytest.approx(regulator_real(d), rel=1e-13), d


def test_principal_cycle_p_sequence_is_a_palindrome():
    # _regulators walks half the cycle on the strength of this
    for d in fundamental_magnitudes(1, 20000).tolist():
        P = (d % 2 + math.isqrt(d)) // 2 * 2 - d % 2  # one step past (d mod 2, 2)
        cycle = _surd_cycle(d)
        k = cycle.index((P, (d - P * P) // 2))
        ps = [p for p, _ in cycle[k:] + cycle[:k]]
        assert ps == ps[::-1], d


def test_fundamental_unit_and_regulator_agree():
    rng = random.Random(47)
    mags = fundamental_magnitudes(1, 5000)
    for d in rng.sample([int(v) for v in mags], 40):
        t, u = fundamental_unit_exact(d)
        assert t > 0 and u > 0
        assert t * t - d * u * u in (4, -4)
        eps = (t + u * math.sqrt(d)) / 2
        assert math.log(eps) == pytest.approx(regulator_real(d), rel=1e-9)


def test_real_class_numbers_frozen():
    # classical values; 4728 has a norm +1 unit so narrow cycles pair up
    expected = {5: 1, 8: 1, 12: 1, 40: 2, 60: 2, 136: 2, 229: 3, 257: 3, 4728: 2}
    for d, h in expected.items():
        assert class_number_real(d) == h, d
    assert reduction_cycle_count(4728) == 4
    assert reduction_cycle_count(40) == 2


def test_real_hr_three_routes_agree():
    rng = random.Random(53)
    mags = fundamental_magnitudes(1, 4000)
    for d in rng.sample([int(v) for v in mags], 25):
        direct = hr_real(d)
        assert direct == pytest.approx(class_number_real(d) * regulator_real(d), rel=1e-9)
        assert direct == pytest.approx(analytic_hr_real(d), rel=1e-9)


def test_real_histogram_matches_per_d():
    mags = fundamental_magnitudes(1, 3000).tolist()
    expected = [hr_real(d) for d in mags]
    for workers in (1, 2):
        hist = real_hr_histogram(3000, workers)
        for d, hr in zip(mags, expected):
            assert hist[d] == pytest.approx(hr, rel=1e-12), (workers, d)
        assert hist[40] == pytest.approx(3.6368929184641347, rel=1e-9)


def _paired_per_ac_loop(limit):
    # one log per pair (a, b, -c), (c, b, -a) with a <= c, half of it at
    # c = a; the same expression and order as _real_hr_range
    ref = np.zeros(limit + 1)
    smax = math.isqrt(limit)
    for a in range(1, smax):
        for c in range(a, smax - a + 1):
            if 4 * a * c >= limit:
                break
            bs = np.arange(c - a + 1, math.isqrt(limit - 4 * a * c) + 1)
            ds = bs * bs + 4 * a * c
            w = np.log((np.sqrt(ds) + bs) ** 2 / (4 * a * c))
            if c == a:
                w *= 0.5
            ref[ds] += w
    return ref


def _unpaired_per_ac_loop(limit):
    # one log((b + sqrt(D))/(2c)) per reduced form (a, b, -c), a > 0
    ref = np.zeros(limit + 1)
    smax = math.isqrt(limit)
    for a in range(1, smax):
        for c in range(1, smax - a + 1):
            if 4 * a * c >= limit:
                break
            bs = np.arange(abs(a - c) + 1, math.isqrt(limit - 4 * a * c) + 1)
            ds = bs * bs + 4 * a * c
            ref[ds] += np.log((bs + np.sqrt(ds.astype(np.float64))) / (2.0 * c))
    return ref


def test_real_histogram_equals_the_per_ac_loop(monkeypatch):
    # the paired per-(a, c) loop adds each D's logs in the same order, so
    # the histogram is equal, not just close, whatever the block size
    for limit in (5000, 4097, 100, 8, 5):
        ref = _paired_per_ac_loop(limit)
        assert np.array_equal(real_hr_histogram(limit), ref), limit
        for block in (1, 7, 100):
            monkeypatch.setattr(fields, "_PAIR_BLOCK", block)
            assert np.array_equal(real_hr_histogram(limit), ref), (limit, block)
        monkeypatch.undo()
        # pairing reorders the sum: the one-log-per-form loop has the same
        # support and agrees to rounding
        unpaired = _unpaired_per_ac_loop(limit)
        nz = unpaired != 0
        assert np.array_equal(ref != 0, nz), limit
        assert np.all(np.abs(ref[nz] - unpaired[nz]) <= 1e-13 * unpaired[nz]), limit


def test_local_type_spot_values():
    assert local_type_label(-4, 2) == "ram:-1"
    assert local_type_label(-20, 2) == "ram:-5"
    assert local_type_label(8, 2) == "ram:2"
    assert local_type_label(-8, 2) == "ram:-2"
    assert local_type_label(40, 2) == "ram:10"
    assert local_type_label(-40, 2) == "ram:-10"
    assert local_type_label(-23, 2) == "split"
    assert local_type_label(-3, 2) == "unram"
    assert local_type_label(12, 3) == "ram:3"
    assert local_type_label(-3, 3) == "ram:6"
    assert local_type_label(-4, 5) == "split"
    assert local_type_label(-3, 5) == "unram"
    assert local_type(5, 5).kind == "ramified"
    assert local_type(-23, 3).kind == "split"


def test_local_type_agrees_with_discriminant_arithmetic():
    # split iff the form of the type splits: chi(d) = 1; ramified iff p | d
    rng = random.Random(61)
    from quadmean.residue import kronecker

    pool = [int(v) * s for s in (-1, 1) for v in fundamental_magnitudes(1 if s > 0 else -1, 3000)]
    for d in rng.sample(pool, 200):
        for p in TRACKED_PRIMES:
            kind = local_type(d, p).kind
            k = kronecker(d, p)
            assert kind == {1: "split", -1: "unramified", 0: "ramified"}[k]


def test_vectorized_codes_match_scalar():
    for sign in (-1, 1):
        ds = sign * fundamental_magnitudes(sign, 2 * 10**4)
        for p in TRACKED_PRIMES:
            labels = [type_labels(p)[k] for k in local_type_codes(ds, p)]
            assert labels == [local_type_label(int(d), p) for d in ds]


def test_table_compute_columns():
    t = DiscriminantTable.compute(-1, 500)
    assert t.sign == -1 and t.limit == 500
    assert np.all(np.diff(t.magnitude) > 0)
    assert np.all(t.reg == 1.0)
    i = int(np.nonzero(t.magnitude == 23)[0][0])
    assert t.h[i] == 3
    assert t.h[i] * t.reg[i] == 3.0

    t = DiscriminantTable.compute(1, 500)
    i = int(np.nonzero(t.magnitude == 40)[0][0])
    assert t.h[i] == 2
    assert t.reg[i] == pytest.approx(regulator_real(40), rel=1e-12)


def test_table_roundtrip(tmp_path):
    path = str(tmp_path / "t.csv")
    for sign in (-1, 1):
        t = DiscriminantTable.compute(sign, 800)
        t.save(path)
        u = DiscriminantTable.load(path)
        assert u.sign == t.sign and u.limit == t.limit
        assert np.array_equal(u.magnitude, t.magnitude)
        assert np.array_equal(u.h, t.h)
        assert np.array_equal(u.reg, t.reg)


def test_table_truncation():
    t = DiscriminantTable.compute(-1, 1000)
    s = t.truncated(400)
    assert s.limit == 400
    assert s.magnitude.max() <= 400
    assert np.array_equal(s.h, t.h[t.magnitude <= 400])
    with pytest.raises(ValueError):
        s.truncated(500)


def test_cached_table(tmp_path):
    path = str(tmp_path / "cache.csv")
    t1 = cached_table(-1, 600, path)
    assert os.path.exists(path)
    stamp = os.path.getmtime(path)
    t2 = cached_table(-1, 300, path)
    assert t2.limit == 300 and t2.magnitude.max() <= 300
    assert os.path.getmtime(path) == stamp  # served from cache, not rewritten
    t3 = cached_table(-1, 900, path)  # too small: recomputed and resaved
    assert t3.limit == 900
    assert DiscriminantTable.load(path).limit == 900
    assert np.array_equal(
        t3.h[t3.magnitude <= 600], t1.h
    )


def test_cached_table_rebuilds_a_wrong_sign_cache(tmp_path):
    path = str(tmp_path / "cache.csv")
    DiscriminantTable.compute(-1, 600).save(path)
    t = cached_table(1, 600, path)
    assert t.sign == 1 and t.limit == 600
    assert np.array_equal(t.magnitude, fundamental_magnitudes(1, 600))
    assert DiscriminantTable.load(path).sign == 1


def test_integrality_guard_names_the_discriminant(monkeypatch):
    real = fields.real_hr_histogram

    def damaged(limit, workers=1):
        hist = real(limit, workers)
        hist[1993] += 0.3 * regulator_real(1993)
        return hist

    monkeypatch.setattr(fields, "real_hr_histogram", damaged)
    with pytest.raises(ArithmeticError, match=r"D=1993\b"):
        DiscriminantTable.compute(1, 2000)


def test_interrupted_save_keeps_the_old_cache(tmp_path, monkeypatch):
    path = str(tmp_path / "cache.csv")
    DiscriminantTable.compute(-1, 300).save(path)
    with open(path, "rb") as f:
        before = f.read()
    write_array = np.lib.format.write_array
    written = []

    def fail_after_first(*args, **kwargs):
        if written:
            raise OSError("disk full")
        write_array(*args, **kwargs)
        written.append(args[1].shape)

    monkeypatch.setattr(np.lib.format, "write_array", fail_after_first)
    with pytest.raises(OSError):
        DiscriminantTable.compute(-1, 600).save(path)
    with open(path, "rb") as f:
        assert f.read() == before
    assert os.listdir(tmp_path) == ["cache.csv"]


def test_cached_table_rejects_foreign_file(tmp_path):
    path = str(tmp_path / "bogus.csv")
    with open(path, "w") as f:
        f.write("D,h\n-3,1\n")
    with pytest.raises(ValueError):
        DiscriminantTable.load(path)
    with open(path, "wb") as f:
        np.save(f, np.arange(3))  # one array, not an archive
    with pytest.raises(ValueError):
        DiscriminantTable.load(path)


def test_load_rejects_a_non_positive_real_regulator(tmp_path):
    path = str(tmp_path / "pos.csv")
    t = DiscriminantTable.compute(1, 300)
    t.reg[3] = 0.0
    t.save(path)
    with pytest.raises(ValueError, match="regulator out of range"):
        DiscriminantTable.load(path)


def test_worker_paths_agree_with_serial():
    a = DiscriminantTable.compute(-1, 3000, workers=1)
    b = DiscriminantTable.compute(-1, 3000, workers=2)
    assert np.array_equal(a.h, b.h)
    c = DiscriminantTable.compute(1, 2000, workers=1)
    d = DiscriminantTable.compute(1, 2000, workers=3)
    assert np.array_equal(c.h, d.h)
    assert np.array_equal(c.reg, d.reg)


def test_oracle_input_validation():
    with pytest.raises(ValueError):
        class_number_imaginary(5)
    with pytest.raises(ValueError):
        class_number_imaginary(-12)  # not fundamental
    with pytest.raises(ValueError):
        class_number_real(-5)
    with pytest.raises(ValueError):
        regulator_real(16)  # square
