"""Discriminant tables, class numbers, regulators, local fingerprints."""

import math
import os
import random
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    algebra,
    analytic_class_number_imaginary,
    analytic_hr_real,
    class_number_imaginary,
    class_number_real,
    fundamental_unit_exact,
    hr_real,
    is_fundamental,
    kronecker,
    local_type,
    reduction_cycle_count,
    regulator_real,
    _reduced_indefinite_forms,
    _surd_cycle,
)
from quadmean import fields
from quadmean.fields import (
    DiscriminantTable,
    TRACKED_PRIMES,
    TYPE_CELLS,
    TYPE_MODULUS,
    cached_table,
    cell_sums,
    fundamental_magnitudes,
    imaginary_class_number_histogram,
    local_type_codes,
    real_hr_histogram,
)
from quadmean.orbits import ALG_SPLIT, local_algebras, standard_representatives
from quadmean.residue import disc_valuation, square_class_labels


def _isqrt_array(n):
    """math.isqrt of every entry of an integer array, as int64."""
    return np.array([math.isqrt(v) for v in n.tolist()], dtype=np.int64)


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


def _per_ab_loop(limit):
    # the reference: one strided add per (a, b), n = 4ac - b^2 from c = a on
    hist = np.zeros(limit + 1, dtype=np.int64)
    amax = math.isqrt(limit // 3)
    for a in range(1, amax + 1):
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


# every offset of the last chain members a = m, 2m, 4m, ... from the end
# below 200
_CHAIN_LIMITS = tuple(range(200)) + (1000, 4321, 20000) + tuple(10**5 + k for k in range(4))


def test_imaginary_histogram_equals_the_per_ab_loop():
    # at 1000 the chain 1, 2, 4, 8, 16 has 16 <= amax = 18, but 2 * 16^2 past
    # the 501 entries, so its last member starts past the end
    assert 16 <= math.isqrt(1000 // 3) and 2 * 16**2 >= 1000 // 4 + 1001 // 4 + 1
    for limit in _PER_AB_LIMITS + _CHAIN_LIMITS:
        full = _per_ab_loop(limit)
        n = np.arange(limit + 1)
        kept = (n % 4 == 0) | (n % 4 == 3)
        # the premise of the layout: 4ac - b^2 is never 1 or 2 mod 4
        assert not full[~kept].any(), limit
        hist = imaginary_class_number_histogram(limit)
        assert hist.size == limit // 2 + 1, limit
        assert np.array_equal(hist, _halved(full)), limit


def test_imaginary_histogram_flushes_a_narrow_buffer_exactly(monkeypatch):
    # the comb buffer is charged the sum of the members' row tops once per
    # chain; an int8 one holds the charges only up to 127, so the kernel
    # must flush it into the histogram and empty it mid-loop.  At 20000 and
    # 10^5 every chain's charge fits int8 and together they pass 127: the
    # buffer is flushed mid-loop 2 and 7 times (the int16 buffer first
    # flushes above 3 * 10^7)
    monkeypatch.setattr(fields, "_COMB_ACC", np.int8)
    for limit in (20000, 10**5):
        live_size = limit // 4 + (limit + 1) // 4 + 1
        amax = math.isqrt(limit // 3)
        charges = []
        for m in range(1, amax + 1, 2):
            chain = [m << k for k in range((amax // m).bit_length()) if 2 * (m << k) ** 2 < live_size]
            charges.append(sum(int(fields._imag_comb(a).max()) for a in chain))
        assert max(charges) <= 127 < sum(charges), limit
    for limit in _PER_AB_LIMITS + _CHAIN_LIMITS:
        hist = imaginary_class_number_histogram(limit)
        assert hist.dtype == np.int32
        assert np.array_equal(hist, _halved(_per_ab_loop(limit))), limit


def test_comb_buffer_is_charged_up_to_exactly_its_maximum(monkeypatch):
    # with a comb of ones for every a, each entry of the buffer is charged
    # exactly the sum of its chains' row tops, one per member it has passed:
    # an int8 buffer then holds 127 at some entries between flushes, and a
    # flush threshold one past the room left would wrap them (first at
    # 65,803 of these limits).  live[i] counts the a <= amax with 2a^2 <= i
    monkeypatch.setattr(fields, "_COMB_ACC", np.int8)
    monkeypatch.setattr(fields, "_imag_comb", lambda a: np.ones(2 * a, dtype=np.int64))
    for limit in range(1, 200_001, 997):
        live = np.zeros(limit // 4 + (limit + 1) // 4 + 1, dtype=np.int32)
        amax = math.isqrt(limit // 3)
        fields._add_imag_combs(live, amax)
        a = np.arange(1, amax + 1)
        want = np.searchsorted(2 * a * a, np.arange(live.size), side="right")
        assert np.array_equal(live, want), limit


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
    # _add_head_by_hit_count sets up the rows (a, b) of a block of a in
    # int32: b^2 <= a^2, 4a^2, limit - 4a^2 and b^2 + limit - 4a^2 stay below
    # 2^31, and so does the first index (4a^2 - b^2) // 2 and every later
    # current index, a hit of the row's a, below 2a^2 in n // 2, here at the
    # largest a the guard admits.  A block's running row count, the cumsum
    # of its a, stays below _BLOCK plus its last a.  A row's hit count
    # k <= ceil(b^2 / 4a) <= ceil(a / 4) and its key -k are int16
    limit = fields.MAX_TABLE_LIMIT
    a = math.isqrt(limit // 3)
    assert 4 * a * a < 2**31 and a * a + limit < 2**31
    assert fields._BLOCK + a < 2**31
    assert -(-a // 4) == 1444 <= np.iinfo(np.int16).max
    # at 20000 every a meets the bound at b = a, unless the limit cuts its head
    for a in range(1, math.isqrt(20000 // 3) + 1):
        k = max(min(-(-b * b // (4 * a)), (20000 - 4 * a * a + b * b) // (4 * a) + 1)
                for b in range(1, a + 1))
        assert k <= -(-a // 4) and (k == -(-a // 4) or 4 * a * a > 20000), a


@pytest.mark.parametrize("block", [1, 2**30])
def test_imaginary_head_does_not_depend_on_the_block(monkeypatch, block):
    # one a per block (each a adds at least one row to the block's count),
    # or a single block
    monkeypatch.setattr(fields, "_BLOCK", block)
    for limit in _PER_AB_LIMITS:
        hist = imaginary_class_number_histogram(limit)
        assert np.array_equal(hist, _halved(_per_ab_loop(limit))), limit


class _AddAtRecorder:
    """numpy as a module sees it, with the indices and weight of every
    np.add.at call recorded in calls; np.add itself is not callable."""

    def __init__(self):
        self.calls = []
        self.add = SimpleNamespace(at=self._at)

    def _at(self, target, index, weight):
        self.calls.append((index.copy(), np.array(weight, copy=True)))
        np.add.at(target, index, weight)

    def __getattr__(self, name):
        return getattr(np, name)


def test_imaginary_head_adds_one_np_add_at_per_hit_count(monkeypatch):
    # a head block makes one np.add.at per hit count j < max k, over the rows
    # (a, b) with more than j hits, never one per row: weight 1 at j = 0,
    # then 2, or 1 on the rows b = a.  Every index is a hit of its row, below
    # 2a^2 for the block's last a
    recorder, blocks = _AddAtRecorder(), []
    head = fields._add_head_by_hit_count

    def block(live, a, limit):
        before = len(recorder.calls)
        head(live, a, limit)
        blocks.append((a.tolist(), recorder.calls[before:]))

    monkeypatch.setattr(fields, "np", recorder)
    monkeypatch.setattr(fields, "_add_head_by_hit_count", block)
    monkeypatch.setattr(fields, "_BLOCK", 1000)
    limit = 20000
    assert np.array_equal(imaginary_class_number_histogram(limit), _halved(_per_ab_loop(limit)))
    assert len(blocks) > 1 and [a for a, _ in blocks][-1][-1] == math.isqrt(limit // 3)
    for a_block, calls in blocks:
        rows = [
            (a, b, max(0, min(-(-b * b // (4 * a)), (limit - 4 * a * a + b * b) // (4 * a) + 1)))
            for a in a_block for b in range(1, a + 1)
        ]
        kmax = max(k for _, _, k in rows)
        assert len(calls) == kmax < len(rows), a_block
        for j, (index, weight) in enumerate(calls):
            hits = sorted(
                ((4 * a * a - b * b + 4 * a * j) >> 1, 1 if j == 0 or b == a else 2)
                for a, b, k in rows if k > j
            )
            weight = np.broadcast_to(weight, index.shape)
            assert sorted(zip(index.tolist(), weight.tolist())) == hits, (a_block, j)
            assert index.max() < 2 * a_block[-1] ** 2


def test_chained_combs_tile_no_row(monkeypatch):
    # the chain rows are made by broadcast adds in the buffer's dtype; the
    # reference is computed before np.tile is counted
    limits = (20000, 10**5)
    refs = [_halved(_per_ab_loop(limit)) for limit in limits]
    tiles = []
    monkeypatch.setattr(np, "tile", lambda *args, **kwargs: tiles.append(args))
    for limit, ref in zip(limits, refs):
        assert np.array_equal(imaginary_class_number_histogram(limit), ref), limit
    assert tiles == []


def test_imaginary_comb_row_fits_the_buffer_at_the_table_guard():
    # an entry of a's comb row counts at most the a + 1 values of b, two for
    # each, so an entry of a chain row a = m, 2m, 4m, ... is at most the sum
    # of 2(a + 1) over the chain: one chain row fits the empty buffer up to
    # the largest a the guard admits
    amax = math.isqrt(fields.MAX_TABLE_LIMIT // 3)
    for m in range(1, amax + 1, 2):
        chain = [m << k for k in range((amax // m).bit_length())]
        assert chain[-1] <= amax < 2 * chain[-1]
        assert sum(2 * (a + 1) for a in chain) < 4 * amax + 30 == 23122
    assert 4 * amax + 30 <= np.iinfo(fields._COMB_ACC).max
    for a in range(1, 200):
        assert int(fields._imag_comb(a).max()) <= 2 * a


def _chain_ends(live_size, amax):
    # (end, members) of each chain m, 2m, 4m, ... whose members start inside
    # live: its last member a adds whole periods of 2a from 2a^2 on, up to
    # the first multiple of 2a at or past the end of live
    amax = min(amax, math.isqrt((live_size - 1) // 2))
    ends = []
    for m in range(1, amax + 1, 2):
        a = m << ((amax // m).bit_length() - 1)
        ends.append((-(-live_size // (2 * a)) * 2 * a, (amax // m).bit_length()))
    return ends


def test_imaginary_comb_segments_end_in_the_spare_entries(monkeypatch):
    # with a comb of ones for every a, spare entry i >= live.size of the
    # buffer counts the members of every chain whose last segment runs past
    # i, and none of them reaches live.  Every chain's last segment covers
    # live and ends within live.size + 2 amax, also at the table guard
    zeros, made = np.zeros, []
    monkeypatch.setattr(np, "zeros", lambda *args, **kwargs: made.append(zeros(*args, **kwargs)) or made[-1])
    monkeypatch.setattr(fields, "_imag_comb", lambda a: np.ones(2 * a, dtype=np.int64))
    for limit in _CHAIN_LIMITS + (10**6,):
        live = zeros(limit // 4 + (limit + 1) // 4 + 1, dtype=np.int32)
        amax = math.isqrt(limit // 3)
        made.clear()
        fields._add_imag_combs(live, amax)
        [acc] = made
        ends = _chain_ends(live.size, amax)
        assert all(live.size <= end <= acc.size <= live.size + 2 * amax for end, _ in ends), limit
        spare = zeros(acc.size - live.size, dtype=np.int64)
        for end, members in ends:
            spare[: end - live.size] += members
        assert np.array_equal(acc[live.size :], spare), limit
        a = np.arange(1, amax + 1)
        assert np.array_equal(live, np.searchsorted(2 * a * a, np.arange(live.size), side="right")), limit
    live_size = fields.MAX_TABLE_LIMIT // 4 + (fields.MAX_TABLE_LIMIT + 1) // 4 + 1
    amax = math.isqrt(fields.MAX_TABLE_LIMIT // 3)
    ends = _chain_ends(live_size, amax)
    assert ends and all(live_size <= end <= live_size + 2 * amax for end, _ in ends)


def test_squarefree_sieve_over_primes_equals_the_all_k_loop():
    def all_k(limit):
        sf = np.ones(limit + 1, dtype=bool)
        for k in range(2, math.isqrt(limit) + 1):
            sf[k * k :: k * k] = False
        return sf

    for limit in (*range(201), 4097, 10**6):
        assert np.array_equal(fields._squarefree_sieve(limit), all_k(limit)), limit


def test_kronecker_hurwitz_class_number_relation():
    # with the Hurwitz class number 12 H(m) = 12 count(m) - 6 [m = 4k^2]
    # - 8 [m = 3k^2] and 12 H(0) = -1, for every n <= N:
    #   sum over t^2 <= 4n of H(4n - t^2) = 2 sigma(n) - sum over d | n of min(d, n/d),
    #   sum over t^2 <= 4n of (t^2 - n) H(4n - t^2) = -sum over d | n of min(d, n/d)^3,
    # the Eichler-Selberg trace formula at weights 2 and 4, where no cusp
    # form of level 1 exists.  Equation n adds H(4n - 1) and H(4n) to those of
    # the n' < n, with coefficients (2, 1) and (2(1 - n), -n), whose
    # determinant is -2: the two together fix the form count at every
    # m <= 4N, fundamental or not, where the first alone lets the pair
    # (H(4n - 1), H(4n)) move by (1, -2)
    N = 300_000  # about 0.9 s on 2 cores; the sum over t costs N^1.5
    h12 = 12 * imaginary_class_number_histogram(4 * N).astype(np.int64)
    k = np.arange(1, math.isqrt(4 * N // 3) + 1)
    h12[2 * k[k * k <= N] ** 2] -= 6  # m = 4k^2 sits at 2k^2
    h12[3 * k * k >> 1] -= 8
    h12[0] = -1
    weight2, weight4 = np.zeros(N + 1, dtype=np.int64), np.zeros(N + 1, dtype=np.int64)
    for t in range(math.isqrt(4 * N) + 1):
        lo = (t * t + 3) // 4  # the least n with t^2 <= 4n
        # (4n - t^2) // 2 = 2n - ceil(t^2 / 2): one strided slice per t, +-t
        terms = h12[2 * lo - (t * t + 1) // 2 :: 2][: N + 1 - lo] * (2 if t else 1)
        weight2[lo:] += terms
        terms *= t * t
        weight4[lo:] += terms
    weight4 -= np.arange(N + 1) * weight2  # the sum of t^2 H, less n times the sum of H
    sigma = np.zeros(N + 1, dtype=np.int64)
    mins = np.zeros(N + 1, dtype=np.int64)
    cubes = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, math.isqrt(N) + 1):  # the divisor pairs d <= n/d = q
        q = np.arange(d, N // d + 1)
        sigma[d * q] += d + q
        mins[d * q] += 2 * d
        cubes[d * q] += 2 * d**3
        sigma[d * d] -= d
        mins[d * d] -= d
        cubes[d * d] -= d**3
    assert np.array_equal(weight2[1:], 12 * (2 * sigma - mins)[1:])
    assert np.array_equal(weight4[1:], -12 * cubes[1:])


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


def test_float_root_floor_is_exact_up_to_the_table_guard():
    # the real histogram takes isqrt(n) as the floor of the float root of
    # int64 n.  Both roots are monotone and isqrt steps only at squares, so
    # agreement at every k^2 - 1, k^2 and k^2 + 1 up to MAX_TABLE_LIMIT makes
    # them agree on every n up to it
    top = fields.MAX_TABLE_LIMIT
    k = np.arange(1, math.isqrt(top) + 2, dtype=np.int64)
    ns = (k * k)[:, None] + np.arange(-1, 2)
    ns = ns[ns <= top]
    assert ns.max() == top and ns.size == 3 * math.isqrt(top) - 1
    assert np.array_equal(np.floor(np.sqrt(ns)).astype(np.int64), _isqrt_array(ns))
    # the bound the argument needs: (isqrt(n) + 1)^2 < 2^52
    assert (math.isqrt(top) + 1) ** 2 < 2**52
    # it is not slack: near 2^53 the float root of k^2 - 1 rounds up to k
    big = np.array([94906265**2 - 1], dtype=np.int64)
    assert np.floor(np.sqrt(big))[0] == 94906265 != math.isqrt(int(big[0]))


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


def _int64_lockstep(mags):
    # the lockstep walk in int64 lanes with floor divisions, compacted at every step
    d, s = mags, _isqrt_array(mags)
    P = (d % 2 + s) // 2 * 2 - d % 2
    Q = (d - P * P) // 2
    sd = np.sqrt(d)
    lane, acc, reg = np.arange(d.size), np.zeros(d.size), np.zeros(d.size)
    while lane.size:
        acc += fields._log_squared_over(sd + P, d - P * P)
        Pn = (P + s) // Q * Q - P
        Qn = (d - Pn * Pn) // Q
        stop = (Pn == P) | (Qn == Q)
        done = np.flatnonzero(stop)
        r, even, odd = acc[done], Pn[done] == P[done], Qn[done] == Q[done]
        mid = done[odd & ~even]
        r[odd & ~even] += 0.5 * fields._log_squared_over(sd[mid] + Pn[mid], Q[mid] * Qn[mid])
        r[odd & even] *= 0.5
        reg[lane[done]] = r
        live = ~stop
        lane, acc, P, Q = lane[live], acc[live], Pn[live], Qn[live]
        d, s, sd = d[live], s[live], sd[live]
    return reg


def test_float_lanes_equal_the_int64_lockstep():
    # bit for bit: the float64 lanes take the same states as int64 ones, and
    # each lane sums the same terms in the same order however it is compacted
    mags = fundamental_magnitudes(1, 10**5)
    assert np.array_equal(DiscriminantTable._regulators(mags), _int64_lockstep(mags))
    # the named period shapes, shuffled: lanes stop out of order, and each stop
    # compacts the few live lanes into a new order
    ds = [5, 8, 13, 229, 12, 21, 60, 61, 28, 136, 4728, 1993] * 3
    random.Random(13).shuffle(ds)
    mix = np.array(ds, dtype=np.int64)
    assert np.array_equal(DiscriminantTable._regulators(mix), _int64_lockstep(mix))
    empty = DiscriminantTable._regulators(np.array([], dtype=np.int64))
    assert empty.dtype == np.float64 and empty.size == 0


def test_regulator_lanes_are_exact_in_float64_at_the_table_guard():
    # a reduced state (P + sqrt(d))/Q has 0 < P < sqrt(d) and 0 < Q < 2 sqrt(d);
    # at the largest d the guard admits, with s = isqrt(d) and sqrt(d) < s + 1:
    # P + s, Q, P^2, Q Q_{k+1} = d - P_{k+1}^2 and 4d stay integers below 2^53
    d = fields.MAX_TABLE_LIMIT
    s = math.isqrt(d)
    q = 2 * s + 1  # the largest Q
    assert max(2 * s, q, s * s, d, 4 * d) < 2**53
    # the quotient (P + s)/Q <= 2 sqrt(d) + 1 is rounded by at most that times
    # 2^-53, less than the distance 1/Q from a non-integral quotient to an integer
    assert Fraction(2 * (s + 1) + 1, 2**53) < Fraction(1, q)
    # sqrt(d) <= sqrt(k^2 + 2k) < k + 1 - 1/(2(k + 1)) for k = isqrt(d), and with
    # (k + 1)^2 < 2^52 its rounding (at most (k + 1) 2^-53) cannot reach k + 1:
    # the walk takes s as the floor of the float root
    assert (s + 1) ** 2 < 2**52
    ds = np.array([k * k + e for k in (s - 1, s) for e in (-1, 0, 1, 2 * k)], dtype=np.float64)
    assert np.floor(np.sqrt(ds)).tolist() == [math.isqrt(int(x)) for x in ds]


def test_regulator_walk_raises_past_its_step_bound(monkeypatch):
    # 1993 has period 45: its lane stops after 22 steps, the others after one
    ds = np.array([5, 12, 1993, 61])
    monkeypatch.setattr(fields, "_regulator_step_bound", lambda d: 21)
    with pytest.raises(ArithmeticError, match=r"D=1993\b.* 21 steps"):
        DiscriminantTable._regulators(ds)
    monkeypatch.setattr(fields, "_regulator_step_bound", lambda d: 22)
    assert np.array_equal(DiscriminantTable._regulators(ds), _int64_lockstep(ds))


def test_regulator_step_bound_covers_the_period():
    # the bound is on the period l, a full cycle, and grows with d
    ds = fundamental_magnitudes(1, 20000).tolist()
    periods = [len(_surd_cycle(d)) for d in ds]
    assert all(l <= fields._regulator_step_bound(d) for d, l in zip(ds, periods))
    assert max(periods) > 100
    bounds = [fields._regulator_step_bound(d) for d in (5, 100, 10**4, 10**6, 10**8)]
    assert bounds == sorted(bounds) and bounds[-1] < 2**20


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
    hist = real_hr_histogram(3000)
    for d in mags:
        assert hist[d] == pytest.approx(hr_real(d), rel=1e-12), d
    assert hist[40] == pytest.approx(3.6368929184641347, rel=1e-9)


def _paired_per_ac_loop(limit):
    # one log per pair (a, b, -c), (c, b, -a) with a <= c, half of it at
    # c = a, with each D's terms in (a, c) order
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


def _divisor_gaps(n):
    """The sorted |d - n/d| over every divisor d of n."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return np.sort([n // d - d for d in small] + [n // d - d for d in small if d * d != n])


def _kept_weights(n, limit):
    """The b with b^2 + 4n <= limit, M(n, b) > 0 and D = b^2 + 4n not 0 or 4
    mod 16, ascending, and 2 M(n, b) = #{d | n : |d - n/d| < b} at each."""
    bs = np.arange(1, math.isqrt(limit - 4 * n) + 1)
    m2 = np.searchsorted(_divisor_gaps(n), bs)
    kept = (m2 > 0) & ~np.isin((bs * bs + 4 * n) % 16, (0, 4))
    return bs[kept], m2[kept]


def _per_nb_loop(limit):
    # one log((b + sqrt(D))^2/(4n)) per kept (n, b), times M(n, b), for n
    # ascending: the expression and the order of real_hr_histogram
    ref = np.zeros(limit + 1)
    for n in range(1, (limit + 3) // 4):
        bs, m2 = _kept_weights(n, limit)
        ds = bs * bs + 4 * n
        ref[ds] += m2 / 2 * np.log((np.sqrt(ds) + bs) ** 2 / (4 * n))
    return ref


def _counted(calls, name, f):
    def counted(*args):
        calls[name] = calls.get(name, 0) + 1
        return f(*args)

    return counted


def test_real_histogram_equals_the_per_ac_loop(monkeypatch):
    # no form with D = 0 or 4 mod 16 is built, as no such D is fundamental:
    # the histogram is 0 there.  Elsewhere the per-(n, b) loop adds each D's
    # weighted logs in the same order, n ascending, so the histogram is equal
    # to it, not just close, whatever the block and group sizes
    # (every block is computed in the rows of one workspace: a block of 1
    # makes them as long as the longest progression, and a block of 2 * limit
    # forms, past the form count of every group of 1 or 40 pieces, takes each
    # group with a piece in one block; a group of 1 piece is mostly one n
    # wide, and the first group of 10^6 pieces, 125,000 n wide, takes them all)
    assert not np.isin(fundamental_magnitudes(1, 10**5) % 16, (0, 4)).any()
    sizes, calls = (fields._BLOCK, fields._PIECE_GROUP), {}
    real_pieces = fields._real_pieces

    def pieces(*args):  # counts the groups that have a piece
        out = real_pieces(*args)
        calls["groups"] = calls.get("groups", 0) + (out[0].size > 0)
        return out

    monkeypatch.setattr(fields, "_real_pieces", pieces)
    log = fields._log_squared_over  # once a block
    monkeypatch.setattr(fields, "_log_squared_over", _counted(calls, "blocks", log))
    for limit in (20000, 5000, 4097, 100, 8, 5):
        d = np.arange(limit + 1)
        skipped = (d % 16 == 0) | (d % 16 == 4)
        ref = _per_nb_loop(limit)
        hists = [real_hr_histogram(limit)]
        for block in (1, 7, 100, 2 * limit) if limit <= 5000 else (100, 2 * limit):
            for group in (1, 40, 10**6):
                monkeypatch.setattr(fields, "_BLOCK", block)
                monkeypatch.setattr(fields, "_PIECE_GROUP", group)
                calls.clear()
                hists.append(real_hr_histogram(limit))
                if block == 2 * limit and group < 10**6:
                    assert calls.get("blocks", 0) == calls.get("groups", 0), limit
        monkeypatch.setattr(fields, "_BLOCK", sizes[0])
        monkeypatch.setattr(fields, "_PIECE_GROUP", sizes[1])
        for hist in hists:
            assert np.array_equal(hist, ref), limit
            assert not hist[skipped].any(), limit
        # one log per (n, b) times its weight, where the paired per-(a, c)
        # loop adds one per pair, and the unpaired loop one per form: each
        # reorders the sum, and all three agree to rounding off D = 0, 4 mod 16
        paired = _paired_per_ac_loop(limit)
        if limit >= 100:
            assert paired[skipped].any(), limit
        unpaired = _unpaired_per_ac_loop(limit)
        nz = unpaired != 0
        assert np.array_equal(paired != 0, nz), limit
        assert np.array_equal(hists[0] != 0, nz & ~skipped), limit
        assert np.all(np.abs(paired[nz] - unpaired[nz]) <= 1e-13 * unpaired[nz]), limit
        kept = nz & ~skipped
        assert np.all(np.abs(hists[0][kept] - paired[kept]) <= 1e-13 * paired[kept]), limit


def _expanded(pieces):
    """n, b and 2 M(n, b) of every form of the pieces, as int64."""
    first, count, n4, weight = pieces
    j = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    b = np.repeat(first, count) + 4 * j
    return np.repeat(n4 // 4, count), b, np.repeat(2 * weight, count).astype(np.int64)


def test_piece_weights_count_the_divisor_gaps_below_b():
    # M(n, b) = #{d | n : |d - n/d| < b}/2, by brute force over the divisors,
    # at every n <= 3000 and every b with b^2 + 4n <= limit (b up to 3000),
    # for groups of 250 n: the pieces hold exactly the (n, b) with M > 0
    # whose D is not 0 or 4 mod 16, each once, with its M
    limit = 3000**2 + 4 * 3000
    for n0 in range(1, 3001, 250):
        n, b, m2 = _expanded(fields._real_pieces(n0, n0 + 250, limit))
        assert np.all(np.diff(n) >= 0)
        ends = np.searchsorted(n, np.arange(n0, n0 + 251))
        assert ends[-1] == n.size
        for k, lo, hi in zip(range(n0, n0 + 250), ends[:-1].tolist(), ends[1:].tolist()):
            bs, brute = _kept_weights(k, limit)
            at = lo + np.argsort(b[lo:hi])
            assert np.array_equal(b[at], bs) and np.array_equal(m2[at], brute), k


def test_real_kernel_fits_its_dtypes_at_the_table_guard():
    # by arithmetic and by the set-up of a few n at the guard: the real
    # histogram at MAX_TABLE_LIMIT itself is never run (0.8 GB, with the
    # regulator walk's 2.2 GB)
    top = fields.MAX_TABLE_LIMIT
    s = math.isqrt(top)
    nmax = (top + 3) // 4 - 1  # the last n, 4n < limit
    # int32 4n; b, the gaps, the counts and each piece's first b are at most
    # s + 3; the rows a + c <= s number below s^2 in all; a block's steps 4j
    # and first b less 4 per form before its piece stay within 4 size + s + 3
    size = max(fields._BLOCK, s // 4 + 1)
    assert max(4 * nmax, s * s, 4 * size + s + 3) < 2**31
    # b, 4n and D = b^2 + 4n <= limit are exact integers in float64
    assert top < 2**53
    # M(n, b) <= d(n)/2 <= sqrt(n): a multiple of 1/2 that float32 holds exactly
    halves = np.arange(2 * math.isqrt(nmax) + 3) / 2
    assert np.array_equal(halves.astype(np.float32).astype(np.float64), halves)
    # the most divisors of any n < MAX_TABLE_LIMIT / 4: 576, at 2^5 3^3 5^2 7 11 13
    rich = 21621600
    assert rich <= nmax and _divisor_gaps(rich).size == 576 <= 2 * math.isqrt(rich)
    most = {}
    for n in (rich, nmax):
        n_, b, m2 = _expanded(fields._real_pieces(n, n + 1, top))
        bs, brute = _kept_weights(n, top)
        order = np.argsort(b)
        assert (n_ == n).all() and np.array_equal(b[order], bs), n
        assert np.array_equal(m2[order], brute), n
        most[n] = int(m2.max(initial=0))
    # at the rich n, M reaches 28 (56 of its 576 divisors); the last n,
    # 4n = 10^8 - 4, has no reduced form
    assert most == {rich: 56, nmax: 0}


def test_real_histogram_at_p_squared_d_is_the_order_relation():
    # the entry at D p^2 is the complete sum over the order of conductor p:
    # h R of the order is hR(D)(p - chi_D(p)), and the imprimitive forms p
    # times those of D add hR(D), so hist[D p^2] = hist[D](1 + p - chi_D(p))
    # at every fundamental D, 46,921 rows for p = 3, 5, 7 up to 9 10^5.
    # The worst relative deviation reads 2.3e-15 (9.0e-15 with one log per
    # pair (a, c)); with weight 1 instead of 1/2 at a = c it reads 0.44
    limit = 9 * 10**5
    hist = real_hr_histogram(limit)
    worst, rows = 0.0, 0
    for p in (3, 5, 7):
        ds = fundamental_magnitudes(1, limit // (p * p)).tolist()
        factor = np.array([1 + p - kronecker(d, p) for d in ds])
        got, want = hist[np.array(ds) * p * p], hist[ds] * factor
        worst = max(worst, float(np.max(np.abs(got - want) / want)))
        rows += len(ds)
    assert rows == 46921
    assert worst <= 1e-12, worst


def test_local_type_spot_values():
    assert local_type(-4, 2).label == "ram:-1"
    assert local_type(-20, 2).label == "ram:-5"
    assert local_type(8, 2).label == "ram:2"
    assert local_type(-8, 2).label == "ram:-2"
    assert local_type(40, 2).label == "ram:10"
    assert local_type(-40, 2).label == "ram:-10"
    assert local_type(-23, 2).label == "split"
    assert local_type(-3, 2).label == "unram"
    assert local_type(12, 3).label == "ram:3"
    assert local_type(-3, 3).label == "ram:6"
    assert local_type(-4, 5).label == "split"
    assert local_type(-3, 5).label == "unram"
    assert local_type(5, 5).kind == "ramified"
    assert local_type(-23, 3).kind == "split"
    # non-fundamental d take the type of their square class
    assert str(local_type(-12, 2)) == "unramified(5)"
    assert str(local_type(20, 2)) == "unramified(5)"
    assert local_type(9, 3) == ALG_SPLIT
    assert local_type(-36, 2).label == "ram:-1"
    assert local_type(50, 5).label == "unram"


def test_local_type_agrees_with_discriminant_arithmetic():
    # for a fundamental D the type at p is split iff chi_D(p) = 1, unramified
    # iff chi_D(p) = -1 and ramified iff p | D: the Kronecker symbol checks
    # the square-class classifier at every D up to 2 * 10^4, both signs
    kinds = {1: "split", -1: "unramified", 0: "ramified"}
    for sign in (-1, 1):
        for d in (sign * fundamental_magnitudes(sign, 2 * 10**4)).tolist():
            for p in (2, 3, 5, 7, 11):
                assert local_type(d, p).kind == kinds[kronecker(d, p)], (d, p)


def test_local_algebras_is_the_one_enumeration():
    # the representatives and the joint type codes read the one ordered list
    # of algebras at p; the condition labels are checked in test_meanvalue
    for p in (2, 3, 5, 7):
        assert [r.algebra for r in standard_representatives(p)] == local_algebras(p)
        # one algebra per square class, in the order of the one label list
        labels = [alg.square_class for alg in local_algebras(p)]
        assert labels == square_class_labels(p) and len(set(labels)) == len(labels)
        assert [alg.disc_valuation for alg in local_algebras(p)] == [
            disc_valuation(lab, p) for lab in labels
        ]
    assert local_algebras(2)[0] == ALG_SPLIT
    assert algebra(2, -1).disc_valuation == 2
    assert algebra(2, 2).disc_valuation == 3
    assert algebra(5, 10).disc_valuation == 1
    assert TYPE_CELLS == tuple(len(local_algebras(p)) for p in TRACKED_PRIMES) == (8, 4, 4)


def test_joint_codes_match_scalar_types_at_every_residue():
    # at every residue d = sign * r mod 64 * 9 * 25 (the imaginary codes are
    # read from |D| = r) whose reductions mod 64, 9 and 25 are all nonzero,
    # the joint code unravels to the scalar types of those reductions at 2,
    # 3 and 5.  Where also d is not 0 mod 16, as at every fundamental D, the
    # reductions decide the class: it is the type of D = sign * r itself
    assert TYPE_MODULUS == 14400
    moduli = (64, 9, 25)
    listed = [local_algebras(p) for p in TRACKED_PRIMES]
    types = [
        np.array([algebras.index(local_type(x, p)) if x else -1 for x in range(m)])
        for p, m, algebras in zip(TRACKED_PRIMES, moduli, listed)
    ]
    r = np.arange(TYPE_MODULUS)
    for sign in (-1, 1):
        d = sign * r % TYPE_MODULUS
        cells = np.unravel_index(local_type_codes(sign, r), TYPE_CELLS)
        nonzero = (d % 64 != 0) & (d % 9 != 0) & (d % 25 != 0)
        for c, t, m in zip(cells, types, moduli):
            assert np.array_equal(c[nonzero], t[d[nonzero] % m])
        for i in np.flatnonzero(nonzero & (d % 16 != 0)).tolist():
            got = [algebras[int(c[i])] for algebras, c in zip(listed, cells)]
            assert got == [local_type(sign * i, p) for p in TRACKED_PRIMES], sign * i


def test_vectorized_codes_match_scalar():
    for sign in (-1, 1):
        mags = fundamental_magnitudes(sign, 2 * 10**4)
        ds = (sign * mags).tolist()
        cells = np.unravel_index(local_type_codes(sign, mags), TYPE_CELLS)
        for p, codes in zip(TRACKED_PRIMES, cells):
            algebras = local_algebras(p)
            assert [algebras[k] for k in codes] == [local_type(d, p) for d in ds]
        # int64 input gives the same codes, and the input is reduced on a copy
        m64 = mags.astype(np.int64)
        assert np.array_equal(local_type_codes(sign, m64), local_type_codes(sign, mags))
        assert np.array_equal(m64, mags) and np.array_equal(sign * mags, ds)


def _fundamental_reference(sign, limit):
    """int64 |D| of the fundamental D = sign * n, n <= limit, in one pass:
    D = 1 mod 4 squarefree, or D = 4m with m = 2, 3 mod 4 squarefree."""
    n = np.arange(limit + 1)
    sf = np.ones(limit + 1, dtype=bool)
    for k in range(2, math.isqrt(limit) + 1):
        sf[k * k :: k * k] = False
    d = sign * n
    odd = (d % 4 == 1) & sf
    even = (n % 4 == 0) & np.isin(d // 4 % 4, (2, 3)) & sf[n // 4]
    return np.flatnonzero((odd | even) & (n > 1))


@pytest.mark.parametrize("sign", [-1, 1])
def test_blocked_passes_equal_a_one_shot_reference(sign):
    # the sieve is read block by block of fields._BLOCK entries: cut at and
    # around the edges; local_type_codes takes its rows whole, at each length
    block = fields._BLOCK
    cuts = (block - 1, block, block + 1, 3 * block + 7)
    for limit in (*cuts, 10**6):
        mags = fundamental_magnitudes(sign, limit)
        assert mags.dtype == np.int32
        assert np.array_equal(mags, _fundamental_reference(sign, limit)), limit
    codes = fields._TYPE_CODES[sign * mags.astype(np.int64) % TYPE_MODULUS]
    for rows in (*cuts, mags.size):
        assert np.array_equal(local_type_codes(sign, mags[:rows]), codes[:rows]), rows


@pytest.mark.parametrize("block", [1 << 16, 777])
@pytest.mark.parametrize("sign", [-1, 1])
def test_cell_sums_match_the_scalar_types(monkeypatch, sign, block):
    # each of the 128 cells against math.fsum over the rows up to the
    # checkpoint whose scalar types at 2, 3 and 5 give that code: exact on
    # the imaginary side, within n * 2^-53 of the exact sum of n positive
    # terms on the real side; at 2^16 rows a block (as at fields._BLOCK)
    # the whole table is one block, at 777 the walk crosses block edges
    # between the checkpoints
    monkeypatch.setattr(fields, "_BLOCK", block)
    t = DiscriminantTable.compute(sign, 2 * 10**4)
    checkpoints = sorted([20000, 37, 5000, 1, 19999, 8])
    ds = (sign * t.magnitude).tolist()
    codes = np.ravel_multi_index(
        [[local_algebras(p).index(local_type(d, p)) for d in ds] for p in TRACKED_PRIMES],
        TYPE_CELLS,
    )
    hr = (t.h * t.reg).tolist()
    got = cell_sums(t, checkpoints)
    assert got.shape == (len(checkpoints), math.prod(TYPE_CELLS)) == (6, 128)
    assert got.dtype == np.float64
    for row, x in zip(got, checkpoints):
        by_cell = [[] for _ in row]
        for v, d, c in zip(hr, ds, codes.tolist()):
            if abs(d) <= x:
                by_cell[c].append(v)
        for c, terms in enumerate(by_cell):
            exact = math.fsum(terms)
            if sign < 0:
                assert row[c] == exact, (x, c)
            else:
                assert abs(row[c] - exact) <= len(terms) * 2**-53 * exact, (x, c)
    # fewer checkpoints walk the same rows the same way, up to the last one
    assert np.array_equal(cell_sums(t, checkpoints[:-1]), got[:-1])
    assert cell_sums(t, []).shape == (0, 128)
    for bad in ([5000, 37], [20001]):
        with pytest.raises(ValueError, match="ascend up to the table bound"):
            cell_sums(t, bad)


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


def test_imaginary_table_gathers_h_in_blocks():
    # h is taken from the histogram _BLOCK rows at a time into one int32
    # column, with no full-length index |D| >> 1, and the head rows are set
    # up a block of about _BLOCK rows at a time: the build at 10^6 peaks at
    # 4.65 MB by tracemalloc, against 5.45 MB with hist[mags >> 1]
    limit = 10**6
    DiscriminantTable.compute(-1, limit)  # the first call allocates more, once
    tracemalloc.start()
    try:
        table = DiscriminantTable.compute(-1, limit)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 4.93
    assert len(table) > 4 * fields._BLOCK and table.h.dtype == np.int32
    hist = imaginary_class_number_histogram(limit)
    assert np.array_equal(table.h, hist[table.magnitude >> 1])


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
        assert np.array_equal(u.magnitude, fundamental_magnitudes(sign, 800))
        assert u.h.dtype == t.h.dtype == np.int32 and u.reg.dtype == np.float64


def test_cache_stores_the_header_and_h_and_only_a_real_r(tmp_path):
    # |D| is recomputed on load and R is 1 on the imaginary side, so neither is stored
    path = str(tmp_path / "t.npz")
    for sign, entries in ((-1, ["h", "limit", "sign", "version"]),
                          (1, ["h", "limit", "reg", "sign", "version"])):
        t = DiscriminantTable.compute(sign, 10**5)
        t.save(path)
        with np.load(path) as z:
            assert sorted(z.files) == entries
            assert all(z[k].dtype == np.int32 for k in ("version", "sign", "limit", "h"))
        stored = t.h.nbytes + (t.reg.nbytes if sign > 0 else 0)
        assert stored < os.path.getsize(path) < stored + 2000


def test_saved_entries_take_the_dtypes_and_shapes_of_the_cache_format(tmp_path):
    # save writes from _CACHE_ENTRIES, the table load checks against
    path = str(tmp_path / "t.npz")
    for sign in (-1, 1):
        t = DiscriminantTable.compute(sign, 10**4)
        t.save(path)
        with np.load(path) as z:
            stored = {key: (z[key].dtype, z[key].shape) for key in z.files}
        want = {
            key: (np.dtype(dtype), () if ndim == 0 else (len(t),))
            for key, (dtype, ndim) in fields._CACHE_ENTRIES.items()
            if sign > 0 or key != "reg"
        }
        assert stored == want, sign


def _resave(path, edit):
    with np.load(path) as z:
        entries = dict(z)
    edit(entries)
    with open(path, "wb") as f:
        np.savez(f, **entries)


def test_load_rejects_any_other_entry_set(tmp_path):
    path = str(tmp_path / "t.npz")
    for sign in (-1, 1):
        names = ["h", "reg"] if sign > 0 else ["h"]
        edits = [lambda e, k=k: e.pop(k) for k in names]
        edits.append(lambda e: e.update(magnitude=fundamental_magnitudes(sign, 500)))
        if sign < 0:
            edits.append(lambda e: e.update(reg=np.ones(e["h"].size)))
        for edit in edits:
            DiscriminantTable.compute(sign, 500).save(path)
            _resave(path, edit)
            with pytest.raises(ValueError, match="entries .* where a sign"):
                DiscriminantTable.load(path)


def test_class_numbers_fit_int32_up_to_the_table_guard():
    # imaginary h(-n) is a form count, at most (isqrt(n/3) + 1)^2 - 1; a real
    # h is at most the number of reduced forms (a, b, c) of D, fixed by the
    # sign of a and 0 < |a|, b < sqrt(D): at most 2D
    n = fields.MAX_TABLE_LIMIT
    assert (math.isqrt(n // 3) + 1) ** 2 - 1 < 3.4e7 < 2**31
    assert 2 * n < 2**31
    for sign in (-1, 1):
        t = DiscriminantTable.compute(sign, 5000)
        if sign > 0:
            forms = [len(_reduced_indefinite_forms(d)) for d in t.magnitude.tolist()]
            assert np.all(t.h <= np.array(forms))
        assert t.h.dtype == np.int32


def test_magnitudes_fit_int32_up_to_the_table_guard():
    # |D|, -|D|, the index |D| >> 1 into the imaginary histogram of
    # limit // 2 + 1 entries and every sieve index are at most the bound
    n = fields.MAX_TABLE_LIMIT
    assert n < 2**31 - 1
    top = np.array([n], dtype=np.int32)
    assert int((top >> 1)[0]) == n // 2
    assert int((-1 * top)[0]) == -n
    for sign in (-1, 1):
        mags = fundamental_magnitudes(sign, 5000)
        assert mags.dtype == (sign * mags).dtype == (mags >> 1).dtype == np.int32
        assert DiscriminantTable.compute(sign, 5000).magnitude.dtype == np.int32


def test_table_columns_carry_only_information(tmp_path):
    # the imaginary R is one read-only 1.0 seen with stride 0, computed or loaded
    path = str(tmp_path / "t.npz")
    for sign in (-1, 1):
        t = DiscriminantTable.compute(sign, 3000)
        t.save(path)
        u = DiscriminantTable.load(path)
        for table in (t, u):
            assert table.magnitude.dtype == table.h.dtype == np.int32
            assert table.reg.dtype == np.float64 and table.reg.size == len(table)
            if sign < 0:
                assert table.reg.strides == (0,) and not table.reg.flags.writeable
                assert np.all(table.reg == 1.0)
    neg = DiscriminantTable.compute(-1, 300)
    with pytest.raises(ValueError, match="read-only"):
        neg.reg[0] = 2.0


def test_cached_table(tmp_path):
    path = str(tmp_path / "cache.csv")
    t1 = cached_table(-1, 600, path)
    assert os.path.exists(path)
    stamp = os.path.getmtime(path)
    # served from the cache as it is, at its own limit, and not rewritten
    t2 = cached_table(-1, 300, path)
    assert t2.limit == 600 and np.array_equal(t2.magnitude, t1.magnitude)
    assert np.array_equal(t2.h, t1.h)
    assert os.path.getmtime(path) == stamp
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

    def damaged(limit):
        hist = real(limit)
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


@pytest.mark.parametrize(
    "at, value, loads",
    [
        (0, math.log((1 + math.sqrt(5)) / 2), True),  # D = 5: R is the lower bound itself
        (0, math.log((1 + math.sqrt(5)) / 2) * (1 - 1e-9), False),
        (3, math.inf, False),
        (3, math.nan, False),
        (3, 1e300, False),
        (3, -1.0, False),
        (-1, "upper", False),  # just past sqrt(D)(log D + 2)/2
        (3, "1%", True),  # off by 1%, inside both bounds: not caught
    ],
    ids=["D5-at-the-bound", "D5-below", "inf", "nan", "1e300", "negative", "past-the-upper-bound",
         "off-by-1pc"],
)
def test_load_checks_each_regulator_against_its_bounds(tmp_path, at, value, loads):
    path = str(tmp_path / "pos.npz")
    t = DiscriminantTable.compute(1, 300)
    assert t.magnitude[0] == 5
    d = int(t.magnitude[at])
    if value == "upper":
        value = math.sqrt(d) * (math.log(d) + 2) / 2 * (1 + 1e-12)
    elif value == "1%":
        value = float(t.reg[at]) * 1.01
    t.reg[at] = value
    t.save(path)
    if loads:
        assert DiscriminantTable.load(path).reg[at] == value
    else:
        with pytest.raises(ValueError, match=rf"regulator out of range at D={d}\b"):
            DiscriminantTable.load(path)


def test_oracle_input_validation():
    with pytest.raises(ValueError):
        class_number_imaginary(5)
    with pytest.raises(ValueError):
        class_number_imaginary(-12)  # not fundamental
    with pytest.raises(ValueError):
        class_number_real(-5)
    with pytest.raises(ValueError):
        regulator_real(16)  # square
