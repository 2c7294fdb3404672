"""Quadratic fields of Q: discriminants, class numbers, regulators.

Everything here is exact or reduces to sums of logarithms of exact
integer data.  Class numbers of imaginary fields come from counting
reduced positive forms into an int32 histogram, one periodic comb per
leading coefficient a; 4ac - b^2 is 0 or 3 mod 4, so the count at n is
stored at n // 2 and the histogram holds no entry that is always zero.
The comb rows are summed in an int16 buffer, added into the histogram
before it could overflow, and the few forms below the comb come from a
grid in two bands of b.
For real fields, h*R sums one log((sqrt(D) + b)^2/(4ac))
per pair of reduced indefinite forms (a, b, -c), (c, b, -a) with 0 < a <= c
(half of it when a = c); the regulators walk half of the palindromic
continued fraction cycle of the maximal order's generator with the same
kernel, in lockstep over all D; h is the (checked) integer ratio.
Per-field oracles and analytic character sums are the scalar cross-checks.
"""

from __future__ import annotations

import math
import os
import zipfile
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .orbits import (
    ALG_SPLIT,
    QuadraticAlgebraDescriptor,
    ramified_algebra,
    unramified_algebra,
)
from .residue import CapacityError, kronecker, ramified_labels, square_class

TRACKED_PRIMES = (2, 3, 5)


# ---------------------------------------------------------------------------
# fundamental discriminants
# ---------------------------------------------------------------------------

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


def _squarefree_sieve(limit: int) -> np.ndarray:
    """sf[n] is False exactly when p^2 divides n for a prime p (sf[0] stays True);
    the primes up to isqrt(limit) come from a small sieve of their own."""
    root = isqrt(limit)
    prime = np.ones(root + 1, dtype=bool)
    prime[:2] = False
    for k in range(2, isqrt(root) + 1):
        if prime[k]:
            prime[k * k :: k] = False
    sf = np.ones(limit + 1, dtype=bool)
    for p in np.flatnonzero(prime).tolist():
        sf[p * p :: p * p] = False
    return sf


def fundamental_magnitudes(sign: int, limit: int) -> np.ndarray:
    """Sorted |D| for fundamental discriminants D with sign(D)=sign, |D|<=limit."""
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")
    sf = _squarefree_sieve(limit)
    mask = np.zeros(limit + 1, dtype=bool)
    # odd |D|: squarefree with D = 1 mod 4; |D| = 4m: m squarefree with
    # D/4 = 2, 3 mod 4, i.e. m = r mod 4 and |D| = 4r mod 16
    odd, quarters = (3, (1, 2)) if sign < 0 else (1, (2, 3))
    mask[odd::4] = sf[odd::4]
    for r in quarters:
        even = mask[4 * r :: 16]
        even[:] = sf[r::4][: even.size]
    mask[1:2] = False  # D = 1 is not a field discriminant
    return np.flatnonzero(mask)


# ---------------------------------------------------------------------------
# local classification of a discriminant
# ---------------------------------------------------------------------------

def local_type(d: int, p: int) -> QuadraticAlgebraDescriptor:
    """Isomorphism type of the completion at p of the quadratic algebra of
    discriminant d."""
    k = kronecker(d, p)
    if k == 1:
        return ALG_SPLIT
    if k == -1:
        return unramified_algebra(p)
    return ramified_algebra(p, square_class(d, p).label)


def type_labels(p: int) -> list[str]:
    """Condition labels at p in code order: split, unram, then the
    ramified square classes."""
    return ["split", "unram"] + [f"ram:{lab}" for lab in ramified_labels(p)]


def local_type_label(d: int, p: int) -> str:
    alg = local_type(d, p)
    if alg.kind == "split":
        return "split"
    if alg.kind == "unramified":
        return "unram"
    return f"ram:{alg.square_class.label}"


# The type at p of a fundamental discriminant D is fixed by D mod
# _TYPE_MODULUS[p].  At odd p, v_p(D) <= 1 and the square class of the unit
# part is fixed mod p, so D mod p^2 decides.  At p = 2, v_2(D) is 0, 2 or 3
# and the square class of the unit part is fixed mod 8, so D mod 2^6
# decides.  Each table is the scalar classifier run once per residue;
# residues that no fundamental discriminant has stay 0.
_TYPE_MODULUS = {p: 2**6 if p == 2 else p * p for p in TRACKED_PRIMES}


def _is_fundamental_residue(r: int, p: int) -> bool:
    if p == 2:
        return r % 4 == 1 or r % 16 in (8, 12)
    return r % (p * p) != 0


_TYPE_CODES = {
    p: np.array(
        [type_labels(p).index(local_type_label(r, p)) if _is_fundamental_residue(r, p) else 0
         for r in range(m)],
        dtype=np.int8,
    )
    for p, m in _TYPE_MODULUS.items()
}


def local_type_codes(d: np.ndarray, p: int) -> np.ndarray:
    """Type codes at the tracked prime p for an array of fundamental
    discriminants: 0 = split, 1 = unram, 2+k = k-th ramified label."""
    return _TYPE_CODES[p][np.asarray(d, dtype=np.int64) % _TYPE_MODULUS[p]]


# ---------------------------------------------------------------------------
# imaginary class numbers
# ---------------------------------------------------------------------------

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


def _class_sum(fn, workers: int, *args):
    """Sum of fn(*args, offset, workers) over offset in range(workers), one
    worker process per offset; a direct call fn(*args, 0, 1) when
    workers <= 1.  Each call covers the share of the work selected by its
    offset mod workers, and the parts are added in offset order."""
    if workers <= 1:
        return fn(*args, 0, 1)
    # imported here: the pool's modules take about 2 MB, which no run with
    # the default single worker should carry
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as ex:
        parts = ex.map(fn, *([a] * workers for a in args), range(workers), [workers] * workers)
        total = next(parts)
        for part in parts:
            total += part
    return total


# Width of the tiled comb row in _imag_hist_range, in entries of the n // 2
# histogram: one in-place add covers a block of rows this wide.  The cost of
# the adds follows the bytes they touch, not the number of entries; widths
# from 512 to 4096 took the same time.
_COMB_ROW = 1024
# dtype of the buffer the comb rows are added into before they reach the
# int32 histogram: half the bytes of int32 per add.  Every entry of a row is
# at most 2a <= 2 * isqrt(MAX_TABLE_LIMIT // 3) < 2^15, so one row always fits.
_COMB_ACC = np.int16


def _imag_hist_range(limit: int, offset: int, stride: int) -> np.ndarray:
    """Reduced-form counts at every n <= limit for a = 1 + offset mod stride,
    stored at index n // 2.

    A reduced form (a, b, c), 0 <= b <= a <= c, lands at n = 4ac - b^2 =
    4a^2 - b^2 + 4a(c - a) with weight 2 (for +-b), or 1 when b = 0, b = a
    or c = a.  n = -b^2 mod 4 is 0 or 3 mod 4, and n // 2 maps 4k to 2k and
    4k + 3 to 2k + 1, so the limit // 2 + 1 entries have no holes; at
    limit = 2 mod 4 the last one stands for n = limit + 1 and stays 0.
    From n = 4a^2 on every b has started, so the count there is a comb of
    period 4a in n, whose residues 0 and 3 mod 4 make a comb of period 2a
    in n // 2, tiled from index 2a^2.  The combs are added into a _COMB_ACC
    buffer, which goes into the histogram whenever the sum of the row tops
    since it was last emptied could pass its maximum, and once at the end;
    the rows are non-negative, so no entry of the buffer can overflow.
    The head window [3a^2, 4a^2) is added hit by hit, on a (b, c - a) grid
    in two bands of b, since b needs only ceil(b^2 / 4a) columns."""
    hist = np.zeros(limit // 2 + 1, dtype=np.int32)
    live = hist[: limit // 4 + (limit + 1) // 4 + 1]  # n <= limit
    acc = np.zeros(live.size, dtype=_COMB_ACC)
    room = cap = int(np.iinfo(_COMB_ACC).max)
    for a in range(1 + offset, isqrt(limit // 3) + 1, stride):
        period, full = 4 * a, 2 * a * a  # full: index of n = 4a^2
        b = np.arange(a + 1, dtype=np.int32)
        comb = 2 * np.bincount(-b * b % period, minlength=period).astype(np.int32)
        comb[0] -= 1  # b = 0
        comb[-a * a % period] -= 1  # b = a
        comb = comb.reshape(a, 4)[:, [0, 3]].ravel()
        top = int(comb.max())
        if top > room:
            live += acc
            acc[:] = 0
            room = cap
        room -= top
        row = np.tile(comb.astype(_COMB_ACC), max(1, _COMB_ROW // (2 * a)))
        tail = acc[full:]
        rows = tail.size // row.size
        body = tail[: rows * row.size].reshape(rows, row.size)
        body += row
        tail[rows * row.size :] += row[: tail.size - rows * row.size]
        # head: 0 < b <= a at c - a < b^2 / 4a, where n < 4a^2, on the (b, c - a)
        # grid: ceil((a // 2)^2 / 4a) columns (about a / 16) for b <= a // 2 and
        # ceil(a / 4) for the rest; it stays below 5a^2 < 2^31 up to MAX_TABLE_LIMIT
        b = b[1:]
        first = 2 * full - b * b
        half = a // 2
        narrow = (half * half + period - 1) // period
        for band, cols in ((first[:half], narrow), (first[half:], (a + 3) // 4)):
            n = band[:, None] + period * np.arange(cols, dtype=np.int32)
            np.add.at(live, n[n < min(2 * full, limit + 1)] >> 1, np.int32(2))
        live[first[first <= limit] >> 1] -= 1  # c = a counts once
        live[(3 * a * a + period) // 2 : full : 2 * a] -= 1  # b = a, c > a counts once
    live += acc
    return hist


def imaginary_class_number_histogram(limit: int, workers: int = 1) -> np.ndarray:
    """int32 hist[n // 2] = h(-n) for every fundamental -n with n <= limit.

    The array has limit // 2 + 1 entries.  Every n = 4ac - b^2 is 0 or 3 mod
    4, and n // 2 maps those classes one to one onto all indices (at
    limit = 2 mod 4 the last entry stands for n = limit + 1 and is 0);
    entries at non-fundamental n are form counts without meaning for h."""
    return _class_sum(_imag_hist_range, workers, limit)


def analytic_class_number_imaginary(d: int) -> Fraction:
    """Character-sum evaluation of h(d), exact: -w * sum(a*chi(a)) / (2|d|)
    with w = 6, 4, 2 for |d| = 3, 4, larger."""
    if d >= 0:
        raise ValueError("negative discriminant required")
    n = -d
    w = 6 if n == 3 else 4 if n == 4 else 2
    total = sum(a * kronecker(d, a) for a in range(1, n))
    return Fraction(-w * total, 2 * n)


# ---------------------------------------------------------------------------
# real fields: regulator, unit, h*R
# ---------------------------------------------------------------------------

def _isqrt_array(n: np.ndarray) -> np.ndarray:
    """Exact floor(sqrt(n)) for int64 n < 2^53, where the float root is off by at most one."""
    s = np.sqrt(n).astype(np.int64)
    return s - (s * s > n) + ((s + 1) * (s + 1) <= n)


def _log_squared_over(w: np.ndarray, n: np.ndarray) -> np.ndarray:
    """log(w^2/n) in place, for w = sqrt(D) + x and the exact integer n = D - x^2 > 0:
    log((sqrt(D) + x)/(sqrt(D) - x)) without the cancellation in sqrt(D) - x."""
    w *= w
    w /= n
    return np.log(w, out=w)


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


# Forms built at once in _real_hr_range: a block holds whole rows (one c) of
# at most this many forms, or a single longer row; bounds its temporary arrays.
_PAIR_BLOCK = 1 << 16


def _real_hr_range(limit: int, offset: int, stride: int) -> np.ndarray:
    """hist[D] += log((b + sqrt(D))^2/(4ac)) over reduced forms (a, b, -c) with
    a <= c, a = 1 + offset mod stride: 4ac < limit, a + c <= isqrt(limit), c - a < b.

    (a, b, -c) is reduced exactly when (c, b, -a) is, and their terms
    log((b + sqrt(D))/(2c)) + log((b + sqrt(D))/(2a)) make one log; the row
    c = a, a single form, takes half of it.  Squaring keeps sqrt(D) - b, which
    cancels, out of the kernel.  The (c, b) pairs of each a are added in
    blocks of about _PAIR_BLOCK forms, in order, one np.add.at each."""
    hist = np.zeros(limit + 1, dtype=np.float64)
    smax = isqrt(limit)
    for a in range(1 + offset, isqrt(max(limit - 1, 0)) // 2 + 1, stride):  # 4a^2 < limit
        c = np.arange(a, min(smax - a, (limit - 1) // (4 * a)) + 1, dtype=np.int64)
        counts = np.maximum(_isqrt_array(limit - 4 * a * c) - (c - a), 0)
        ends = np.cumsum(counts)
        lo = 0
        while lo < c.size:
            hi = max(lo + 1, int(np.searchsorted(ends, ends[lo] - counts[lo] + _PAIR_BLOCK, "right")))
            n = counts[lo:hi]
            ac4 = np.repeat(4 * a * c[lo:hi], n)
            b = np.repeat(c[lo:hi] - a + 1 + n - np.cumsum(n), n)
            b += np.arange(b.size)
            ds = b * b
            ds += ac4
            w = np.sqrt(ds)
            w += b
            _log_squared_over(w, ac4)
            if lo == 0:
                w[: n[0]] *= 0.5  # c = a
            np.add.at(hist, ds, w)
            lo = hi
    return hist


def real_hr_histogram(limit: int, workers: int = 1) -> np.ndarray:
    """hist[D] = h(D)*R(D) for fundamental D <= limit (other indices carry
    meaningless partial sums)."""
    return _class_sum(_real_hr_range, workers, limit)


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


# ---------------------------------------------------------------------------
# the discriminant table
# ---------------------------------------------------------------------------

# Largest table bound: the sieve allocates limit + 1 entries and the
# imaginary histogram limit // 2 + 1, 200 MB of int32 at this bound, plus a
# 100 MB int16 buffer for its comb rows.  The form count at n is at most
# (isqrt(n/3) + 1)^2 - 1, about 3.3e7 here, and the head hits it builds in
# int32 stay below 5 * limit / 3, both far below 2^31; an entry of one comb
# row is at most 2 * isqrt(limit / 3) < 2^15.
MAX_TABLE_LIMIT = 10**8
_INTEGRALITY_TOL = 1e-6
_DAMAGED = "; the cache is damaged, delete it to rebuild"
_CACHE_VERSION = 2
# name -> (dtype, number of dimensions) of every entry of a cache file
_CACHE_ENTRIES = {
    "version": (np.int64, 0), "sign": (np.int64, 0), "limit": (np.int64, 0),
    "magnitude": (np.int64, 1), "h": (np.int64, 1), "reg": (np.float64, 1),
}


@dataclass
class DiscriminantTable:
    """Fundamental discriminants of one sign with h and R.

    Columns: magnitude |D| (ascending), class number h and regulator R
    (1.0 on the imaginary side).  Local types are computed from D by
    local_type_codes when a condition asks for them.
    """

    sign: int
    limit: int
    magnitude: np.ndarray
    h: np.ndarray
    reg: np.ndarray

    def __len__(self) -> int:
        return int(self.magnitude.size)

    @classmethod
    def compute(cls, sign: int, limit: int, workers: int = 1) -> "DiscriminantTable":
        if limit > MAX_TABLE_LIMIT:
            raise CapacityError(f"table bound {limit} exceeds {MAX_TABLE_LIMIT}")
        mags = fundamental_magnitudes(sign, limit)
        if sign < 0:
            hist = imaginary_class_number_histogram(limit, workers)
            h = hist[mags >> 1].astype(np.int64)
            reg = np.ones(mags.size, dtype=np.float64)
        else:
            reg = cls._regulators(mags)
            ratio = real_hr_histogram(limit, workers)[mags] / reg
            h_float = np.round(ratio)
            err = np.abs(ratio - h_float)
            if not np.all(err < _INTEGRALITY_TOL):
                raise ArithmeticError(f"non-integral h*R/R at D={int(mags[np.argmax(err)])}")
            h = h_float.astype(np.int64)
        return cls(sign, limit, mags, h, reg)

    @staticmethod
    def _regulators(mags: np.ndarray) -> np.ndarray:
        """regulator_real at every |D| in mags, all continued fractions in lockstep
        over the first half of their cycle.

        From one step past (d mod 2, 2), with Q_{-1} = 2, the states
        (P_k + sqrt(d))/Q_k have Q_{k-1} Q_k = d - P_k^2, so over the cycle
        R = sum log((P_k + sqrt(d))/Q_k) = (1/2) sum t(P_k) with
        t(P) = log((sqrt(d) + P)^2/(d - P^2)).  The P sequence of this cycle is a
        palindrome, so a lane stops once (P_{k+1}, Q_{k+1}) is computed:
        P_{k+1} = P_k (even period): R is the running sum t(P_0) + ... + t(P_k);
        Q_{k+1} = Q_k (odd period): R is that sum plus t(P_{k+1})/2;
        both (period 1): R is t(P_0)/2."""
        d, s = mags, _isqrt_array(mags)
        if np.any(s * s == d):
            raise ValueError("discriminant must not be a square")
        P = (d % 2 + s) // 2 * 2 - d % 2
        Q = (d - P * P) // 2
        sd = np.sqrt(d)
        lane, acc, reg = np.arange(d.size), np.zeros(d.size), np.zeros(d.size)
        while lane.size:
            acc += _log_squared_over(sd + P, d - P * P)
            Pn = (P + s) // Q * Q - P
            Qn = (d - Pn * Pn) // Q
            stop = (Pn == P) | (Qn == Q)
            done = np.flatnonzero(stop)
            r, even, odd = acc[done], Pn[done] == P[done], Qn[done] == Q[done]
            mid = done[odd & ~even]
            r[odd & ~even] += 0.5 * _log_squared_over(sd[mid] + Pn[mid], Q[mid] * Qn[mid])
            r[odd & even] *= 0.5
            reg[lane[done]] = r
            live = ~stop
            lane, acc, P, Q = lane[live], acc[live], Pn[live], Qn[live]
            d, s, sd = d[live], s[live], sd[live]
        return reg

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the header entries (version, sign, limit) and the columns as one uncompressed
        .npz at exactly path, via a temporary file: a failed save never leaves a partial cache."""
        tmp = f"{path}.{os.getpid()}.tmp"
        f = open(tmp, "wb")
        try:
            with f:
                np.savez(
                    f, version=_CACHE_VERSION, sign=self.sign, limit=self.limit,
                    magnitude=self.magnitude, h=self.h, reg=self.reg,
                )
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "DiscriminantTable":
        """Read a cache written by save.  A damaged cache raises ValueError: a cut or unreadable
        archive or a member failing its CRC, a missing or mistyped entry, a value out of range,
        or magnitudes other than exactly the fundamental ones up to the stored limit."""

        def damaged(what: str) -> ValueError:
            return ValueError(f"{path}: {what}{_DAMAGED}")

        try:
            with np.load(path, allow_pickle=False) as z:
                cols = {key: z[key] for key in _CACHE_ENTRIES}
        # TypeError: a lone .npy array is not an archive
        except (zipfile.BadZipFile, EOFError, KeyError, ValueError, TypeError) as exc:
            raise damaged(f"not a table cache ({exc!r})") from None
        for key, (dtype, ndim) in _CACHE_ENTRIES.items():
            if cols[key].dtype != dtype or cols[key].ndim != ndim:
                raise damaged(f"{key} is {cols[key].ndim}-d {cols[key].dtype}")
        version, sign, limit = (int(cols.pop(key)) for key in ("version", "sign", "limit"))
        if version != _CACHE_VERSION or sign not in (-1, 1) or not 0 <= limit <= MAX_TABLE_LIMIT:
            raise damaged(f"header version={version} sign={sign} limit={limit}")
        table = cls(sign, limit, **cols)
        n = len(table)
        if (table.h.size, table.reg.size) != (n, n):
            raise damaged("columns of mismatched shapes")
        if np.any(table.h < 1):
            raise damaged("a class number below 1")
        if not np.all(table.reg > 0) or (sign < 0 and not np.all(table.reg == 1)):
            raise damaged("a regulator out of range")
        if not np.array_equal(table.magnitude, fundamental_magnitudes(sign, limit)):
            raise damaged(f"rows are not the fundamental discriminants up to {limit}")
        return table

    def truncated(self, limit: int) -> "DiscriminantTable":
        if limit > self.limit:
            raise ValueError("cannot extend a table by truncation")
        keep = self.magnitude <= limit
        return DiscriminantTable(
            self.sign, limit, self.magnitude[keep], self.h[keep], self.reg[keep]
        )


def cached_table(
    sign: int, limit: int, path: str | None = None, workers: int = 1
) -> DiscriminantTable:
    """Table from cache when the cache covers the request, else computed
    (and saved when a path is given)."""
    if path and os.path.exists(path):
        table = DiscriminantTable.load(path)
        if table.sign == sign and table.limit >= limit:
            return table.truncated(limit)
    table = DiscriminantTable.compute(sign, limit, workers)
    if path:
        table.save(path)
    return table
