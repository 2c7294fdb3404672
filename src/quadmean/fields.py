"""Quadratic fields of Q: discriminants, class numbers, regulators.

Everything here is exact or reduces to sums of logarithms of exact
integer data.  Class numbers of imaginary fields come from counting
reduced positive forms into an int32 histogram, one periodic comb per
leading coefficient a; 4ac - b^2 is 0 or 3 mod 4, so the count at n is
stored at n // 2 and the histogram holds no entry that is always zero.
The combs of a chain a = m, 2m, 4m, ... (m odd) are summed in one pass,
into an int16 buffer that is added into the histogram before it could
overflow, and the few forms below the comb are added hit by hit, for each
block of a one pass per hit count j over the rows (a, b) with more than j
hits.
For real fields, h*R sums one log((sqrt(D) + b)^2/(4n)) per
(n, b), n = ac, for all the pairs of reduced indefinite forms (a, b, -c),
(c, b, -a) with 0 < a <= c at once: it is weighted by
M(n, b) = #{d | n : |d - n/d| < b}/2, their number (half a pair when a = c),
and each D receives its terms in increasing n; every form whose D is 0 or
4 mod 16, and so not fundamental, is skipped.  The regulators walk half
of the palindromic continued fraction cycle of the maximal order's
generator with the same kernel, in lockstep over all D, in float64 lanes
that stay exact integers below 2^53 and are compacted in place once a
tenth of them have stopped; h is the (checked) integer ratio.  Each real
pass computes in the rows of its own workspace, made once per call: four
float64 rows for real_hr_histogram, nine float64 and three bool rows for
the regulators.  Both take isqrt as the floor of the float root, exact
below MAX_TABLE_LIMIT.
Every large pass walks its array _BLOCK entries, rows or forms at a time.
The scalar per-field oracles that cross-check these kernels live in
tests/oracles.py.
"""

from __future__ import annotations

import math
import os
import zipfile
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .orbits import _rem, local_algebras, standard_representatives
from .residue import CapacityError, primes_upto, square_class, square_class_labels

TRACKED_PRIMES = (2, 3, 5)


# ---------------------------------------------------------------------------
# fundamental discriminants
# ---------------------------------------------------------------------------

def _squarefree_sieve(limit: int) -> np.ndarray:
    """sf[n] is False exactly when p^2 divides n for a prime p (sf[0] stays True)."""
    sf = np.ones(limit + 1, dtype=bool)
    for p in primes_upto(isqrt(limit)).tolist():
        sf[p * p :: p * p] = False
    return sf


# Entries, rows or forms a blocked pass takes at once, so that each of its
# temporary arrays holds about 256 KB of int64 or less: the sieve read
# (_flatnonzero_int32), cell_sums with its per-block local_type_codes, the
# imaginary h in DiscriminantTable.compute, the regulator bounds check, the
# imaginary head (a block of a grows until it holds this many rows (a, b))
# and the real h*R forms (a block holds whole progressions of b of at most
# this many forms, or a single longer one; four workspace rows, 1 MB).  At
# 10^6 the imaginary histogram took 19.4 ms with 2^15 head rows, 19.8 ms
# with 2^14 and 21.6 ms with 2^16; at 10^5 real forms in blocks of 2^16
# peaked 1.2 MB higher.
_BLOCK = 1 << 15


def _flatnonzero_int32(mask: np.ndarray) -> np.ndarray:
    """np.flatnonzero(mask) as int32, for a mask of at most 2^31 entries, one
    block of mask at a time: no int64 index of the whole mask is made."""
    out = np.empty(np.count_nonzero(mask), dtype=np.int32)
    at = 0
    for lo in range(0, mask.size, _BLOCK):
        idx = np.flatnonzero(mask[lo : lo + _BLOCK])
        np.add(idx, lo, out=out[at : at + idx.size], casting="unsafe")
        at += idx.size
    return out


def fundamental_magnitudes(sign: int, limit: int) -> np.ndarray:
    """Sorted int32 |D| for fundamental discriminants D with sign(D)=sign,
    |D|<=limit; limit <= MAX_TABLE_LIMIT < 2^31."""
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
    return _flatnonzero_int32(mask)


# ---------------------------------------------------------------------------
# local classification of a discriminant
# ---------------------------------------------------------------------------

# The type at p of a fundamental discriminant D is fixed by D mod
# _TYPE_MODULI[p], p to the deepest working level delta + 2 ord_p(2) + 1 of
# standard_representatives(p).  At odd p, v_p(D) <= 1 and the square class of
# the unit part is fixed mod p, so D mod p^2 decides.  At p = 2, v_2(D) is 0, 2
# or 3 and the square class of the unit part is fixed mod 8, so D mod 2^6
# decides.  So D mod TYPE_MODULUS = 64 * 9 * 25 = 14,400 decides the types at
# every tracked prime at once.  The joint code of D is its index c_p in
# local_algebras(p), which is that of its class in square_class_labels(p), at
# each tracked prime, raveled over TYPE_CELLS = (8, 4, 4): 16 c_2 + 4 c_3 +
# c_5, one of 128.  Its table gives each nonzero residue r the index of the
# class of r itself, which is that of every fundamental D with residue r
# (v_p(D) and the deciding unit part are read off r); the residue 0, which no
# fundamental D has, reads index 0.
_TYPE_MODULI = {p: p ** max(x.n for x in standard_representatives(p)) for p in TRACKED_PRIMES}
TYPE_MODULUS = math.prod(_TYPE_MODULI.values())
TYPE_CELLS = tuple(len(local_algebras(p)) for p in TRACKED_PRIMES)


def _type_code_table(p: int) -> np.ndarray:
    labels = square_class_labels(p)  # once per prime, not once per residue
    return np.array([labels.index(square_class(r, p)) if r else 0 for r in range(_TYPE_MODULI[p])])


_TYPE_CODES = np.ravel_multi_index(
    [_type_code_table(p)[np.arange(TYPE_MODULUS) % m] for p, m in _TYPE_MODULI.items()],
    TYPE_CELLS,
).astype(np.int8)
# sign -> the code of D = sign * |D| indexed by |D| mod TYPE_MODULUS
_CODES_BY_MAGNITUDE = {
    1: _TYPE_CODES,
    -1: _TYPE_CODES[-np.arange(TYPE_MODULUS) % TYPE_MODULUS],
}


def local_type_codes(sign: int, magnitude: np.ndarray) -> np.ndarray:
    """int8 joint type codes of the fundamental discriminants sign * magnitude:
    np.unravel_index(code, TYPE_CELLS) gives, for each p in TRACKED_PRIMES,
    the index of the local type at p in local_algebras(p).

    Callers pass one block (cell_sums passes at most _BLOCK rows): its
    temporaries are as long as magnitude.  The residues of |D| are taken on a
    copy in magnitude's own integer type, by floor division (orbits._rem),
    and the codes by take from the table of the sign: no signed integer copy
    is made, nor the int64 copy of its indices that a take makes."""
    table = _CODES_BY_MAGNITUDE[sign]
    rem = _rem(np.array(magnitude), TYPE_MODULUS)
    # rem is in range, so "clip" clips nothing; unlike "raise" it writes out unbuffered
    return table.take(rem, out=np.empty(rem.size, dtype=table.dtype), mode="clip")


def cell_sums(table: DiscriminantTable, checkpoints: list[int]) -> np.ndarray:
    """float64 sums of h*R, of shape (len(checkpoints), 128): entry (i, c)
    sums the rows of table with |D| <= checkpoints[i] and joint type code c
    (local_type_codes).  The checkpoints ascend up to table.limit.  The sum
    of a condition list is that of the cells it allows.

    One walk over the rows up to the last checkpoint, _BLOCK rows at a time,
    each block cut at the checkpoints: its codes and its h*R go into the
    running row by one weighted np.bincount, so no full-length code, mask,
    index or weight array is made.  On the imaginary side h*R is h, and every
    partial sum is an integer below about 0.1 X^(3/2), under 10^12 at
    MAX_TABLE_LIMIT and far below 2^53: every cell sum is exact.  On the real
    side a cell's terms are summed in row order, block by block."""
    if list(checkpoints) != sorted(checkpoints) or max(checkpoints, default=0) > table.limit:
        raise ValueError(f"checkpoints must ascend up to the table bound {table.limit}")
    # int32 keys: Python ints convert the whole column to int64 first
    cuts = np.searchsorted(table.magnitude, np.array(checkpoints, dtype=np.int32), "right")
    running, lo = np.zeros(math.prod(TYPE_CELLS)), 0
    sums = np.empty((cuts.size, running.size))
    for i, cut in enumerate(cuts.tolist()):
        for at in range(lo, cut, _BLOCK):
            rows = slice(at, min(at + _BLOCK, cut))
            codes = local_type_codes(table.sign, table.magnitude[rows])
            running += np.bincount(codes, table.h[rows] * table.reg[rows], running.size)
        sums[i], lo = running, cut
    return sums


# ---------------------------------------------------------------------------
# imaginary class numbers
# ---------------------------------------------------------------------------

# dtype of the buffer the chain rows are added into before they reach the
# int32 histogram: half the bytes of int32 per add.  An entry of the comb of
# a counts at most the a + 1 values of b, two each, so an entry of the row of
# a chain a = m, 2m, ..., 2^k m (k <= 12 here) is at most the sum of 2(a + 1)
# over the chain, below 4 * amax + 30 = 23,122 < 2^15 at
# amax = isqrt(MAX_TABLE_LIMIT // 3): one chain row always fits.
_COMB_ACC = np.int16


def imaginary_class_number_histogram(limit: int) -> np.ndarray:
    """int32 hist[n // 2] = h(-n) for every fundamental -n with n <= limit;
    entries at non-fundamental n are form counts without meaning for h.

    A reduced form (a, b, c), 0 <= b <= a <= c, lands at n = 4ac - b^2 =
    4a^2 - b^2 + 4a(c - a) with weight 2 (for +-b), or 1 when b = 0, b = a
    or c = a.  n = -b^2 mod 4 is 0 or 3 mod 4, and n // 2 maps 4k to 2k and
    4k + 3 to 2k + 1, so the limit // 2 + 1 entries have no holes; at
    limit = 2 mod 4 the last one stands for n = limit + 1 and stays 0.
    From n = 4a^2 on every b has started, so the count there is a comb of
    period 4a in n, whose residues 0 and 3 mod 4 make a comb of period 2a
    in n // 2 from index 2a^2 on; _add_imag_combs adds them, one pass per
    chain a = m, 2m, 4m, ... with m odd.
    The head window [3a^2, 4a^2) is added hit by hit by
    _add_head_by_hit_count, for blocks of consecutive a of about _BLOCK
    rows (a, b) each."""
    hist = np.zeros(limit // 2 + 1, dtype=np.int32)
    live = hist[: limit // 4 + (limit + 1) // 4 + 1]  # n <= limit
    amax = isqrt(limit // 3)
    _add_imag_combs(live, amax)  # its buffer is freed before the head rows are set up
    a = 1
    while a <= amax:
        lo, rows = a, 0
        while a <= amax and rows < _BLOCK:
            rows += a
            a += 1
        _add_head_by_hit_count(live, np.arange(lo, a, dtype=np.int32), limit)
    return hist


def _imag_comb(a: int) -> np.ndarray:
    """The comb of a in n // 2, one period 2a from an index = 0 mod 2a: the
    weight of the forms (a, b, c), 0 <= b <= a, at each residue of n = -b^2
    mod 4a, which is 0 or 3 mod 4 and so lands at its own n // 2."""
    b = np.arange(a + 1)
    comb = np.bincount((4 * a * a - b * b) % (4 * a) >> 1, minlength=2 * a)
    comb *= 2
    comb[0] -= 1  # b = 0
    comb[3 * a * a % (4 * a) >> 1] -= 1  # b = a
    return comb


def _add_imag_combs(live: np.ndarray, amax: int) -> None:
    """live[i] += the comb of every a = 1..amax at every index i >= 2a^2,
    through one _COMB_ACC buffer 2 * amax entries longer than live.

    The a are taken in chains a = m, 2m, 4m, ... with m odd, one pass over
    the buffer each, from 2m^2 on, in segments [2a^2, 2(2a)^2): the row of a
    segment is the sum of the combs of the chain up to a, of period 2a.
    Each of those periods divides 2a, and 2a^2 = 0 mod 2a, so every comb keeps
    its phase.  A segment is 3a whole periods and is added as one (rows, 2a)
    view; the last member's segment runs on to the first multiple of 2a at
    or past the end of live, into the spare entries, which never reach
    live.  Members with 2a^2 past live add nothing and are left out.  No
    entry receives more than one segment row per chain, so the buffer is
    charged once per chain, with the sum of its members' row tops; its live
    part goes into live whenever that charge since it was last emptied could
    pass its maximum, and once at the end.  The rows are non-negative, so no
    entry of the buffer can overflow.  Each comb is cast to _COMB_ACC once,
    and every row is made in it by broadcast adds: no row is tiled."""
    amax = min(amax, isqrt((live.size - 1) // 2))  # 2a^2 inside live
    acc = np.zeros(live.size + 2 * amax, dtype=_COMB_ACC)
    room = cap = int(np.iinfo(_COMB_ACC).max)
    for m in range(1, amax + 1, 2):
        chain = [m << k for k in range((amax // m).bit_length())]
        combs = [_imag_comb(a).astype(_COMB_ACC) for a in chain]
        top = sum(int(comb.max()) for comb in combs)
        if top > room:
            live += acc[: live.size]
            acc[:] = 0
            room = cap
        room -= top
        row = combs[0]
        for k, a in enumerate(chain):
            if k:  # the row of period a, twice, plus the comb of a
                row = (combs[k].reshape(2, -1) + row).reshape(-1)
            end = 8 * a * a if k + 1 < len(chain) else -(-live.size // (2 * a)) * 2 * a
            segment = acc[2 * a * a : end].reshape(-1, 2 * a)
            segment += row
    live += acc[: live.size]


def _add_head_by_hit_count(live: np.ndarray, a: np.ndarray, limit: int) -> None:
    """live[n // 2] += the weight of every form (a, b, c), 1 <= b <= a, with
    n = 4ac - b^2 below 4a^2 and at most limit, for the int32 array a of one
    block, one pass per hit count.

    Row (a, b) has k = min(ceil(b^2 / 4a), the number of n <= limit) hits, at
    n // 2 = (4a^2 - b^2) // 2 + 2aj for j = 0..k-1.  ceil(b^2 / 4a) is
    (b^2 - 1) // 4a + 1 and the count below the limit is
    (limit - 4a^2 + b^2) // 4a + 1, so k is one floor division of
    b^2 + min(-1, limit - 4a^2), clipped at 0.  The rows are ordered by k,
    descending, by a stable argsort of the int16 keys -k, so for every j the
    rows with k > j are a prefix; one searchsorted finds all their lengths.
    Pass j moves the prefix's indices one step 2a on and adds them with one
    np.add.at: weight 1 at j = 0 (c = a), and after it weight 2, or 1 on the
    rows b = a, from a weight column ordered with the rows.  No array as long
    as the block's hit list is made."""
    ends = np.cumsum(a, dtype=np.int32)
    b = np.arange(1, int(ends[-1]) + 1, dtype=np.int32) - np.repeat(ends - a, a)
    bb = b * b
    step = np.repeat(2 * a, a)  # 4a in n
    k = (bb + np.repeat(np.minimum(limit - 4 * a * a, -1), a)) // (2 * step) + 1
    key = np.minimum(-k, 0).astype(np.int16)
    order = np.argsort(key, kind="stable")
    key = key[order]
    weight = np.full(b.size, 2, dtype=np.int32)
    weight[ends - 1] = 1  # b = a
    weight = weight[order]
    # intp indices: np.add.at casts int32 ones first, about 15% slower
    cur = ((np.repeat(4 * a * a, a) - bb) >> 1)[order].astype(np.intp)
    step = step[order].astype(np.intp)
    # an np.int32 weight: a Python int one took about 20 times longer
    one = np.int32(1)
    for j, c in enumerate(np.searchsorted(key, -np.arange(-int(key[0]), dtype=np.int16)).tolist()):
        if j:
            cur[:c] += step[:c]
        np.add.at(live, cur[:c], weight[:c] if j else one)


# ---------------------------------------------------------------------------
# real fields: regulators and h*R
# ---------------------------------------------------------------------------

def _log_squared_over(w: np.ndarray, n: np.ndarray) -> np.ndarray:
    """log(w^2/n) in place, for w = sqrt(D) + x and the exact integer n = D - x^2 > 0:
    log((sqrt(D) + x)/(sqrt(D) - x)) without the cancellation in sqrt(D) - x."""
    w *= w
    w /= n
    return np.log(w, out=w)


# Pieces real_hr_histogram sets up at once (24 bytes each while they are
# added): a group of whole n is sized from the last one's piece count to hold
# about this many.  At 10^5 the histogram peaked at 2.26 MB with 2^13, 2.43 MB
# with 2^14 and 2.82 MB with 2^15, and took 19.5, 18.0 and 18.7 ms; groups of
# a fixed 2^11 n took 5% longer at 10^5 and 10^6.
_PIECE_GROUP = 1 << 14
# [n mod 4, b mod 4] -> True when D = b^2 + 4n is not 0 or 4 mod 16, which
# b mod 4 and n mod 4 decide: an odd D is neither, and an even b has b^2
# mod 16 fixed by b mod 4.
_KEPT_B = ~np.isin((np.arange(4) ** 2 + 4 * np.arange(4)[:, None]) % 16, (0, 4))


def real_hr_histogram(limit: int) -> np.ndarray:
    """hist[D] = h(D)*R(D) for fundamental D <= limit: the sum of
    log((b + sqrt(D))/(2c)) over the reduced forms (a, b, -c) of D, a, c > 0
    and |c - a| < b.  Every other D not 0 or 4 mod 16 holds the same complete
    sum over all reduced forms of D, imprimitive ones included.  Such a D
    that is not a square is D0 f^2, D0 fundamental and f odd, and holds
    h(D0)R(D0) times the sum over g | f of g prod_{p | g} (1 - chi_D0(p)/p),
    so h(D0)R(D0)(4 - chi_D0(3)) at f = 3, as the class number formula for
    orders gives.  At an odd square D = k^2 every term is
    log((k + b)/(k - b)), so the entry is the log of a rational number, no
    h*R.

    (a, b, -c) is reduced exactly when (c, b, -a) is, and their terms make
    one log, t(n, b) = log((b + sqrt(D))^2/(4n)), which depends on a and c
    only through n = ac.  So each (n, b) adds t(n, b) once, times the weight
    M(n, b) = #{d | n : |d - n/d| < b}/2: 1 for each pair a < c of divisors
    with c - a < b, and 1/2 for a = c.  Squaring keeps sqrt(D) - b, which
    cancels, out of the kernel.  No form with D = 0 or 4 mod 16 is built:
    such a D is not fundamental (D/4 would be 0 or 1 mod 4), and its entry
    stays 0.  The n with 4n < limit go in ascending groups of whole n of
    about _PIECE_GROUP pieces (_real_pieces), whose pieces go in, in order,
    in blocks of about _BLOCK forms, one np.add.at each, computed with out=
    in the rows of one workspace (_add_real_pieces).  Within one n every b
    gives another D, so every D receives its terms in increasing n, whatever
    the groups and blocks.  The kernel runs in float64: b^2 + 4n <=
    MAX_TABLE_LIMIT is an exact float."""
    hist = np.zeros(limit + 1, dtype=np.float64)
    size = max(_BLOCK, isqrt(limit) // 4 + 1)
    # rows b, 4n, D and the log term of a block, and the int32 steps 4j of b
    work, steps = np.empty((4, size)), np.arange(0, 4 * size, 4, dtype=np.int32)
    # below 2^11 an n has 6 to 11 pieces (10^5 to 10^8), and the pieces per
    # n fall as n grows: each group's width is the last one's scaled by
    # _PIECE_GROUP over its piece count, at most doubled
    n0, width = 1, max(1, _PIECE_GROUP // 8)
    while 4 * n0 < limit:
        n1 = min(n0 + width, (limit + 3) // 4)  # 4n < limit
        pieces = _add_real_pieces(hist, *_real_pieces(n0, n1, limit), work, steps)
        width = max(1, min(2 * width, width * _PIECE_GROUP // max(pieces, 1)))
        n0 = n1
    return hist


def _real_pieces(n0: int, n1: int, limit: int) -> tuple[np.ndarray, ...]:
    """The pieces of the b of every n0 <= n < n1, in order of n: the first b
    and the count of a progression of step 4, 4n, all int32, and the float32
    weight M(n, b) that holds on it.

    The rows of n are the (a, c) with a <= c and ac = n, one range of c for
    each a <= sqrt(n).  Only rows with a + c <= isqrt(limit) have a b, since
    b > c - a and b^2 + 4ac <= limit give (a + c)^2 < limit.  Sorted by n and
    then by the gap g = c - a (a stable sort of n over rows of descending a),
    the rows of n have gaps g_0 < g_1 < ...; row j holds the b in
    (g_j, g_{j+1}], up to isqrt(limit - 4n) on the last row, and M is j + 1
    there, less 1/2 when g_0 = 0 (a = c).  Each row's b are up to four
    progressions, one per residue mod 4 that _KEPT_B keeps for n mod 4; the
    empty ones are dropped.  Up to MAX_TABLE_LIMIT every value
    fits: 4n < limit < 2^31, b, g and the counts are at most isqrt(limit),
    there are fewer than isqrt(limit)^2 rows, and M <= d(n)/2 <= sqrt(n) is
    a multiple of 1/2 that float32 holds exactly."""
    s = isqrt(limit)
    a = np.arange(isqrt(n1 - 1), 0, -1, dtype=np.int32)
    lo = np.maximum(a, -(-n0 // a))
    width = np.maximum(np.minimum(s - a, (n1 - 1) // a) - lo + 1, 0)
    ends = np.cumsum(width, dtype=np.int32)
    ra = np.repeat(a, width)
    c = np.arange(ends[-1], dtype=np.int32) - np.repeat(ends - width - lo, width)
    n = ra * c
    order = np.argsort(n, kind="stable")
    n, g = n[order], (c - ra)[order]
    i = np.searchsorted(n, n)  # the first row of each n
    weight = (np.arange(n.size) - i).astype(np.float32)
    weight += np.where(g[i] == 0, np.float32(0.5), np.float32(1))
    # the float root's floor is isqrt up to MAX_TABLE_LIMIT, as in _regulators
    top = np.floor(np.sqrt(limit - 4 * n)).astype(np.int32)
    np.minimum(top[:-1], np.where(n[1:] == n[:-1], g[1:], top[:-1]), out=top[:-1])
    first = (g + 1)[:, None] + (np.arange(-1, 3, dtype=np.int32) - g[:, None] & 3)
    count = (top[:, None] - first) // 4 + 1
    count *= _KEPT_B.take(n & 3, axis=0)
    n *= 4
    keep = np.flatnonzero(count > 0)
    first, count = first.ravel()[keep], count.ravel()[keep]
    keep >>= 2  # the row of each piece
    return first, count, n[keep], weight[keep]


def _add_real_pieces(
    hist: np.ndarray, first: np.ndarray, count: np.ndarray, n4: np.ndarray,
    weight: np.ndarray, work: np.ndarray, steps: np.ndarray,
) -> int:
    """hist[D] += M(n, b) t(n, b) for every b of the pieces, in their order,
    in blocks of whole pieces of at most _BLOCK forms (or a single longer
    one) computed in the rows of work; returns the number of pieces."""
    stop = np.cumsum(count)
    lo = 0
    while lo < count.size:
        f0 = int(stop[lo] - count[lo])
        hi = max(lo + 1, int(np.searchsorted(stop, f0 + _BLOCK, "right")))
        k = count[lo:hi]
        b, q, ds, w = work[:, : int(stop[hi - 1]) - f0]
        # b = the first b of its progression, less 4 per form before it, plus 4j
        b0 = first[lo:hi] - 4 * (stop[lo:hi] - k - f0).astype(np.int32)
        np.add(np.repeat(b0, k), steps[: b.size], out=b)
        np.copyto(q, np.repeat(n4[lo:hi], k))
        np.multiply(b, b, out=ds)
        ds += q
        np.sqrt(ds, out=w)
        w += b
        _log_squared_over(w, q)
        w *= np.repeat(weight[lo:hi], k)
        # q is spent: its bytes take the int index of D
        index = q.view(np.intp)
        np.copyto(index, ds, casting="unsafe")
        np.add.at(hist, index, w)
        lo = hi
    return count.size


# ---------------------------------------------------------------------------
# the discriminant table
# ---------------------------------------------------------------------------

# Largest table bound: the sieve allocates limit + 1 entries and the
# imaginary histogram limit // 2 + 1, 200 MB of int32 at this bound, plus a
# 100 MB int16 buffer for its comb rows.  The form count at n is at most
# (isqrt(n/3) + 1)^2 - 1, about 3.3e7 here, and the int32 set-up values of
# a head row, 4a^2 <= 4 * limit / 3 and b^2 <= a^2, are far below 2^31; a
# row's hit count, at most ceil(a / 4) = 1,444, is an int16 key.  An entry
# of one chain row of combs is below
# 4 * isqrt(limit / 3) + 30 < 2^15.  The real forms' D = b^2 + 4ac <= limit,
# the regulator lanes and their products stay below 4 * limit, exact
# integers in float64.  |D|, -|D|, |D| >> 1 and every sieve index are
# at most limit < 2^31, so |D| is int32, and so are the blocked residues.
MAX_TABLE_LIMIT = 10**8
_INTEGRALITY_TOL = 1e-6
_DAMAGED = "; the cache is damaged, delete it to rebuild"
_CACHE_VERSION = 3
# name -> (dtype, number of dimensions) of every entry of a real cache file;
# an imaginary one has all but reg.  Every h fits int32 up to MAX_TABLE_LIMIT:
# an imaginary h is a form count, below 3.4e7 (above), and a real h is at most
# the number of reduced forms (a, b, c) of D, which 0 < |a|, b < sqrt(D) and
# the sign of a fix, so at most 2D.
_CACHE_ENTRIES = {
    "version": (np.int32, 0), "sign": (np.int32, 0), "limit": (np.int32, 0),
    "h": (np.int32, 1), "reg": (np.float64, 1),
}


def _unit_regulators(n: int) -> np.ndarray:
    """The imaginary R column: n read-only ones that share one float64."""
    return np.broadcast_to(np.float64(1.0), (n,))


def _hr_bound(d):
    """sqrt(d)(log d + 2)/2, above hR = sqrt(d) L(1, chi)/2 (the class number
    formula) for a real field of discriminant d: L(1, chi) is below log d + 2,
    since the terms up to d sum to at most log d + 1 and the partial sums of
    chi are at most d/2, so the tail is below 1.  d is a number or an array."""
    return np.sqrt(d) * (np.log(d) + 2.0) / 2.0


def _regulator_step_bound(d: int) -> int:
    """Steps the lockstep regulator walk takes at most for discriminants up to d.

    A lane stops within one period of its cycle, of length l say.  Its complete
    quotients x_k = a_k + 1/x_{k+1} have a_k >= 1, so x_k x_{k+1} > 2 and
    R = sum log x_k > (l - 1) log(2) / 2 over the period.  With h >= 1,
    R <= hR < _hr_bound(d).  So l < 2 _hr_bound(d)/log 2 + 1."""
    return math.ceil(2 * _hr_bound(d) / math.log(2)) + 1


def _first_out_of_range(table: "DiscriminantTable") -> str | None:
    """What is out of range at the first D of table, with that D, else None:
    an h below 1 or, on the real side, an R (NaN included) outside
    [log((1 + sqrt(D))/2), _hr_bound(D)), the least unit above 1, reached at
    D = 5 (so the bound is taken 1e-12 lower for rounding), and the bound on
    hR, which R does not exceed since h >= 1."""
    mags = table.magnitude
    for lo in range(0, mags.size, _BLOCK):
        ok = table.h[lo : lo + _BLOCK] >= 1
        if table.sign > 0:
            d = mags[lo : lo + _BLOCK].astype(np.float64)
            r = table.reg[lo : lo + _BLOCK]
            low = np.log((1.0 + np.sqrt(d)) / 2.0) * (1.0 - 1e-12)
            ok &= (r >= low) & (r < _hr_bound(d))
        if not ok.all():
            i = lo + int(np.argmin(ok))
            what = "a class number below 1" if table.h[i] < 1 else "a regulator out of range"
            return f"{what} at D={int(mags[i])}"
    return None


@dataclass
class DiscriminantTable:
    """Fundamental discriminants of one sign with h and R.

    Columns: magnitude |D| (ascending, int32), class number h (int32) and
    regulator R (float64).  On the imaginary side R is 1: a read-only view
    of one 1.0 with stride 0, not an allocated column, so a row takes 8
    bytes there and 16 on the real side.  The joint type codes at the
    tracked primes are not a column: cell_sums computes them from |D|, block
    by block, as it sums h*R.
    """

    sign: int
    limit: int
    magnitude: np.ndarray
    h: np.ndarray
    reg: np.ndarray

    def __len__(self) -> int:
        return int(self.magnitude.size)

    @classmethod
    def compute(cls, sign: int, limit: int) -> "DiscriminantTable":
        if limit > MAX_TABLE_LIMIT:
            raise CapacityError(f"table bound {limit} exceeds {MAX_TABLE_LIMIT}")
        mags = fundamental_magnitudes(sign, limit)
        if sign < 0:
            hist = imaginary_class_number_histogram(limit)
            h = np.empty(mags.size, dtype=np.int32)
            # one block of indices at a time, none in full length; they are in
            # range, so "clip" clips nothing, and unlike "raise" writes out unbuffered
            for lo in range(0, mags.size, _BLOCK):
                hist.take(mags[lo : lo + _BLOCK] >> 1, out=h[lo : lo + _BLOCK], mode="clip")
            reg = _unit_regulators(mags.size)
        else:
            reg = cls._regulators(mags)
            ratio = real_hr_histogram(limit)[mags] / reg
            h_float = np.round(ratio)
            err = np.abs(ratio - h_float)
            if not np.all(err < _INTEGRALITY_TOL):
                raise ArithmeticError(f"non-integral h*R/R at D={int(mags[np.argmax(err)])}")
            h = h_float.astype(np.int32)
        table = cls(sign, limit, mags, h, reg)
        bad = _first_out_of_range(table)
        if bad:  # a kernel fault, caught before any cache is written
            raise ArithmeticError(bad)
        return table

    @staticmethod
    def _regulators(mags: np.ndarray) -> np.ndarray:
        """The regulator at every |D| in mags, all continued fractions in lockstep
        over the first half of their cycle.

        From one step past (d mod 2, 2), with Q_{-1} = 2, the states
        (P_k + sqrt(d))/Q_k have Q_{k-1} Q_k = d - P_k^2, so over the cycle
        R = sum log((P_k + sqrt(d))/Q_k) = (1/2) sum t(P_k) with
        t(P) = log((sqrt(d) + P)^2/(d - P^2)).  The P sequence of this cycle is a
        palindrome, so a lane stops once (P_{k+1}, Q_{k+1}) is computed:
        P_{k+1} = P_k (even period): R is the running sum t(P_0) + ... + t(P_k);
        Q_{k+1} = Q_k (odd period): R is that sum plus t(P_{k+1})/2;
        both (period 1): R is t(P_0)/2.

        A step takes a = floor((P_k + s)/Q_k), s = isqrt(d), P_{k+1} = a Q_k - P_k
        and Q_{k+1} = Q_{k-1} + a (P_k - P_{k+1}) = (d - P_{k+1}^2)/Q_k.  The lanes
        are float64 rows of one workspace per call: s, sqrt(d), P, Q_k, Q_{k-1},
        the running sum, the index in mags, and two spare rows that each step
        writes into.  Every state is reduced, 0 < P < sqrt(d) and 0 < Q < 2 sqrt(d),
        so up to MAX_TABLE_LIMIT each of them and each product below is an
        integer under 2^53.  The quotient (P + s)/Q is at most 2 sqrt(d) + 1
        and is rounded by at most that times 2^-53, while a quotient that is
        not an integer lies at least 1/Q from one: its floor is exact.  A lane
        that stops leaves the alive mask but stays in the rows, walking on
        along its cycle, until more than a tenth of them have stopped since
        the last compaction; then the live lanes past the live count fill the
        stopped lanes' places before it.  Each lane's terms are summed in the
        same order, so the result does not depend on where or when the lanes
        are compacted.  A lane still walking after _regulator_step_bound steps
        has left its cycle: the walk raises ArithmeticError naming its D."""
        size = mags.size
        spare, scratch, s, sd, P, Q, Qp, acc, lane = np.empty((9, size))
        alive, hit, flat = np.empty((3, size), dtype=bool)
        alive.fill(True)
        # set-up in the rows, d in the spare one; up to MAX_TABLE_LIMIT,
        # (isqrt(d) + 1)^2 < 2^52 keeps the rounded root below isqrt(d) + 1
        d = spare
        np.copyto(d, mags)
        np.floor(np.sqrt(d, out=sd), out=s)
        if np.equal(np.multiply(s, s, out=scratch), d, out=hit).any():
            raise ValueError("discriminant must not be a square")
        # P = (d mod 2 + s) // 2 * 2 - d mod 2 = s - (d mod 2 + s) mod 2, Q = (d - P^2)/2
        np.fmod(d, 2.0, out=scratch)
        scratch += s
        np.subtract(s, np.fmod(scratch, 2.0, out=scratch), out=P)
        np.subtract(d, np.multiply(P, P, out=scratch), out=Q)
        Q *= 0.5
        Qp.fill(2.0)
        acc.fill(0.0)
        np.cumsum(alive, out=lane)  # 1, 2, ..., size
        lane -= 1.0
        reg = np.zeros(size)
        stopped, steps, most = 0, 0, _regulator_step_bound(int(mags.max(initial=2)))
        while lane.size:
            if steps == most:
                D = mags[int(lane[np.argmax(alive)])]
                raise ArithmeticError(f"regulator walk at D={int(D)} passed {most} steps")
            steps += 1
            # t(P) with d - P^2 = Q_{k-1} Q_k
            acc += _log_squared_over(np.add(sd, P, out=spare), np.multiply(Qp, Q, out=scratch))
            a = np.add(P, s, out=scratch)
            a /= Q
            np.floor(a, out=a)
            Pn = np.multiply(a, Q, out=spare)
            Pn -= P
            P -= Pn  # P_k - P_{k+1}: 0 exactly on an even stop
            a *= P
            Qn = np.add(Qp, a, out=Qp)
            stop = np.equal(Qn, Q, out=hit)
            stop |= np.equal(P, 0.0, out=flat)
            stop &= alive
            done = np.flatnonzero(stop)
            # a stop has P_{k+1} = P_k or Q_{k+1} = Q_k, so ~even is the odd-only case
            r, even, odd = acc[done], flat[done], Qn[done] == Q[done]
            mid = done[~even]
            r[~even] += 0.5 * _log_squared_over(sd[mid] + Pn[mid], Q[mid] * Qn[mid])
            r[even & odd] *= 0.5
            reg[lane[done].astype(np.intp)] = r
            alive[done] = False
            # P_{k+1}, Q_{k+1} and Q_k move up; P's buffer is the new spare row
            spare, P, Q, Qp = P, Pn, Qn, Q
            stopped += done.size
            if 10 * stopped > lane.size:
                # the live lanes past the first live places fill the stopped
                # lanes' places among them: arrays of the stopped lanes' size
                live = lane.size - stopped
                holes = np.flatnonzero(np.logical_not(alive[:live], out=hit[:live]))
                fill = np.flatnonzero(alive[live:])
                fill += live
                for row in (P, Q, Qp, s, sd, acc, lane):
                    row[holes] = row[fill]
                P, Q, Qp, s, sd, acc, lane, spare, scratch, alive, hit, flat = (
                    v[:live]
                    for v in (P, Q, Qp, s, sd, acc, lane, spare, scratch, alive, hit, flat)
                )
                alive[:] = True
                stopped = 0
        return reg

    # -- persistence --------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the header entries (version, sign, limit) and h, and on the real side R, each
        in the dtype _CACHE_ENTRIES names, as one uncompressed .npz at exactly path, via a
        temporary file: a failed save never leaves a partial cache.  |D| is not stored: load
        recomputes it from the sign and the limit, and R is 1 on the imaginary side."""
        entries = {"version": _CACHE_VERSION, "sign": self.sign, "limit": self.limit, "h": self.h}
        if self.sign > 0:
            entries["reg"] = self.reg
        entries = {key: np.asarray(v, _CACHE_ENTRIES[key][0]) for key, v in entries.items()}
        tmp = f"{path}.{os.getpid()}.tmp"
        f = open(tmp, "wb")
        try:
            with f:
                np.savez(f, **entries)
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "DiscriminantTable":
        """Read a cache written by save; |D| is fundamental_magnitudes(sign, limit) and R is 1 on
        the imaginary side.  A damaged cache raises ValueError: a cut or unreadable archive or a
        member failing its CRC, entries other than exactly those save writes for the sign (so a
        file of an older format), a mistyped entry, a value that compute would have refused
        (_first_out_of_range), or an h column whose length is not the number of fundamental
        discriminants up to the stored limit."""

        def damaged(what: str) -> ValueError:
            return ValueError(f"{path}: {what}{_DAMAGED}")

        def check_type(key: str) -> None:
            dtype, ndim = _CACHE_ENTRIES[key]
            v = cols.get(key)
            # a member stored as other than .npy reads as bytes
            if not isinstance(v, np.ndarray) or (v.dtype, v.ndim) != (dtype, ndim):
                raise damaged(f"{key} is not a {ndim}-d {np.dtype(dtype)} array")

        try:
            with np.load(path, allow_pickle=False) as z:
                cols = {key: z[key] for key in z.files}
        # TypeError: a lone .npy array is not an archive
        except (zipfile.BadZipFile, EOFError, ValueError, TypeError) as exc:
            raise damaged(f"not a table cache ({exc!r})") from None
        header = ("version", "sign", "limit")
        for key in header:
            check_type(key)
        version, sign, limit = (int(cols.pop(key)) for key in header)
        if version != _CACHE_VERSION or sign not in (-1, 1) or not 0 <= limit <= MAX_TABLE_LIMIT:
            raise damaged(f"header version={version} sign={sign} limit={limit}")
        want = [key for key in _CACHE_ENTRIES if key not in header and (sign > 0 or key != "reg")]
        if sorted(cols) != sorted(want):
            raise damaged(f"entries {sorted(cols)} where a sign {sign} cache has {want}")
        for key in want:
            check_type(key)
        mags = fundamental_magnitudes(sign, limit)
        if sign < 0:
            cols["reg"] = _unit_regulators(mags.size)
        table = cls(sign, limit, mags, **cols)
        n = len(table)
        if (table.h.size, table.reg.size) != (n, n):
            raise damaged(f"columns of other lengths than the {n} fundamental discriminants")
        bad = _first_out_of_range(table)
        if bad:
            raise damaged(bad)
        return table


def cached_table(sign: int, limit: int, path: str | None = None) -> DiscriminantTable:
    """The cached table, as it is, when it has this sign and its limit covers
    the request; else the table computed at limit (and saved when a path is
    given).  cell_sums reads no row past its last checkpoint."""
    if path and os.path.exists(path):
        table = DiscriminantTable.load(path)
        if table.sign == sign and table.limit >= limit:
            return table
    table = DiscriminantTable.compute(sign, limit)
    if path:
        table.save(path)
    return table
