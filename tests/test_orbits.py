"""Group action, standard representatives, orbits, stabilizers."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import quadmean.orbits
from oracles import (
    act,
    algebra,
    congruence_solution_set_by_loops,
    group_generators,
    kronecker,
    orbit_bitset_by_generators,
    stabilizer_elements_by_buckets,
    torus_element,
)
from quadmean.cli import _group_order_direct
from quadmean.orbits import (
    ALG_SPLIT,
    MAX_ORBIT_SPACE,
    BinaryQF,
    CapacityError,
    StandardRep,
    _classes,
    _form_values,
    _orbit_bitset,
    _rem,
    _unit_inverses,
    _unpack,
    congruence_solution_check,
    congruence_solution_set,
    coset_normal_form_check,
    group_order,
    lift_saturation_check,
    orbit_size,
    stabilizer_elements,
    stabilizer_order,
    standard_representatives,
    torus_order,
    torus_order_closed,
)
from quadmean.residue import ResidueRing, is_prime, valuation


IDENTITY = (1, 1, 0, 0, 1)


def random_element(rng: random.Random, ring: ResidueRing) -> tuple[int, int, int, int, int]:
    m = ring.modulus
    p = ring.p
    while True:
        t = rng.randrange(m)
        a, b, c, d = (rng.randrange(m) for _ in range(4))
        if t % p and (a * d - b * c) % p:
            return (t, a, b, c, d)


def compose(g, h, m):
    """(t, g2) * (s, h2) = (t s, g2 h2) over Z/m."""
    t, a, b, c, d = g
    s, e, f, k, l = h
    return (t * s % m, (a * e + b * k) % m, (a * f + b * l) % m,
            (c * e + d * k) % m, (c * f + d * l) % m)


def test_act_is_left_action():
    rng = random.Random(4)
    for p, n in ((2, 4), (3, 2), (7, 1)):
        ring = ResidueRing(p, n)
        m = ring.modulus
        for _ in range(60):
            x = BinaryQF(rng.randrange(m), rng.randrange(m), rng.randrange(m))
            g = random_element(rng, ring)
            h = random_element(rng, ring)
            assert act(g, act(h, x, m), m) == act(compose(g, h, m), x, m)
            assert act(IDENTITY, x, m) == BinaryQF(x.x0 % m, x.x1 % m, x.x2 % m)


def test_act_substitutes_rows():
    # (g.x)(v) = t * x(v * g2) pointwise
    rng = random.Random(9)
    ring = ResidueRing(3, 3)
    m = ring.modulus
    for _ in range(50):
        x = BinaryQF(rng.randrange(m), rng.randrange(m), rng.randrange(m))
        t, a, b, c, d = g = random_element(rng, ring)
        y = act(g, x, m)
        v1, v2 = rng.randrange(m), rng.randrange(m)
        w1 = v1 * a + v2 * c
        w2 = v1 * b + v2 * d
        assert y(v1, v2) % m == t * x(w1, w2) % m


def test_discriminant_scales_by_square_of_character():
    rng = random.Random(12)
    for p, n in ((2, 5), (3, 2)):
        ring = ResidueRing(p, n)
        m = ring.modulus
        for _ in range(60):
            x = BinaryQF(rng.randrange(m), rng.randrange(m), rng.randrange(m))
            t, a, b, c, d = g = random_element(rng, ring)
            character = t * (a * d - b * c)
            assert act(g, x, m).discriminant() % m == character**2 * x.discriminant() % m


def test_standard_representatives_shape():
    reps2 = standard_representatives(2)
    assert [str(r.algebra) for r in reps2] == [
        "split", "unramified(5)", "ramified(-1)", "ramified(-5)",
        "ramified(2)", "ramified(-2)", "ramified(10)", "ramified(-10)",
    ]
    assert [r.form.coeffs() for r in reps2[2:]] == [
        (1, 2, 2), (1, 2, 6), (1, 0, -2), (1, 0, 2), (1, 0, -10), (1, 0, 10),
    ]
    assert [r.n for r in reps2] == [3, 3, 5, 5, 6, 6, 6, 6]
    reps3 = standard_representatives(3)
    assert [r.form.coeffs() for r in reps3] == [(0, 1, 0), (1, 1, 2), (1, 0, -3), (1, 0, -6)]
    assert [r.delta for r in reps3] == [0, 0, 1, 1]
    reps7 = standard_representatives(7)
    assert reps7[1].form.coeffs() == (1, 1, 3)
    # the unramified c is the least c >= 1 with 1 - 4c a unit non-square,
    # as the Kronecker symbol finds it, at every p below 50, 2 included
    for p in (q for q in range(2, 50) if is_prime(q)):
        c = 1
        while kronecker(1 - 4 * c, p) != -1:
            c += 1
        assert standard_representatives(p)[1].form.coeffs() == (1, 1, c), p


def test_representative_validation_rejects_mismatches():
    with pytest.raises(ValueError):
        StandardRep(3, ALG_SPLIT, BinaryQF(1, 1, 0))
    with pytest.raises(ValueError):
        # discriminant 1 - 4*5 = -19 is 1 mod 5, a unit square
        StandardRep(5, algebra(5, 2), BinaryQF(1, 1, 5))
    with pytest.raises(ValueError, match="valuation"):
        # disc -36 is in the unramified class 2 at 3, but it is not a unit
        StandardRep(3, algebra(3, 2), BinaryQF(1, 0, 9))
    with pytest.raises(ValueError):
        # not Eisenstein: constant term 9 has valuation 2
        StandardRep(3, algebra(3, 3), BinaryQF(1, 0, 9))
    with pytest.raises(ValueError):
        # wrong ramified class: disc of (1, 0, -6) is 24, class 6 not 3
        StandardRep(3, algebra(3, 3), BinaryQF(1, 0, -6))


FROZEN_COUNTS = [
    # (p, rep index, torus, orbit, stabilizer, group)
    (3, 2, 54, 72, 324, 23328),
    (2, 2, 512, 1536, 4096, 6291456),
    (2, 4, 2048, 6144, 32768, 201326592),
]


@pytest.mark.parametrize("p,idx,torus,orbit,stab,group", FROZEN_COUNTS)
def test_frozen_orbit_counts(p, idx, torus, orbit, stab, group):
    rep = standard_representatives(p)[idx]
    ring = rep.natural_ring()
    assert group_order(ring) == group
    assert torus_order(rep, ring) == torus
    assert orbit_size(rep, ring) == orbit
    assert stabilizer_order(ring, orbit) == stab
    # an orbit size that does not divide |G| gives the exact quotient
    assert stabilizer_order(ring, orbit + 1) == Fraction(group, orbit + 1) != stab
    assert stab == 2 * p**rep.delta * torus
    assert orbit * stab == group


def test_group_order_small_levels():
    assert group_order(ResidueRing(3, 1)) == 96
    assert group_order(ResidueRing(3, 2)) == 23328
    assert group_order(ResidueRing(2, 5)) == 6291456
    # one level up multiplies by p^5
    assert group_order(ResidueRing(3, 3)) == 23328 * 3**5


def test_torus_fixes_the_form():
    rng = random.Random(22)
    for p in (2, 3, 5):
        for rep in standard_representatives(p):
            if not rep.is_ramified:
                continue
            ring = rep.natural_ring()
            m = ring.modulus
            got = 0
            while got < 15:
                c, d = rng.randrange(m), rng.randrange(m)
                norm = rep.form(c, d) % m
                if norm % p == 0:
                    continue
                got += 1
                g = (pow(norm, -1, m), *torus_element(rep, c, d, m))
                y = act(g, rep.form, m)
                assert y.coeffs() == tuple(v % m for v in rep.form.coeffs())


def test_congruence_counts_all_ramified():
    for p in (2, 3, 5):
        for rep in standard_representatives(p):
            if not rep.is_ramified:
                continue
            ring = rep.natural_ring()
            assert len(congruence_solution_set(rep, ring)) == 2 * p**rep.delta


def test_congruence_solution_set_frozen_dyadic():
    # the two branch cosets for the trace-valuation-1 representative
    rep = standard_representatives(2)[2]
    assert rep.form.coeffs() == (1, 2, 2)
    sols = congruence_solution_set(rep, rep.natural_ring())
    assert sols.dtype == np.int32
    assert [divmod(k, 32) for k in sols.tolist()] == [
        (0, 1), (0, 17), (2, 15), (2, 31),
        (16, 1), (16, 17), (18, 15), (18, 31),
    ]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_congruence_solution_set_equals_the_pairwise_loops(p):
    # at the working level and one level either side, up to the table's guard
    for rep in standard_representatives(p):
        if not rep.is_ramified:
            continue
        for level in (rep.n - 1, rep.n, rep.n + 1):
            ring = ResidueRing(p, level)
            if ring.modulus > 128:
                continue
            got = congruence_solution_set(rep, ring)
            assert got.tolist() == congruence_solution_set_by_loops(rep, ring), (rep, level)
            assert got.dtype == np.int32


def test_form_values_table():
    for p in (2, 3, 5, 7):
        for rep in standard_representatives(p):
            ring = rep.natural_ring()
            m = ring.modulus
            table = _form_values(rep, ring)
            assert table.dtype == np.int32 and table.shape == (m * m,)
            want = [rep.form(c, d) % m for c in range(m) for d in range(m)]
            assert table.tolist() == want, rep
            # built once per (representative, ring) and shared, so no caller
            # may write into it
            assert _form_values(rep, ResidueRing(p, rep.n)) is table
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1


def test_form_values_guard_boundary():
    # the largest modulus the guard admits, 2^7 = 128, where every value
    # before reduction is below 3 * 128^3 < 2^31; the next level is refused,
    # and so is every count that reads the table there
    rep = standard_representatives(2)[4]
    assert rep.is_ramified
    assert torus_order(rep, ResidueRing(2, 7)) == torus_order_closed(rep, ResidueRing(2, 7))
    assert 3 * 128**3 < 2**31
    for read in (torus_order, stabilizer_elements, congruence_solution_set):
        with pytest.raises(CapacityError):
            read(rep, ResidueRing(2, 8))


def test_congruence_characterization():
    for p in (2, 3, 5, 7):
        for rep in standard_representatives(p):
            if not rep.is_ramified:
                continue
            ring = rep.natural_ring()
            m = ring.modulus
            branches = congruence_solution_check(rep)
            for branch in branches:  # sorted keys, each once
                assert branch.dtype == np.int32 and (np.diff(branch) > 0).all()
            for one, other in itertools.combinations(branches, 2):  # pairwise disjoint
                assert np.intersect1d(one, other).size == 0
            described = np.concatenate(branches)
            assert sorted(described.tolist()) == congruence_solution_set(rep, ring).tolist()
            assert len(set(described.tolist())) == len(described)  # disjoint branches
            assert sum(map(len, branches)) == 2 * p**rep.delta
            if rep.delta % 2 == 0:
                assert len(branches) == 2
                assert len(branches[0]) == len(branches[1])
                # the second coset is that of the conjugation (u, s) = (a1, -1)
                assert rep.a1 * m + m - 1 in branches[1].tolist()
    # the paper's claims on its second coset u = -b pi at each dyadic
    # delta = 2 representative, with pi = a2 and b = b2/b1
    dyadic = {
        rep.algebra.square_class: rep
        for rep in standard_representatives(2)
        if rep.is_ramified and rep.delta == 2
    }
    assert {label: (rep.a1, rep.a2) for label, rep in dyadic.items()} == {-1: (2, 2), -5: (2, 6)}
    for rep in dyadic.values():
        a1, pi = rep.a1, Fraction(rep.a2)
        b1 = 4 * pi * pi / (a1 * a1) - pi
        b2 = a1 - 4 * pi / a1
        assert b1.denominator == b2.denominator == 1  # valuation takes integers
        assert valuation(int(b1), 2) == 1 and valuation(int(b2), 2) == rep.delta // 2
        assert -(b2 / b1) * pi == a1


def test_coset_normal_form():
    # every stabilizer element factors through a unique lower unipotent
    # representative over the torus; fibers all have torus size, p^n rows
    # of the slice a = 1 times the phi(p^n) unit scalars
    for p in (2, 3, 5, 7):
        for rep in standard_representatives(p):
            if not rep.is_ramified:
                continue
            ring = rep.natural_ring()
            m = ring.modulus
            stab = stabilizer_elements(rep, ring)
            res = coset_normal_form_check(
                rep, ring, stab, torus_order(rep, ring), congruence_solution_set(rep, ring)
            )
            assert res.passed, res.detail
            assert res.coset_count == 2 * p**rep.delta
            assert len(stab) == 2 * p**rep.delta * m, rep.algebra
            assert len(stab) * (m - m // p) == res.coset_count * torus_order(rep, ring)


def _move_c(stab, i, m):
    stab[i, 3] = (stab[i, 3] + 1) % m
    return stab


def _scale_t(stab, i, m):
    stab[i, 0] = stab[i, 0] * (m - 1) % m
    return stab


def _duplicate_row(stab, i, m):
    return np.insert(stab, i, stab[i], axis=0)


@pytest.mark.parametrize("corrupt", [_move_c, _scale_t, _duplicate_row])
@pytest.mark.parametrize("p,idx", [(3, 2), (2, 4)])
def test_coset_normal_form_rejects_a_corrupted_row(p, idx, corrupt):
    # five eighths in: row 643 of (2, 4)'s 1024 slice rows
    rep = standard_representatives(p)[idx]
    ring = rep.natural_ring()
    stab = stabilizer_elements(rep, ring)
    args = (torus_order(rep, ring), congruence_solution_set(rep, ring))
    assert coset_normal_form_check(rep, ring, stab, *args).passed
    bad = corrupt(stab.copy(), len(stab) * 5 // 8 + 3, ring.modulus)
    res = coset_normal_form_check(rep, ring, bad, *args)
    assert not res.passed
    assert res.detail


def _drop_key(keys, m):
    return np.delete(keys, len(keys) // 2)


def _replace_key(keys, m):
    # the least key that solves nothing in place of a middle one, kept sorted
    other = np.setdiff1d(np.arange(m * m, dtype=np.int32), keys)[0]
    return np.sort(np.append(np.delete(keys, len(keys) // 2), other))


@pytest.mark.parametrize("wrong", [_drop_key, _replace_key])
@pytest.mark.parametrize("p,idx", [(3, 2), (2, 4)])
def test_coset_normal_form_rejects_a_representative_set_one_key_off(p, idx, wrong):
    # the slice is whole and each of its fibers holds p^n rows, so only
    # the comparison of the representatives with the solution keys can fail
    rep = standard_representatives(p)[idx]
    ring = rep.natural_ring()
    stab = stabilizer_elements(rep, ring)
    tsize = torus_order(rep, ring)
    solutions = congruence_solution_set(rep, ring)
    assert coset_normal_form_check(rep, ring, stab, tsize, solutions).passed
    bad = wrong(solutions, ring.modulus)
    assert bad.dtype == np.int32 and (np.diff(bad) > 0).all()
    assert np.setdiff1d(solutions, bad).size == 1
    res = coset_normal_form_check(rep, ring, stab, tsize, bad)
    assert not res.passed
    assert res.detail == "fiber sizes or representative set mismatch"


def _ramified_rings(p):
    # levels 1, 2, n and n + 1 of each ramified representative, up to 128
    for rep in standard_representatives(p):
        if rep.is_ramified:
            for n in sorted({1, 2, rep.n, rep.n + 1}):
                if p**n <= 128:
                    yield rep, ResidueRing(p, n)


def _factor_by_search(rep, ring, g):
    # every (u, v), v a unit, with g = (t, g2) a torus element (t, F),
    # t det F = 1, times (1, [[1, 0], [u, v]]), all pairs tried at once
    m = ring.modulus
    t, a, b, c, d = g
    u, v = np.divmod(np.arange(m * m), m)
    u, v = u[v % ring.p != 0], v[v % ring.p != 0]
    w = _unit_inverses(ring)[v]
    # F = g2 [[1, 0], [u, v]]^-1 = g2 [[1, 0], [-u w, w]]
    f = ((a - b * u * w) % m, b * w % m, (c - d * u * w) % m, d * w % m)
    hit = t * (f[0] * f[3] - f[1] * f[2]) % m == 1
    for entry, want in zip(f, torus_element(rep, f[0], f[1], m)):
        hit &= entry == want
    return set(zip(u[hit].tolist(), v[hit].tolist()))


def _factoring_row(rng, rep, ring):
    # a torus element (t, F), t det F = 1, times (1, [[1, 0], [u, v]])
    m, p = ring.modulus, ring.p
    while True:
        c, d = rng.randrange(m), rng.randrange(m)
        if rep.form(c, d) % p:
            break
    u = rng.randrange(m)
    v = rng.choice([w for w in range(m) if w % p])
    fa, fb, fc, fd = torus_element(rep, c, d, m)
    t = pow(rep.form(c, d), -1, m)
    return (t, (fa + fb * u) % m, fb * v % m, (fc + fd * u) % m, fd * v % m)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_closed_form_factors_each_row_as_the_search_does(p):
    # one row at a time: the closed-form solve must accept exactly the rows
    # that some (u, v), v a unit, factors, and key them by that (u, v);
    # random rows rarely factor, so half the rows factor by construction
    rng = random.Random(37 + p)
    for rep, ring in _ramified_rings(p):
        m = ring.modulus
        rows = [_factoring_row(rng, rep, ring) for _ in range(20)]
        rows += [tuple(rng.randrange(m) for _ in range(5)) for _ in range(20)]
        for row in rows:
            found = _factor_by_search(rep, ring, row)
            assert len(found) <= 1, (rep.algebra, m, row)  # the solve is unique
            keys = np.array(sorted(u * m + v for u, v in found), dtype=np.int32)
            # one row stands for its phi(m) unit multiples, a whole fiber
            res = coset_normal_form_check(
                rep, ring, np.array([row], dtype=np.int16), m - m // p, keys
            )
            assert res.passed == bool(found), (rep.algebra, m, row, res.detail)
            if not found:
                assert res.detail == f"row {row} does not factor through the torus"


def test_stabilizer_scan_matches_quotient():
    for p, idx in ((3, 2), (2, 2)):
        rep = standard_representatives(p)[idx]
        ring = rep.natural_ring()
        elems = stabilizer_elements(rep, ring)
        assert elems.dtype == np.int16 and elems.shape == (len(elems), 5)
        m = ring.modulus
        assert (m - m // p) * len(elems) == stabilizer_order(ring, orbit_size(rep, ring))
        for g in elems[:: max(1, len(elems) // 40)]:
            g = tuple(int(v) for v in g)
            assert act(g, rep.form, m).coeffs() == tuple(v % m for v in rep.form.coeffs())


def test_lift_saturation():
    for p in (2, 3):
        for rep in standard_representatives(p):
            res = lift_saturation_check(rep, rep.n + 1)
            assert res.lifts == p**3
            assert res.missing == () and res.absent == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_projected_orbit_equals_the_direct_bfs(p):
    # the level-n orbit read off the level-(n+1) BFS, against a BFS at n
    for rep in standard_representatives(p):
        ring = rep.natural_ring()
        res = lift_saturation_check(rep, rep.n + 1)
        assert res.missing == ()
        assert res.projected_size == orbit_size(rep, ring), rep.algebra


def test_projection_from_two_levels_up():
    # folds of p^2 cosets per coordinate
    for p in (2, 3):
        for rep in standard_representatives(p):
            if ResidueRing(p, rep.n + 2).modulus ** 3 > 1 << 21:
                continue
            res = lift_saturation_check(rep, rep.n + 2)
            assert res.projected_size == orbit_size(rep, rep.natural_ring()), rep.algebra


def test_rem_agrees_with_python_mod():
    for m in (2, 3, 7, 128, 343):
        edges = [-m * m - 1, -m * m, -m - 1, -m, -m + 1, -1, 0, 1, m - 2, m - 1, m, m + 1,
                 2 * m - 1, 3 * m * m - 1, (1 << 30) - 1, -(1 << 30)]
        rng = np.random.default_rng(m)
        for dtype in (np.int32, np.int64):
            v = np.concatenate([np.array(edges), rng.integers(-(1 << 30), 1 << 30, 200)])
            v = v.astype(dtype)
            expected = [int(e) % m for e in v.tolist()]
            got = _rem(v, m)
            assert got is v and got.dtype == dtype  # in place
            assert got.tolist() == expected, (m, dtype)
        assert [_rem(e, m) for e in edges] == [e % m for e in edges]


def _largest(power, bound):
    m = 1
    while (m + 1) ** power <= bound:
        m += 1
    return m


def test_int32_headroom_at_the_size_guards():
    # worst intermediates at the largest modulus each guard admits, counted
    # analytically (a BFS at the guard would walk a space of 2^26 forms)
    limit = 2**31
    m = _largest(3, MAX_ORBIT_SPACE)  # BFS: m^3 <= MAX_ORBIT_SPACE
    assert m == 406
    # three terms k * x with k, x < m; packed triples below m^3
    assert 3 * (m - 1) ** 2 < limit and m**3 < limit
    s = _largest(4, 4 * MAX_ORBIT_SPACE)  # scan: m^4 <= 4 * MAX_ORBIT_SPACE
    assert s == 128
    # form values a^2 + a1 a b + a2 b^2 below 3 s^3, packed keys below s^4;
    # the coset check's sums, of three products of three residues, too
    assert 3 * s**3 < limit and s**4 < limit
    # the stabilizer rows are residues below s, kept as int16
    assert s <= np.iinfo(np.int16).max


def test_coset_normal_form_check_leaves_the_stabilizer_unchanged():
    rep = standard_representatives(2)[4]
    ring = rep.natural_ring()
    stab = stabilizer_elements(rep, ring)
    before = stab.copy()
    res = coset_normal_form_check(
        rep, ring, stab, torus_order(rep, ring), congruence_solution_set(rep, ring)
    )
    assert res.passed
    assert stab.dtype == np.int16 and np.array_equal(stab, before)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (2, 5), (3, 1), (3, 2), (3, 3), (5, 2), (7, 1)])
def test_group_order_direct_count(p, n):
    ring = ResidueRing(p, n)
    assert _group_order_direct(ring) == group_order(ring)


def test_torus_order_direct_count_at_p_up_to_7():
    for p in (2, 3, 5, 7):
        for rep in standard_representatives(p):
            if rep.is_ramified:
                for level in (rep.n - 1, rep.n):
                    ring = ResidueRing(p, level)
                    assert torus_order(rep, ring) == torus_order_closed(rep, ring), rep.algebra


def _scalar_orbit(form, ring):
    """Depth-first closure of a form under group_generators, one act at a
    time."""
    m = ring.modulus
    start = BinaryQF(*(v % m for v in form.coeffs()))
    seen = {start}
    stack = [start]
    while stack:
        y = stack.pop()
        for g in group_generators(ring):
            z = act(g, y, m)
            if z not in seen:
                seen.add(z)
                stack.append(z)
    return seen


def _members(form, ring):
    """(whether canonical(y) was visited, for every packed triple y; orbit
    size) from _orbit_bitset, after checking that it visited class
    representatives only, sorted and each once, and that its size counts
    their classes."""
    reps, count = _orbit_bitset(form, ring)
    canonical, class_size = _classes(form, ring)
    m = ring.modulus
    assert reps.dtype == np.int32 and reps.ndim == 1
    assert (np.diff(reps) > 0).all()
    assert np.array_equal(canonical(_unpack(reps, m)), reps)
    assert count == reps.size * class_size
    block = 1 << 16
    return np.concatenate([
        np.isin(canonical(_unpack(np.arange(lo, min(lo + block, m**3)), m)), reps)
        for lo in range(0, m**3, block)
    ]), count


# at 2^5 and 5^2 the SL2 closure of some representatives is half the
# orbit (384 of 768 forms for ram:2 and ram:10 at 2^5, 600 of 1,200 for
# ram:5 and ram:10 at 5^2): only diag(u, 1) for u over the unit square
# classes reaches the rest
@pytest.mark.parametrize("p,level", [(2, 3), (3, 2), (5, 1), (2, 5), (5, 2)])
def test_orbit_bitset_matches_scalar_closure(p, level):
    ring = ResidueRing(p, level)
    m = ring.modulus
    for rep in standard_representatives(p):
        members, count = _members(rep.form, ring)
        got = {
            BinaryQF(v // (m * m), v // m % m, v % m)
            for v in np.flatnonzero(members).tolist()
        }
        expected = _scalar_orbit(rep.form, ring)
        assert got == expected, rep.algebra
        assert count == len(expected)


def _assert_same_orbit(form, ring):
    members, count = _members(form, ring)
    expected, expected_count = orbit_bitset_by_generators(form, ring)
    assert np.array_equal(members, expected), (form, ring.p, ring.n)
    assert count == expected_count == np.count_nonzero(expected)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_orbit_bitset_matches_the_generator_closure(p):
    for rep in standard_representatives(p):
        for level in (rep.n, rep.n + 1):
            _assert_same_orbit(rep.form, ResidueRing(p, level))


@pytest.mark.parametrize(
    "coeffs,p,level",
    [((3, 0, 9), 3, 3), ((2, 2, 4), 2, 4), ((5, 5, 10), 5, 2), ((4, 0, 0), 2, 3),
     ((0, 0, 0), 3, 2), ((0, 0, 0), 2, 3)],
)
def test_orbit_bitset_of_non_primitive_forms_matches_the_generator_closure(coeffs, p, level):
    # no coefficient is a unit: the class representative divides by the unit
    # part of the first coefficient of least valuation, not of a unit one
    _assert_same_orbit(BinaryQF(*coeffs), ResidueRing(p, level))


@pytest.mark.parametrize("p,level", [(2, 4), (3, 3), (5, 2)])
def test_canonical_map_is_a_unit_scaling_invariant(p, level):
    # the orbits of p^v times each standard representative, v = 0..level,
    # against every form y mod p^level
    ring = ResidueRing(p, level)
    m = ring.modulus
    y = _unpack(np.arange(m**3), m)
    val = np.array([valuation(r, p) if r else level for r in range(m)])
    content = val[y].min(axis=0)
    units = [u for u in range(1, m) if u % p]
    for v in range(level + 1):
        for rep in standard_representatives(p):
            form = BinaryQF(*(p**v * c for c in rep.form.coeffs()))
            canonical, class_size = _classes(form, ring)
            reps = canonical(y)
            mine = content == v
            # one image per class {u*y}, and every class has class_size forms
            for u in units:
                assert np.array_equal(canonical(_rem(u * y[:, mine], m)), reps[mine]), (form, u)
            assert set(np.bincount(reps[mine]).tolist()) <= {0, class_size}
            assert class_size == (1 if v == level else len(units) // p**v)
            # idempotent on representatives, whose first coefficient of
            # valuation v is p^v
            r = _unpack(reps, m)
            assert np.array_equal(canonical(r), reps)
            lead = np.argmax(val[r[:, mine]] == v, axis=0)
            assert (r[:, mine][lead, np.arange(lead.size)] == p**v % m).all()
            # every form keeps its content valuation, so one of another
            # valuation never reaches a visited representative
            assert np.array_equal(val[r].min(axis=0), content)
            visited, _ = _orbit_bitset(form, ring)
            assert not np.isin(reps[~mine], visited).any(), form


def _by_entries(rows):
    """The rows (t, a, b, c, d) in increasing (a, b, c, d), so that a
    comparison of rows is one of multisets."""
    rows = np.asarray(rows)
    return rows[np.lexsort(rows[:, :0:-1].T)]


def _whole_stabilizer(rows, ring):
    """The rows (t, a, b, c, d) scaled by every unit u to
    (t u^-2, u a, u b, u c, u d): the whole stabilizer from its slice a = 1,
    one block per unit in increasing u."""
    m = ring.modulus
    rows = np.asarray(rows, dtype=np.int64)
    return np.concatenate([
        np.column_stack((rows[:, 0] * pow(u, -2, m) % m, u * rows[:, 1:] % m))
        for u in range(m)
        if u % ring.p
    ])


@pytest.mark.parametrize("p,level", [(3, 2), (2, 3)])
def test_stabilizer_elements_matches_brute_force(p, level):
    ring = ResidueRing(p, level)
    m = ring.modulus
    units = [t for t in range(m) if t % p]
    for rep in standard_representatives(p):
        if not rep.is_ramified:
            continue
        x = BinaryQF(*(v % m for v in rep.form.coeffs()))
        brute = [
            [t, a, b, c, d]
            for a in range(m)
            for b in range(m)
            for c in range(m)
            for d in range(m)
            if (a * d - b * c) % p
            for t in units
            if act((t, a, b, c, d), x, m) == x
        ]
        got = stabilizer_elements(rep, ring)
        assert got.dtype == np.int16, rep.algebra
        got = _whole_stabilizer(got, ring)
        assert len(got) == len(brute), rep.algebra
        assert np.array_equal(_by_entries(got), _by_entries(brute)), rep.algebra


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_stabilizer_elements_match_the_bucket_scan(p):
    # every unit top row, against the slice a = 1 scaled by the units:
    # the same rows as a multiset, at the working level and, where the
    # scan's guard admits it (m <= 128), one level deeper.  At level 1 the
    # bucket a2 x(1, b) = 0 holds the singular bottom row (0, 0), which only
    # the determinant test rejects; from level 2 on it has valuation 1, and
    # that forces d to be a unit.
    for rep in standard_representatives(p):
        if not rep.is_ramified:
            continue
        for level in (1, rep.n, rep.n + 1):
            ring = ResidueRing(p, level)
            if ring.modulus > 128:
                continue
            got = stabilizer_elements(rep, ring)
            want = stabilizer_elements_by_buckets(rep, ring)
            assert got.dtype == np.int16, (rep, level)
            # the slice is the reference's rows with a = 1, in their order
            assert np.array_equal(got, want[want[:, 1] == 1]), (rep, level)
            got = _whole_stabilizer(got, ring)
            assert len(got) == len(want), (rep, level)
            assert np.array_equal(_by_entries(got), _by_entries(want)), (rep, level)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_stabilizer_elements_come_in_unit_blocks(p):
    # the scan lists one row per unit block of the stabilizer: the slice
    # a = 1, in strictly increasing (b, c, d), with t = x(1, b)^-1
    for rep in standard_representatives(p):
        if not rep.is_ramified:
            continue
        ring = rep.natural_ring()
        m = ring.modulus
        rows = stabilizer_elements(rep, ring).astype(np.int64)
        t, a, bcd = rows[:, 0], rows[:, 1], rows[:, 2:]
        assert (a == 1).all()
        keys = (bcd[:, 0] * m + bcd[:, 1]) * m + bcd[:, 2]
        assert (np.diff(keys) > 0).all(), rep
        assert (t * np.array([rep.form(1, b) for b in bcd[:, 0].tolist()]) % m == 1).all(), rep


def test_unit_inverses_table():
    for p, n in ((2, 4), (3, 2), (5, 2)):
        ring = ResidueRing(p, n)
        m = ring.modulus
        inv = _unit_inverses(ring)
        assert inv.dtype == np.int32 and inv.shape == (m,)
        for v in range(m):
            assert int(inv[v]) == (pow(v, -1, m) if v % p else 0)
        # built once per ring and shared, so no caller may write into it
        assert _unit_inverses(ResidueRing(p, n)) is inv
        assert not inv.flags.writeable
        with pytest.raises(ValueError):
            inv[1] = 0


def test_lift_saturation_reports_missing_lifts(monkeypatch):
    rep = standard_representatives(3)[2]
    assert (rep.form.coeffs(), rep.n) == ((1, 0, -3), 2)
    m = 27
    ring = ResidueRing(3, 3)
    canonical, class_size = _classes(rep.form, ring)
    # the 27 lifts of (1, 0, 6) mod 9 to Z/27 fill 9 classes {u*y} of 3: the
    # units u = 1 mod 9 move y0 alone
    lifts = [(1 + 9 * i, 9 * j, 6 + 9 * k) for i in range(3) for j in range(3) for k in range(3)]
    classes = canonical(np.array(lifts).T)
    assert class_size == 18 and np.unique(classes).size == 9
    for i in range(0, 27, 9):
        assert np.unique(classes[i : i + 9]).size == 9
    raw = quadmean.orbits._orbit_bitset

    def leaky(form, ring):
        visited, count = raw(form, ring)
        for y in dropped:
            i = canonical(np.array(y)[:, None])
            assert np.isin(i, visited).all()
            visited = visited[~np.isin(visited, i)]
        return visited, count

    monkeypatch.setattr(quadmean.orbits, "_orbit_bitset", leaky)
    # three classes dropped, named by lifts out of lexicographic order: each
    # takes the 3 lifts that differ from its lift in y0
    dropped = [(19, 0, 6), (1, 9, 24), (10, 18, 15)]
    res = lift_saturation_check(rep, 3)
    assert res.lifts == 27
    expected = sorted((y0, y1, y2) for y0 in (1, 10, 19) for _, y1, y2 in dropped)
    assert res.missing == tuple(expected) and res.absent == 9
    # with every class dropped, the count is 27 and the examples are the first 16
    dropped = lifts[:9]
    res = lift_saturation_check(rep, 3)
    assert res.absent == 27
    assert res.missing == tuple(sorted(lifts)[:16])


def test_lift_saturation_level_guard():
    rep = standard_representatives(3)[2]
    with pytest.raises(ValueError):
        lift_saturation_check(rep, rep.n)


def test_orbit_capacity_guard():
    with pytest.raises(CapacityError):
        orbit_size(BinaryQF(0, 1, 0), ResidueRing(2, 10))


def test_orbit_size_is_constant_on_the_orbit():
    rng = random.Random(31)
    rep = standard_representatives(3)[2]
    ring = rep.natural_ring()
    base = orbit_size(rep, ring)
    for _ in range(5):
        g = random_element(rng, ring)
        moved = act(g, rep.form, ring.modulus)
        assert orbit_size(moved, ring) == base


def test_multiplication_matrix_determinant_is_the_form_value():
    # exhaustive on small rings, sampled beyond
    for p, n in ((2, 5), (2, 6), (3, 3)):
        for rep in standard_representatives(p):
            if rep.form.x0 != 1:
                continue  # the multiplication matrix needs a monic form
            ring = ResidueRing(p, n)
            m = ring.modulus
            for c in range(m):
                for d in range(m):
                    a, b, cc, dd = torus_element(rep, c, d, m)
                    assert (a * dd - b * cc) % m == rep.form(c, d) % m

    rng = random.Random(37)
    for rep in standard_representatives(5):
        if rep.form.x0 != 1:
            continue
        ring = rep.natural_ring()
        m = ring.modulus
        for _ in range(300):
            c, d = rng.randrange(m), rng.randrange(m)
            a, b, cc, dd = torus_element(rep, c, d, m)
            assert (a * dd - b * cc) % m == rep.form(c, d) % m


def test_orbit_stabilizer_product_from_independent_counts():
    # BFS orbit times enumerated stabilizer recovers the full group order
    for p in (2, 3):
        for rep in standard_representatives(p):
            if not rep.is_ramified:
                continue
            ring = rep.natural_ring()
            m = ring.modulus
            scanned = (m - m // p) * len(stabilizer_elements(rep, ring))
            assert orbit_size(rep, ring) * scanned == group_order(ring), rep.algebra


def test_stabilizer_factors_through_congruence_solutions():
    for p in (2, 3, 5):
        for rep in standard_representatives(p):
            if not rep.is_ramified:
                continue
            ring = rep.natural_ring()
            product = len(congruence_solution_set(rep, ring)) * torus_order(rep, ring)
            assert stabilizer_order(ring, orbit_size(rep, ring)) == product, rep.algebra


def test_representative_discriminants_lie_in_distinct_square_classes():
    from quadmean.residue import square_class

    for p in (2, 3, 5, 7):
        reps = standard_representatives(p)
        labels = [square_class(r.form.discriminant(), p) for r in reps]
        assert len(set(labels)) == len(labels), (p, labels)
