"""Binary quadratic forms under GL(1) x GL(2) over Z/p^n.

A form x = x0*v1^2 + x1*v1*v2 + x2*v2^2 is acted on by g = (t, g2) via
(g.x)(v) = t * x(v * g2), with v a row vector.  local_algebras(p) lists
the separable quadratic algebras of Q_p, one per label of
residue.square_class_labels(p).  The module gives the standard orbital
representative of each, the order of the stabilizer torus of a ramified
representative, orbit enumeration by breadth-first closure of the
unit-scaling classes under the transvections and diag(u, 1) for u over the
unit square classes, the stabilizer scan (of the slice a = 1, which the
unit scalars of the torus carry onto the whole stabilizer), the coset
normal form of the stabilizer over the torus (one closed-form 2x2 solve
per slice row), and the unit congruence systems that account for the
torus cosets, whose second coset is the conjugation.

The array kernels (orbit closure, stabilizer scan, coset normal form)
reduce with _rem, floor division in place, and work in int32 wherever the
size guards bound every intermediate value below 2^31; the closure takes
_BLOCK class representatives at a time.  The form of a
ramified representative is evaluated over (Z/p^N)^2 once per ring, into
the read-only table _form_values that the torus count, the stabilizer scan
and the congruence set read.  Every (u, s) set (the congruence solutions,
the branches of their closed description at the working level, the coset
representatives) is kept as the sorted int32 keys u*m + s, the indices of
that table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .residue import (
    CapacityError,
    ResidueRing,
    disc_valuation,
    smallest_nonresidue,
    square_class,
    square_class_labels,
    valuation,
)

# Guard for orbit enumeration over the ambient space of p^(3n) forms.  The
# visited set is the sorted int32 array of the orbit's class
# representatives, so nothing is allocated per form of the space; the guard
# bounds the BFS's work and its int32 arithmetic: packed triples stay below
# m^3 <= 2^26 and coefficient sums below 3 m^2 with m <= 406, so it must
# keep both below 2^31.
MAX_ORBIT_SPACE = 1 << 26


def _rem(v, m: int):
    """v mod m for m > 0, computed in place on an integer array and returned.

    Floor division makes the result agree with Python's % on negative
    values.  numpy's floor division by a scalar has a fast path that its
    remainder lacks: on int32, v - v // m * m took 0.76 ns per element and
    v % m 4.9 ns (numpy 2.4.6, AMD EPYC).  v must be a fresh temporary that no
    caller still reads.  A Python int is reduced and returned as well.
    """
    v -= v // m * m
    return v


@dataclass(frozen=True)
class BinaryQF:
    """x0*v1^2 + x1*v1*v2 + x2*v2^2 with exact integer coefficients."""

    x0: int
    x1: int
    x2: int

    def coeffs(self) -> tuple[int, int, int]:
        return (self.x0, self.x1, self.x2)

    def discriminant(self) -> int:
        return self.x1 * self.x1 - 4 * self.x0 * self.x2

    def __call__(self, v1: int, v2: int) -> int:
        return self.x0 * v1 * v1 + self.x1 * v1 * v2 + self.x2 * v2 * v2

    def __str__(self) -> str:
        return f"({self.x0}, {self.x1}, {self.x2})"


# ---------------------------------------------------------------------------
# quadratic algebra descriptors and standard representatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticAlgebraDescriptor:
    """A separable quadratic algebra over Q_p or over R, by isomorphism type.

    Finite kinds "split", "unramified" and "ramified" carry the label of
    the square class whose root generates them (1 when split) and their
    discriminant valuation; local_algebras(p) builds them.  They carry no
    p (unramified(2) at 3 equals unramified(2) at 5), so every consumer
    keys them by p.  Archimedean kinds: "real-pair" (R x R), "complex".
    """

    kind: str
    square_class: int | None
    disc_valuation: int = 0

    @property
    def label(self) -> str:
        """The condition label of a finite algebra: "split", "unram" or
        "ram:<square class label>"."""
        if self.kind == "ramified":
            return f"ram:{self.square_class}"
        return {"split": "split", "unramified": "unram"}[self.kind]

    def __str__(self) -> str:
        if self.kind in ("unramified", "ramified"):
            return f"{self.kind}({self.square_class})"
        return self.kind


ALG_SPLIT = QuadraticAlgebraDescriptor("split", 1)
ALG_REAL_PAIR = QuadraticAlgebraDescriptor("real-pair", None)
ALG_COMPLEX = QuadraticAlgebraDescriptor("complex", None)


def local_algebras(p: int) -> list[QuadraticAlgebraDescriptor]:
    """Every separable quadratic algebra of Q_p, one per square class in
    square_class_labels(p) order, which the representatives, condition
    labels and type codes share: split for the class of 1, unramified for
    the other class of discriminant valuation 0, ramified for the rest."""
    algebras = []
    for label in square_class_labels(p):
        v = disc_valuation(label, p)
        kind = "split" if label == 1 else "ramified" if v else "unramified"
        algebras.append(QuadraticAlgebraDescriptor(kind, label, v))
    return algebras


# the dyadic classes that have no trace-0 Eisenstein representative:
# label -> (a1, a2) for v1^2 + a1 v1 v2 + a2 v2^2
_RAMIFIED_COEFFS_AT_2 = {-1: (2, 2), -5: (2, 6)}


@dataclass(frozen=True)
class StandardRep:
    """Standard orbital representative of a quadratic algebra at p.

    Monic representatives are the norm forms v1^2 + a1 v1 v2 + a2 v2^2 of
    an integral generator of the algebra's maximal order; the split
    algebra is represented by v1*v2.  For ramified representatives the
    dehomogenization v1^2 + a1 v1 + a2 is Eisenstein and the working
    level is n = delta + 2*ord_p(2) + 1.
    """

    p: int
    algebra: QuadraticAlgebraDescriptor
    form: BinaryQF
    m: int = field(init=False)
    delta: int = field(init=False)
    n: int = field(init=False)

    def __post_init__(self) -> None:
        m = valuation(2, self.p)
        delta = self.algebra.disc_valuation
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "n", delta + 2 * m + 1)
        self._validate()

    def _validate(self) -> None:
        kind = self.algebra.kind
        disc = self.form.discriminant()
        if kind == "split":
            if self.form.coeffs() != (0, 1, 0):
                raise ValueError("split representative must be v1*v2")
            return
        if self.form.x0 != 1:
            raise ValueError("non-split representatives are monic")
        if square_class(disc, self.p) != self.algebra.square_class:
            raise ValueError("discriminant square class does not match algebra")
        if valuation(disc, self.p) != self.delta:
            raise ValueError("discriminant valuation must equal delta")
        if kind == "unramified":
            return
        # ramified: Eisenstein shape and the disc-valuation dichotomy
        a1, a2, p = self.a1, self.a2, self.p
        # trace 0 has infinite valuation, past every m: the odd-delta case
        v1 = valuation(a1, p) if a1 else self.m + 1
        if v1 < 1 or a2 == 0 or valuation(a2, p) != 1:
            raise ValueError("ramified representative must be Eisenstein")
        expected_delta = 2 * v1 if v1 <= self.m else 2 * self.m + 1
        if self.delta != expected_delta:
            raise ValueError("disc valuation inconsistent with trace valuation")

    @property
    def a1(self) -> int:
        if self.form.x0 != 1:
            raise ValueError("a1 defined for monic representatives only")
        return self.form.x1

    @property
    def a2(self) -> int:
        if self.form.x0 != 1:
            raise ValueError("a2 defined for monic representatives only")
        return self.form.x2

    @property
    def is_ramified(self) -> bool:
        return self.algebra.kind == "ramified"

    def natural_ring(self) -> ResidueRing:
        return ResidueRing(self.p, self.n)

    def __str__(self) -> str:
        return f"{self.algebra} rep {self.form} at p={self.p}"


def standard_representatives(p: int) -> list[StandardRep]:
    """One representative per algebra of local_algebras(p), in its order.

    The unramified one is v1^2 + v1 v2 + c v2^2 for the least c >= 1 with
    1 - 4c in the unramified class: its root generates the maximal order.  A
    ramified class l is represented by v1^2 - l v2^2, apart from the
    dyadic classes of _RAMIFIED_COEFFS_AT_2 (no ramified label at odd p is
    negative, so none of them meets that table).
    """
    split, unram, *ramified = local_algebras(p)
    c = 1
    while square_class(1 - 4 * c, p) != unram.square_class:
        c += 1
    reps = [StandardRep(p, split, BinaryQF(0, 1, 0)), StandardRep(p, unram, BinaryQF(1, 1, c))]
    for alg in ramified:
        a1, a2 = _RAMIFIED_COEFFS_AT_2.get(alg.square_class, (0, -alg.square_class))
        reps.append(StandardRep(p, alg, BinaryQF(1, a1, a2)))
    return reps


# ---------------------------------------------------------------------------
# the stabilizer torus
# ---------------------------------------------------------------------------

def torus_order(x: StandardRep, ring: ResidueRing) -> int:
    """|torus(Z/p^N)| by direct count of pairs (c, d) with x(c, d) a unit.

    For Eisenstein representatives this equals q^(2N-1) (q - 1): the norm
    x(c, d) reduces to c^2 mod p, so exactly the pairs with c a unit count.
    """
    if not x.is_ramified:
        raise ValueError("torus counting implemented for ramified representatives")
    return int(np.count_nonzero(_form_values(x, ring) % ring.p))


def torus_order_closed(x: StandardRep, ring: ResidueRing) -> int:
    """q^(2N-1) (q - 1): the torus order of an Eisenstein representative."""
    if not x.is_ramified:
        raise ValueError("torus counting implemented for ramified representatives")
    q, n = ring.p, ring.n
    return q ** (2 * n - 1) * (q - 1)


def group_order(ring: ResidueRing) -> int:
    """|GL1 x GL2 (Z/p^N)| = p^(N-1)(p-1) * p^(4(N-1))(p^2-1)(p^2-p)."""
    p, n = ring.p, ring.n
    gl1 = p ** (n - 1) * (p - 1)
    gl2 = p ** (4 * (n - 1)) * (p * p - 1) * (p * p - p)
    return gl1 * gl2


# ---------------------------------------------------------------------------
# orbit enumeration
# ---------------------------------------------------------------------------

def _generators(ring: ResidueRing) -> list[tuple[int, int, int, int]]:
    """GL2 matrices (a, b, c, d) whose closure reaches every unit-scaling
    class of a G(Z/p^N)-orbit: the two elementary transvections, and
    diag(u, 1) for u generating the units mod squares, which is the least
    non-residue at odd p and -1 and 5 at p = 2 (a u = 1 mod p^N, whose
    diag(u, 1) is the identity, is left out).

    Z/p^N is local, so SL2 over it is generated by the transvections.  Any
    g in GL2 has det g = w s^2, w a product of the u above and s a unit, so
    g = diag(w, 1) diag(s, s^-1) (s I) h with h in SL2; s I acts on forms as
    the scalar s^2, which keeps every form in its unit-scaling class, as the
    GL1 scalars do.
    """
    m, p = ring.modulus, ring.p
    units = (-1, 5) if p == 2 else (smallest_nonresidue(p),)
    return [(1, 1, 0, 1), (1, 0, 1, 1)] + [(u % m, 0, 0, 1) for u in units if u % m != 1]


# Class representatives the BFS decodes at once: its (3G, block) int32
# images, 192 KB with G <= 4 generators.  No BFS frontier of
# verify-local --primes 2,3,5 or --primes 7 fills a block: the largest hold
# 505 and 2,726 classes.
_BLOCK = 1 << 12


def _unpack(packed: np.ndarray, m: int) -> np.ndarray:
    """Packed triples (x0 * m + x1) * m + x2 as the stacked rows x0, x1, x2."""
    x01 = packed // m
    x0 = x01 // m
    return np.stack((x0, x01 - x0 * m, packed - x01 * m))


def _distinct(a: np.ndarray, counts: bool = False):
    """The distinct values of a, sorted in place: a sort and a neighbour
    compare (in a fresh process a first np.unique call raised maxrss by
    1.67 MB, this by 0.52 MB).  With counts, also how often each occurs."""
    a.sort()
    first = np.flatnonzero(np.append(a.size > 0, a[1:] != a[:-1]))
    return (a[first], np.diff(first, append=a.size)) if counts else a[first]


def _contains(members: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each entry of v lies in the sorted, nonempty array members."""
    i = np.searchsorted(members, v)
    return members[np.minimum(i, members.size - 1)] == v


@functools.cache
def _classes(form: BinaryQF, ring: ResidueRing):
    """(canonical, class size) for the forms mod p^N of the content
    valuation v (least coefficient valuation, N at zero) of form.  Built
    once per (form, ring), with a read-only lead table, since the orbit BFS
    and the lift check share it.

    A form y of content v has the unit-scaling class {u*y : u a unit} of
    phi(p^(N-v)) forms, 1 at zero: u*y = y exactly when u = 1 mod p^(N-v).
    canonical maps a (3, k) array of residues y to the packed triples of y
    times the inverse of the unit part w of its first coefficient of
    valuation v, y_j = p^v w.  Every coefficient lies in p^v, so only
    w mod p^(N-v) matters: a class has one image, with coefficient j p^v.
    A form of another content valuation keeps it, so it never meets one.
    """
    m, p, n = ring.modulus, ring.p, ring.n
    v = min((valuation(c, p) for c in form.coeffs() if c % m), default=n)
    w = np.arange(p ** (n - v), dtype=np.int32)
    w = w[w % p != 0]  # the unit parts of the residues of valuation v
    lead = np.zeros(m, dtype=np.int32)
    lead[w * p**v] = _unit_inverses(ring)[w]
    lead.flags.writeable = False

    def canonical(y: np.ndarray) -> np.ndarray:
        k = lead[y]
        s = np.where(k[0] != 0, k[0], np.where(k[1] != 0, k[1], k[2]))
        # s = 1 where no coefficient has valuation v: the zero orbit, or another v
        y = _rem(y * np.maximum(s, 1), m)
        return (y[0] * m + y[1]) * m + y[2]

    return canonical, w.size or 1


def _orbit_bitset(form: BinaryQF, ring: ResidueRing) -> tuple[np.ndarray, int]:
    """Dense level-synchronous closure of the G-orbit of a form, kept as its
    unit-scaling class representatives (_classes).

    The scalar t commutes with g2, so the orbit is a union of classes of
    one content valuation: the closure walks the representatives under the
    GL2 generators alone, a block of them per int32 (3G, 3) @ (3, k)
    product whose images are mapped to their representatives.  Returns
    (visited, orbit size): visited is the sorted int32 array of packed
    representatives, so y lies in the orbit exactly when canonical(y) is
    in it, and the size is the number of classes times the class size.
    """
    m, p, n = ring.modulus, ring.p, ring.n
    if m**3 > MAX_ORBIT_SPACE:
        raise CapacityError(f"orbit space {p}^(3*{n}) exceeds {MAX_ORBIT_SPACE}")
    # the GL2 generators' matrices on (x0, x1, x2), stacked row 0 of each,
    # then row 1, then row 2, so the product splits into the three images
    mats = [
        ((a * a, a * b, b * b), (2 * a * c, a * d + b * c, 2 * b * d), (c * c, c * d, d * d))
        for a, b, c, d in _generators(ring)
    ]
    gens = (np.array(mats, dtype=np.int64).transpose(1, 0, 2).reshape(-1, 3) % m).astype(np.int32)
    canonical, class_size = _classes(form, ring)
    # packed triples (< m^3), the sums k0*x0 + k1*x1 + k2*x2 (< 3 m^2) and
    # scaled residues (< m^2) fit int32 for any space that passes the guard
    visited = frontier = canonical(np.array([[c % m] for c in form.coeffs()], dtype=np.int32))
    while frontier.size:
        found = []
        for lo in range(0, frontier.size, _BLOCK):
            y = _rem(gens @ _unpack(frontier[lo : lo + _BLOCK], m), m)
            found.append(canonical(y.reshape(3, -1)))
        # two generators can reach one class; sorted, the lookups run in order
        frontier = _distinct(np.concatenate(found))
        frontier = frontier[~_contains(visited, frontier)]
        visited = np.concatenate((visited, frontier))
        visited.sort(kind="stable")  # a merge of two sorted runs
    return visited, visited.size * class_size


def orbit_size(x: StandardRep | BinaryQF, ring: ResidueRing) -> int:
    """Size of the G(Z/p^N)-orbit of x by dense breadth-first closure."""
    form = x.form if isinstance(x, StandardRep) else x
    return _orbit_bitset(form, ring)[1]


def stabilizer_order(ring: ResidueRing, orbit: int) -> int | Fraction:
    """|G| / |orbit| for an orbit of the given size: an int when it divides,
    else the exact Fraction, which no stabilizer order equals."""
    q = Fraction(group_order(ring), orbit)
    return q.numerator if q.denominator == 1 else q


def lift_saturation_check(x: StandardRep, level: int) -> "LiftSaturation":
    """Check that every lift of x from level n to a deeper level N stays in
    the level-N orbit of x, i.e. the orbit saturates the residue ball.

    The orbit is a union of unit-scaling classes, so a lift lies in it
    exactly when its class representative was visited.  The same BFS gives
    the level-n orbit: reduction Z/p^N -> Z/p^n is equivariant and onto on
    G and on the units, so that orbit is the union of the level-n classes
    of the representatives reduced mod p^n; projected_size is their number
    times their size.
    """
    n = x.n
    if level <= n:
        raise ValueError(f"level must exceed the working level {n}")
    ring = ResidueRing(x.p, level)
    m = ring.modulus
    step = x.p**n
    visited, orbit_count = _orbit_bitset(x.form, ring)
    y0, y1, y2 = (np.arange(v % step, m, step, dtype=np.int32) for v in x.form.coeffs())
    # packed lifts, below m^3 and so int32, in lexicographic (y0, y1, y2) order
    idx = ((y0[:, None, None] * m + y1[:, None]) * m + y2).ravel()
    canonical = _classes(x.form, ring)[0]
    absent = idx[~_contains(visited, canonical(_unpack(idx, m)))]
    missing = tuple((v // (m * m), v // m % m, v % m) for v in absent[:16].tolist())
    coarse, class_size = _classes(x.form, ResidueRing(x.p, n))
    reps = coarse(_rem(_unpack(visited, m), step))
    projected = _distinct(reps).size * class_size
    return LiftSaturation(idx.size, orbit_count, projected, absent.size, missing)


@dataclass(frozen=True)
class LiftSaturation:
    lifts: int
    orbit_size: int
    projected_size: int  # the orbit's image at the working level x.n
    absent: int  # lifts outside the orbit; 0 exactly when the orbit saturates
    missing: tuple  # the first 16 of them


# ---------------------------------------------------------------------------
# stabilizer enumeration and the coset normal form
# ---------------------------------------------------------------------------

@functools.cache
def _unit_inverses(ring: ResidueRing) -> np.ndarray:
    """Inverse of every residue mod p^N as an int32 table, 0 at non-units.
    Built once per ring and returned read-only, since every call shares it."""
    m, p = ring.modulus, ring.p
    inv = np.zeros(m, dtype=np.int32)
    units = [v for v in range(m) if v % p]
    inv[units] = [pow(v, -1, m) for v in units]
    inv.flags.writeable = False
    return inv


@functools.cache
def _form_values(x: StandardRep, ring: ResidueRing) -> np.ndarray:
    """x(c, d) mod p^N at c*m + d for every pair of residues, as an int32
    table: the one evaluation of the form over (Z/p^N)^2 that the torus
    count, the stabilizer scan and the congruence set read.  Built once per
    (representative, ring) and returned read-only, since every call shares
    it.  Coefficients, c and d are residues, so a value is below 3 m^3
    before reduction, under 2^31 for every modulus m <= 128 the guard admits.
    """
    m = ring.modulus
    if m**4 > MAX_ORBIT_SPACE * 4:
        raise CapacityError(f"form-value table at modulus {m} too large")
    x0, x1, x2 = (v % m for v in x.form.coeffs())
    c, d = np.divmod(np.arange(m * m, dtype=np.int32), m)
    value = _rem(x0 * c * c + x1 * c * d + x2 * d * d, m)
    value.flags.writeable = False
    return value


def stabilizer_elements(x: StandardRep, ring: ResidueRing) -> np.ndarray:
    """The slice a = 1 of the stabilizer of the form of x in G(Z/p^N): the
    (t, g2) fixing it with top-left entry 1, as an int16 array of rows
    (t, 1, b, c, d) in increasing (b, c, d).

    g fixes x exactly when x(a, b) = t^-1, x(c, d) = a2 t^-1, the cross
    term matches a1, and g2 is invertible.  x is Eisenstein, so
    x(a, b) = a^2 mod p and a is a unit, and x(u v) = u^2 x(v) makes
    (t, g2) -> (u^-2 t, u g2) a bijection of the stabilizer for every unit
    u.  So each orbit of these scalars, phi(p^N) elements, meets the slice
    once, and the stabilizer has phi(p^N) times as many elements as the
    slice.  The scalars lie in the torus, so a torus coset holds
    |torus| / phi(p^N) = p^N slice rows.  For all b at once, the bottom
    rows (c, d) of the form-value bucket a2 x(1, b) are tested in one
    ragged pass of 2 m^2 pairs.
    """
    if not x.is_ramified:
        raise ValueError("stabilizer scan implemented for ramified representatives")
    m = ring.modulus
    a1 = x.a1 % m
    a2 = x.a2 % m
    # int32 throughout: the table's guard keeps m <= 128, so cross terms stay
    # below 2 m^2 and packed rows below m^2; the rows are residues, so they
    # fit int16
    value = _form_values(x, ring)
    # packed rows c*m + d, sorted by form value, increasing within a bucket
    order = np.argsort(value, kind="stable").astype(np.int32)
    bounds = np.searchsorted(value[order], np.arange(m + 1))
    b = np.arange(m, dtype=np.int32)
    r = value[m + b]  # x(1, b) = t^-1, a unit
    s = _rem(a2 * r, m)
    lo = bounds[s]
    size = bounds[s + 1] - lo
    # the bucket of b is its run in the ragged pass: b repeated, and the
    # bucket's slice of order, increasing in (b, c, d)
    b = np.repeat(b, size)
    bot = order[np.arange(b.size) + np.repeat(lo - np.cumsum(size) + size, size)]
    c, d = np.divmod(bot, m)
    cross = _rem(_rem(2 + a1 * b, m) * c + _rem(a1 + 2 * a2 * b, m) * d, m)
    # t^-1 = r is a unit, so t * cross == a1 exactly when cross == a1 r
    hit = (cross == _rem(a1 * r[b], m)) & (_rem(d - b * c, ring.p) != 0)
    t = _unit_inverses(ring)[r[b[hit]]]
    return np.stack((t, np.ones_like(t), b[hit], c[hit], d[hit]), axis=1).astype(np.int16)


@dataclass(frozen=True)
class CosetNormalForm:
    coset_count: int
    passed: bool
    detail: str


def coset_normal_form_check(
    x: StandardRep,
    ring: ResidueRing,
    stab: np.ndarray,
    tsize: int,
    solutions: np.ndarray,
) -> CosetNormalForm:
    """Verify that every stabilizer element factors as (torus element) *
    (1, [[1, 0], [u, v]]) with exactly one lower-triangular representative
    per torus coset, and that the (u, v) set is the congruence solution set.

    stab, tsize and solutions are stabilizer_elements, torus_order and
    congruence_solution_set of x at ring; solutions must be the sorted keys
    u*m + v, since the sorted keys of the representatives are compared with
    them as arrays.  stab is the slice a = 1: its unit multiples u*I lie in
    the torus, so they are the rest of the stabilizer, each in the coset of
    its slice row, and a coset holds tsize / phi(p^N) = p^N slice rows.
    Each row is one 2x2 solve, in closed form over all rows at once.  Write
    g2 = [[a, b], [c, d]], D = ad - bc and x(c, d) = c^2 + a1 cd + a2 d^2.
    g2 = F [[1, 0], [u, v]] with F a multiplication matrix
    [[c', d'], [-a2 d', c' + a1 d']] is the two linear equations
    c v - d u = -a2 b and a v - b u = d - a1 b in (u, v), of determinant
    -D, so exactly one (u, v) solves them: u = (a2 ab + cd - a1 bc)/D and
    v = x(d, -b)/D.  det F = D/v, so (t, F) fixes x, a torus element,
    exactly when x(d, -b) = t D^2.  So a row factors exactly when x(d, -b)
    is a unit (then so are D and t) and x(d, -b) = t D^2 mod p^N, and its
    representative is (u, t D).
    """
    m = ring.modulus
    a1, a2 = x.a1 % m, x.a2 % m
    # every operand is a residue below m <= 128 (the scan's guard), so each
    # sum of three products of three stays below 3 m^3 < 2^31: int32
    inv = _unit_inverses(ring)  # 0 at a non-unit, so it doubles as the unit test
    t, a, b, c, d = stab.T.astype(np.int32, order="C")
    det = _rem(a * d - b * c, m)
    norm = _rem(d * d - a1 * b * d + a2 * b * b, m)  # x(d, -b)
    ok = (inv[norm] != 0) & (norm == _rem(_rem(det * det, m) * t, m))
    if not ok.all():
        row = tuple(int(e) for e in stab[int(np.argmin(ok))])
        return CosetNormalForm(0, False, f"row {row} does not factor through the torus")
    u = _rem(inv[det] * _rem(a2 * a * b + c * d - a1 * b * c, m), m)
    fibers, counts = _distinct(u * m + _rem(t * det, m), counts=True)
    # a slice row stands for its phi(p^N) unit multiples, so with every
    # fiber tsize elements there are |Stab| / tsize fibers
    ok = bool((counts * (m - m // ring.p) == tsize).all()) and np.array_equal(fibers, solutions)
    detail = "" if ok else "fiber sizes or representative set mismatch"
    return CosetNormalForm(len(fibers), ok, detail)


# ---------------------------------------------------------------------------
# the unit congruence system
# ---------------------------------------------------------------------------

def congruence_solution_set(x: StandardRep, ring: ResidueRing) -> np.ndarray:
    """Solutions (u, s), s a unit, of  a1 s + 2u = a1  and
    u^2 + a1 u s + a2 s^2 = a2  in Z/p^N, as the sorted int32 keys u*m + s:
    the indices of _form_values at ring whose value x(u, s) is a2, filtered
    by the linear congruence."""
    m = ring.modulus
    a1 = x.a1 % m
    keys = np.flatnonzero(_form_values(x, ring) == x.a2 % m).astype(np.int32)
    u, s = np.divmod(keys, m)
    return keys[(s % ring.p != 0) & (_rem(2 * u + a1 * s - a1, m) == 0)]


def congruence_count_closed(x: StandardRep) -> int:
    """2 q^delta: the number of congruence solutions of a ramified
    representative, and the stabilizer's index over its torus."""
    if not x.is_ramified:
        raise ValueError("congruence system applies to ramified representatives")
    return 2 * x.p**x.delta


def congruence_solution_check(x: StandardRep) -> tuple[np.ndarray, ...]:
    """The closed description of the congruence solution set of x at its
    working level x.n, as its branches: congruence_solution_set at
    x.natural_ring() is their union, and they are disjoint.  Each branch is
    one boolean mask over the (u, s) grid of _form_values, kept as its
    sorted int32 keys u*m + s.  The description holds at the working level
    only, so no other ring is taken.

    Odd trace valuation (delta = 2m+1, trace 0 here): one branch,
    u = 0 mod p^(3m+2) and s^2 = 1 mod p^(4m+1).  Even delta = 2l <= 2m:
    two coset branches u in p^(l+2m+1) and u in a1 + p^(l+2m+1), each
    with s = 1 - (2/a1) u mod p^(l+2m+1).  The second is the coset of the
    conjugation (u, s) = (a1, -1); the paper writes its u as -b pi with
    pi = a2 and b = b2/b1, b1 = 4 pi^2/a1^2 - pi and b2 = a1 - 4 pi/a1, and
    b = -a1/pi identically.  An even delta occurs at p = 2 only, where
    v(a1) = l = 1, so 2/a1 is the inverse of the unit a1/2.
    """
    if not x.is_ramified:
        raise ValueError("characterization applies to ramified representatives")
    p, mod = x.p, x.natural_ring().modulus
    keys = np.arange(mod * mod, dtype=np.int32)
    u, s = np.divmod(keys, mod)
    unit = s % p != 0
    if x.delta == 2 * x.m + 1:
        masks = [(u % p ** (3 * x.m + 2) == 0) & ((s * s - 1) % p ** (4 * x.m + 1) == 0)]
    else:
        step = p ** (x.delta // 2 + 2 * x.m + 1)
        on_line = (s - 1 + pow(x.a1 // 2, -1, mod) * u) % step == 0
        masks = [((u - u0) % step == 0) & on_line for u0 in (0, x.a1)]
    return tuple(keys[mask & unit] for mask in masks)
