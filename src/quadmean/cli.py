"""Command line front end.

Four subcommands:

  verify-local   run the exact local battery (orbits, stabilizers,
                 congruence systems, volumes, census) at chosen primes
  census         ramified-class census and density identities only
  constant       predicted leading coefficient for a condition list
  mean-value     empirical conditioned sums against the prediction

Every command emits a list of checked items; the process exits 0 only
if every item passes.  Formats: text (default), json, csv; json and csv
encode with json.dumps and one hook, _json_default.  The library
modules return values; this module alone decides which values an item
compares, under which anchor, and what counts as a pass.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .densities import (
    PiPower,
    census_expected,
    density_total,
    euler_factor,
    extension_census,
    local_density,
    ramified_density_sum,
    ramified_density_sum_closed,
)
from .fields import cached_table
from .meanvalue import (
    EULER_CUTOFF,
    check_checkpoints,
    convergence_report,
    default_checkpoints,
    euler_tail_bound,
    parse_conditions,
    predicted_constant,
    predicted_prefactor,
)
from .orbits import (
    StandardRep,
    _rem,
    congruence_count_closed,
    congruence_solution_check,
    congruence_solution_set,
    coset_normal_form_check,
    group_order,
    lift_saturation_check,
    local_algebras,
    stabilizer_elements,
    stabilizer_order,
    standard_representatives,
    torus_order,
    torus_order_closed,
)
from .residue import MAX_MODULUS, CapacityError, ResidueRing, is_prime

# loose sanity bound for non-final checkpoints; the final checkpoint of a
# sweep must land within the tight bound
FINAL_RATIO_TOL = 0.05
CONTEXT_RATIO_TOL = 0.5

_DIRECT_COUNT_MAX_MODULUS = 32


@dataclass(frozen=True)
class IdentityCheck:
    """One verified identity: a label, both sides, and the verdict."""

    name: str
    expected: object
    got: object
    passed: bool

    @classmethod
    def compare(cls, name: str, expected, got) -> "IdentityCheck":
        return cls(name, expected, got, expected == got)


def _json_default(v):
    """json.dumps's hook for the exact values json has no type for: a
    Fraction or PiPower is written as its string; anything else is refused."""
    if isinstance(v, (Fraction, PiPower)):
        return str(v)
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# verify-local
# ---------------------------------------------------------------------------

def _group_order_direct(ring: ResidueRing) -> int:
    """|GL1 x GL2| by enumeration: unit scalars times invertible matrices."""
    m = ring.modulus
    p = ring.p
    units = m - m // p
    vals = np.arange(m, dtype=np.int32)
    # every (b, c, d) at once, one row a at a time; |a d - b c| < m^2 fits int32
    bc = vals[:, None, None] * vals[:, None]
    matrices = 0
    for a in range(m):
        matrices += int(np.count_nonzero(_rem(a * vals - bc, p)))
    return units * matrices


def _census_items(p: int) -> list[IdentityCheck]:
    items = [
        IdentityCheck.compare(
            f"extension-census[p={p}]", census_expected(p), extension_census(p)
        ),
        *(
            IdentityCheck.compare(
                f"ramified-density-sum[p={p},{parity}]",
                ramified_density_sum_closed(p, parity),
                ramified_density_sum(p, parity),
            )
            for parity in ("even", "odd")
        ),
        IdentityCheck.compare(f"mass-identity[p={p}]", euler_factor(p), density_total(p)),
    ]
    expected_vals = sorted(
        [0, 0] + [d for d, cnt in census_expected(p).items() for _ in range(cnt)]
    )
    # one algebra per square class, split for the class of 1
    got_vals = sorted(alg.disc_valuation for alg in local_algebras(p))
    items.append(
        IdentityCheck.compare(f"square-class-valuations[p={p}]", expected_vals, got_vals)
    )
    return items


def _ramified_items(rep: StandardRep, ring: ResidueRing, got_orbit: int) -> list[IdentityCheck]:
    """Torus, stabilizer and congruence checks of a ramified representative.

    The scan lists the stabilizer's slice a = 1, p^n rows per torus coset,
    and stabilizer-scan counts each row's phi(p^n) unit multiples.  The
    slice is the largest local artifact; it is dropped on return, before
    the next representative's BFS or scan.
    """
    at = f"p={rep.p},{rep.algebra},level={rep.n}"
    expected_torus = torus_order_closed(rep, ring)
    expected_cong = congruence_count_closed(rep)
    expected_stab = expected_cong * expected_torus
    got_torus = torus_order(rep, ring)
    stab = stabilizer_elements(rep, ring)
    units = ring.modulus - ring.modulus // rep.p  # phi(p^n)
    solutions = congruence_solution_set(rep, ring)
    # equal exactly when the branches are disjoint and their union is the set
    described = np.sort(np.concatenate(congruence_solution_check(rep)))

    def pairs(keys: np.ndarray) -> list[tuple[int, int]]:  # (u, s) of the keys u*m + s
        return [divmod(k, ring.modulus) for k in keys.tolist()]

    cn = coset_normal_form_check(rep, ring, stab, got_torus, solutions)
    cn_got = {"fiber": got_torus if cn.passed else -1, "cosets": cn.coset_count}
    if not cn.passed:  # say why; a passing item prints no detail
        cn_got["detail"] = cn.detail
    return [
        IdentityCheck.compare(f"torus-order[{at}]", expected_torus, got_torus),
        IdentityCheck.compare(
            f"stabilizer-order[{at}]", expected_stab, stabilizer_order(ring, got_orbit)
        ),
        IdentityCheck.compare(f"stabilizer-scan[{at}]", expected_stab, units * len(stab)),
        IdentityCheck.compare(f"congruence-count[{at}]", expected_cong, len(solutions)),
        IdentityCheck.compare(f"congruence-structure[{at}]", pairs(solutions), pairs(described)),
        IdentityCheck(
            f"coset-normal-form[{at}]",
            {"fiber": expected_torus, "cosets": expected_cong},
            cn_got,
            cn.passed,
        ),
    ]


def _rep_items(rep: StandardRep) -> list[IdentityCheck]:
    """The checks of one representative, each local artifact computed once."""
    p, n = rep.p, rep.n
    tag = f"p={p},{rep.algebra}"
    ring = rep.natural_ring()
    vol = local_density(rep.algebra, p)
    orbit = vol * p ** (3 * n)  # not an integer only when the density is wrong
    expected_orbit = orbit.numerator if orbit.denominator == 1 else orbit
    # one BFS, at level n + 1: the level-n orbit is its image
    ls = lift_saturation_check(rep, n + 1)
    got_orbit = ls.projected_size
    items = [
        IdentityCheck.compare(f"orbit-size[{tag},level={n}]", expected_orbit, got_orbit)
    ]
    if rep.is_ramified:
        items += _ramified_items(rep, ring, got_orbit)
    ls_got = {"lifts": ls.lifts, "missing": ls.absent}
    if ls.absent:  # name the first absent lifts; a passing item names none
        ls_got["first_missing"] = ls.missing
    return items + [
        IdentityCheck.compare(
            f"volume-match[{tag},level={n}]", vol, Fraction(got_orbit, p ** (3 * n))
        ),
        IdentityCheck.compare(
            f"lift-saturation[{tag},level={n + 1}]", {"lifts": p**3, "missing": 0}, ls_got
        ),
        IdentityCheck.compare(
            f"volume-stable[{tag},level={n + 1}]",
            vol,
            Fraction(ls.orbit_size, p ** (3 * (n + 1))),
        ),
    ]


def _local_items(p: int) -> list[IdentityCheck]:
    items: list[IdentityCheck] = []
    reps = standard_representatives(p)
    for n in sorted({r.n for r in reps}):
        ring = ResidueRing(p, n)
        if ring.modulus <= _DIRECT_COUNT_MAX_MODULUS:
            items.append(
                IdentityCheck.compare(
                    f"group-order-direct[p={p},level={n}]",
                    group_order(ring),
                    _group_order_direct(ring),
                )
            )
    for rep in reps:
        items.extend(_rep_items(rep))
    items.extend(_census_items(p))
    return items


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------

def _parse_ints(text: str, option: str) -> list[int]:
    """A comma-separated list of integers; a bad item is refused naming the option."""
    out = []
    for part in text.split(","):
        try:
            out.append(int(part))
        except ValueError:
            raise ValueError(f"{option}: {part!r} is not an integer") from None
    return out


def _parse_primes(text: str) -> list[int]:
    out = []
    for v in _parse_ints(text, "--primes"):
        if v > MAX_MODULUS:  # is_prime is trial division: refuse first
            raise ValueError(f"prime {v} exceeds {MAX_MODULUS}")
        if not is_prime(v):
            raise ValueError(f"{v} is not prime")
        if v in out:
            raise ValueError(f"prime {v} repeated")
        out.append(v)
    return out


def _run_per_prime(items_at, args) -> tuple[dict, list[IdentityCheck]]:
    """verify-local and census: the items of each prime of --primes, in turn."""
    primes = _parse_primes(args.primes)
    return {"primes": primes}, [item for p in primes for item in items_at(p)]


def _run_constant(args) -> tuple[dict, list[IdentityCheck]]:
    conds = parse_conditions(args.cond)
    pref = predicted_prefactor(conds)
    tenth = EULER_CUTOFF // 10
    const = predicted_constant(conds)
    const_tenth = predicted_constant(conds, tenth)
    tol = 1.02 * euler_tail_bound(tenth)
    rel = abs(const - const_tenth) / const
    items = [
        IdentityCheck(f"exact-prefactor[{args.cond}]", None, pref, True),
        IdentityCheck(f"predicted-constant[{args.cond}]", None, const, True),
        IdentityCheck(
            f"euler-cutoff-stability[{args.cond}]",
            f"relative move under cutoff/10 <= {tol:.3e}",
            rel,
            rel <= tol,
        ),
    ]
    return {
        "cond": args.cond,
        "sign": conds.sign,
        "euler_cutoff": EULER_CUTOFF,
    }, items


def _run_mean_value(args) -> tuple[dict, list[IdentityCheck]]:
    conds = parse_conditions(args.cond)
    limit = args.X
    if limit < 1:
        raise ValueError(f"--X {limit} below 1")
    checkpoints = (
        _parse_ints(args.checkpoints, "--checkpoints")
        if args.checkpoints
        else default_checkpoints(limit)
    )
    checkpoints = check_checkpoints(checkpoints, limit)  # before the table is built
    table = cached_table(conds.sign, limit, args.cache)
    rows = convergence_report(table, conds, checkpoints)
    items = []
    final = rows[-1].upto
    for row in rows:
        tol = FINAL_RATIO_TOL if row.upto == final else CONTEXT_RATIO_TOL
        items.append(
            IdentityCheck(
                f"sum-ratio[{args.cond}]@X={row.upto}",
                {"predicted": row.predicted, "within": tol},
                {"empirical": row.empirical, "ratio": row.ratio},
                abs(row.ratio - 1) <= tol,
            )
        )
    if len(rows) > 1:
        first_dev = abs(rows[0].ratio - 1)
        last_dev = abs(rows[-1].ratio - 1)
        items.append(
            IdentityCheck(
                f"convergence-trend[{args.cond}]",
                f"deviation at X={final} below deviation at X={rows[0].upto}",
                {"first": first_dev, "final": last_dev},
                last_dev < first_dev,
            )
        )
    return {
        "cond": args.cond,
        "sign": conds.sign,
        "X": limit,
        "checkpoints": checkpoints,
        "euler_cutoff": EULER_CUTOFF,
        "cache": args.cache,
    }, items


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _emit(command: str, config: dict, items: list[IdentityCheck], fmt: str, out) -> None:
    passed = sum(1 for i in items if i.passed)
    summary = {"total": len(items), "passed": passed, "failed": len(items) - passed}
    if fmt == "json":
        doc = {
            "command": command,
            "config": config,
            "items": [
                {"anchor": i.name, "expected": i.expected, "got": i.got, "pass": i.passed}
                for i in items
            ],
            "summary": summary,
        }
        # one compact line: without indent, json takes its C encoder
        out.write(json.dumps(doc, default=_json_default) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["anchor", "expected", "got", "pass"])
        for i in items:
            writer.writerow(
                [i.name, json.dumps(i.expected, default=_json_default),
                 json.dumps(i.got, default=_json_default), json.dumps(i.passed)]
            )
    else:
        width = max((len(i.name) for i in items), default=0)
        for i in items:
            mark = "pass" if i.passed else "FAIL"
            out.write(f"[{mark}] {i.name:<{width}}  expected={i.expected}  got={i.got}\n")
        out.write(
            f"{summary['passed']}/{summary['total']} checks passed"
            + (f", {summary['failed']} FAILED\n" if summary["failed"] else "\n")
        )


class _Parser(argparse.ArgumentParser):
    """Errors are one `error:` line and exit 2, as in main; subparsers inherit it."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadmean",
        description="exact local checks and mean-value sweeps for quadratic fields",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output format (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify-local", help="full exact battery at chosen primes")
    pv.add_argument("--primes", default="2,3,5", help="comma-separated primes")

    pc = sub.add_parser("census", help="ramified census and density identities")
    pc.add_argument("--primes", default="2,3,5", help="comma-separated primes")

    pk = sub.add_parser("constant", help="predicted leading coefficient")
    pk.add_argument("--cond", required=True,
                    help='conditions, e.g. "inf=C,2=ram:-1"')

    pm = sub.add_parser("mean-value", help="empirical sums against the prediction")
    pm.add_argument("--cond", required=True,
                    help='conditions, e.g. "inf=RxR" or "inf=C,2=split"')
    pm.add_argument("--X", type=int, required=True, help="discriminant bound")
    pm.add_argument("--checkpoints", default="",
                    help="comma-separated partial bounds (default X/100, X/10, X)")
    pm.add_argument("--cache", default=None, help="table cache path")
    return parser


_RUNNERS = {
    "verify-local": partial(_run_per_prime, _local_items),
    "census": partial(_run_per_prime, _census_items),
    "constant": _run_constant,
    "mean-value": _run_mean_value,
}


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, items = _RUNNERS[args.command](args)
    except (ValueError, ArithmeticError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(args.command, config, items, args.format, out)
    return 0 if all(i.passed for i in items) else 1


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: fd 1 goes to devnull, so that the flush
        # at interpreter exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before all output was written", file=sys.stderr)
        code = 2
    sys.exit(code)
