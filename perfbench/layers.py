"""Which quadmean functions the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are the package modules `orbits`, `densities`, `fields`, `meanvalue`
and `cli`.  Every public function and public method of a layer is wrapped,
except the per-element helpers in SKIP, which run once per group element or
per discriminant and would distort the run; their cost stays in the self
time of their caller.  `residue` is not wrapped for the same reason.  Three
private functions are wrapped because they are the boundary of a named
stage: the orbit BFS, the direct group-order count and the regulator loop.

A wrapped function object is replaced under every name that binds it in any
loaded quadmean module (for example both `orbits.orbit_size` and
`cli.orbit_size`), because modules import names from one another.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import Counter, defaultdict

from tracer import SpanRecorder, self_times

LAYERS = ("orbits", "densities", "fields", "meanvalue", "cli")

# Per-element helpers and value types: too fine-grained to wrap.
SKIP = {
    "orbits": {"act", "discriminant", "torus_matrix", "torus_element",
               "torus_contains", "GroupElement", "BinaryQF", "StandardRep",
               "QuadraticAlgebraDescriptor"},
    "fields": {"regulator_real", "hr_real", "class_number_imaginary",
               "class_number_real", "is_fundamental", "local_type",
               "local_type_label", "analytic_class_number_imaginary",
               "analytic_hr_real", "fundamental_unit_exact",
               "reduction_cycle_count"},
    "densities": {"PiPower"},
    "cli": {"run"},
}

# Private functions that mark the boundary of a named stage.
PRIVATE = {
    "orbits": ("_orbit_bitset",),
    "cli": ("_group_order_direct",),
    "fields": ("DiscriminantTable._regulators",),
}


def _rep_key(args, kwargs):
    x, ring = args[0], args[1]
    return f"{x}|{ring.p}^{ring.n}"


class _RealHistogram:
    """Holds the last real h*R histogram until the table built from it
    returns, so the integrality margin is taken from return values."""

    hist = None


def _hooks(real_hist: _RealHistogram):
    def bfs(args, kwargs, result):
        return {"forms": result[1]}

    def lift(args, kwargs, result):
        return {"lifts": result.lifts}

    def scan(args, kwargs, result):
        return {"found": len(result), "candidates": args[1].modulus ** 4}

    def save(args, kwargs, result):
        return {"bytes": os.path.getsize(args[1])}

    def rows(args, kwargs, result):
        return {"rows": len(result)}

    def keep_real_hist(args, kwargs, result):
        real_hist.hist = result
        return {}

    def margin(args, kwargs, result):
        hist, real_hist.hist = real_hist.hist, None
        if result.sign < 0 or hist is None:
            return {}
        ratio = hist[result.magnitude] / result.reg
        return {"margin": float(abs(ratio - result.h).max(initial=0.0))}

    return {
        "orbits._orbit_bitset": (None, bfs),
        "orbits.orbit_size": (_rep_key, None),
        "orbits.stabilizer_elements": (_rep_key, scan),
        "orbits.congruence_solution_set": (_rep_key, None),
        "orbits.torus_order": (_rep_key, None),
        "orbits.lift_saturation_check": (None, lift),
        "fields.DiscriminantTable.save": (None, save),
        "fields.DiscriminantTable.load": (None, rows),
        "fields.DiscriminantTable._regulators": (None, rows),
        "fields.DiscriminantTable.compute": (None, margin),
        "fields.real_hr_histogram": (None, keep_real_hist),
        "fields.cached_table": (None, rows),
    }


def _public_names(module):
    """(qualname, owner, attr, raw) for every public function and method
    defined in the module, minus SKIP, plus PRIVATE."""
    layer = module.__name__.rsplit(".", 1)[1]
    skip = SKIP.get(layer, set())
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or name in skip:
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((name, module, name, obj))
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                    out.append((f"{name}.{attr}", obj, attr, raw))
    for qual in PRIVATE.get(layer, ()):
        owner = module
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is not None and attr in vars(owner):
            out.append((qual, owner, attr, vars(owner)[attr]))
    return out


def install(recorder: SpanRecorder) -> None:
    """Wrap the layers' functions in place; recorder.unpatch() undoes it."""
    modules = {layer: sys.modules[f"quadmean.{layer}"] for layer in LAYERS}
    package = [m for n, m in sys.modules.items()
               if n == "quadmean" or n.startswith("quadmean.")]
    hooks = _hooks(_RealHistogram())
    for layer, module in modules.items():
        for qual, owner, attr, raw in _public_names(module):
            span_name = f"{layer}.{qual}"
            key, counts = hooks.get(span_name, (None, None))
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(recorder.wrap(span_name, raw.__func__, key, counts))
                recorder.patch(owner, attr, wrapped)
            else:
                wrapped = recorder.wrap(span_name, raw, key, counts)
                recorder.patch(owner, attr, wrapped)
                if owner is module:
                    for other in package:
                        for alias, value in list(vars(other).items()):
                            if value is raw and not (other is module and alias == attr):
                                recorder.patch(other, alias, wrapped)


# name -> (unit, better); the per-layer metrics in BENCHMARK.json
PER_LAYER = {
    "orbits.bfs_s": ("s", "lower"),
    "orbits.bfs_calls": ("count", "lower"),
    "orbits.forms_enumerated": ("count", "lower"),
    "orbits.lift_saturation_s": ("s", "lower"),
    "orbits.lifts_checked": ("count", "lower"),
    "orbits.stabilizer_scan_s": ("s", "lower"),
    "orbits.stabilizer_scan_calls": ("count", "lower"),
    "orbits.stabilizer_yield": ("ratio", "higher"),
    "orbits.coset_normal_form_s": ("s", "lower"),
    "orbits.congruence_s": ("s", "lower"),
    "orbits.congruence_calls": ("count", "lower"),
    "orbits.torus_order_s": ("s", "lower"),
    "orbits.recompute_ratio": ("ratio", "lower"),
    "orbits.self_s": ("s", "lower"),
    "cli.group_order_direct_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "densities.census_s": ("s", "lower"),
    "densities.self_s": ("s", "lower"),
    "fields.sieve_s": ("s", "lower"),
    "fields.imag_hist_s": ("s", "lower"),
    "fields.type_codes_s": ("s", "lower"),
    "fields.cache_save_s": ("s", "lower"),
    "fields.cache_bytes": ("bytes", "lower"),
    "fields.cache_load_s": ("s", "lower"),
    "fields.cache_rows": ("count", "lower"),
    "fields.cache_hit": ("count", "higher"),
    "fields.real_hist_s": ("s", "lower"),
    "fields.regulators_s": ("s", "lower"),
    "fields.regulator_calls": ("count", "lower"),
    "fields.integrality_margin": ("ratio", "lower"),
    "fields.rows": ("count", "lower"),
    "fields.self_s": ("s", "lower"),
    "meanvalue.convergence_s": ("s", "lower"),
    "meanvalue.euler_product_s": ("s", "lower"),
    "meanvalue.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

_SELF_TIME = {
    "orbits.bfs_s": ("orbits._orbit_bitset",),
    "orbits.lift_saturation_s": ("orbits.lift_saturation_check",),
    "orbits.stabilizer_scan_s": ("orbits.stabilizer_elements",),
    "orbits.coset_normal_form_s": ("orbits.coset_normal_form_check",),
    "orbits.congruence_s": ("orbits.congruence_solution_set",
                            "orbits.congruence_solution_count",
                            "orbits.congruence_solution_check"),
    "orbits.torus_order_s": ("orbits.torus_order",),
    "cli.group_order_direct_s": ("cli._group_order_direct",),
    "densities.census_s": ("densities.census_check", "densities.census_expected",
                           "densities.extension_census", "densities.remark_sums_check",
                           "densities.ramified_density_sum", "densities.density_total",
                           "densities.mass_identity_check"),
    "fields.sieve_s": ("fields.fundamental_magnitudes",),
    "fields.imag_hist_s": ("fields.imaginary_class_number_histogram",),
    "fields.type_codes_s": ("fields.local_type_codes",),
    "fields.cache_save_s": ("fields.DiscriminantTable.save",),
    "fields.cache_load_s": ("fields.DiscriminantTable.load",),
    "fields.real_hist_s": ("fields.real_hr_histogram",),
    "fields.regulators_s": ("fields.DiscriminantTable._regulators",),
    "meanvalue.convergence_s": ("meanvalue.convergence_report",),
    "meanvalue.euler_product_s": ("meanvalue.euler_product", "meanvalue.primes_upto"),
}

# functions whose repeated calls on one (representative, level) are waste
_RECOMPUTED = ("orbits.orbit_size", "orbits.stabilizer_elements",
               "orbits.congruence_solution_set", "orbits.torus_order")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every metric in PER_LAYER except trace.overhead_s, from one traced
    call's spans.  Stages that did not run read 0."""
    selft = self_times(spans)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def total(name, field):
        return sum(s.get(field, 0) for s in by_name[name])

    m: dict[str, float] = {
        metric: sum(selft.get(n, 0.0) for n in names)
        for metric, names in _SELF_TIME.items()
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for n, t in selft.items() if n.startswith(layer + "."))
    m["orbits.bfs_calls"] = len(by_name["orbits._orbit_bitset"])
    m["orbits.forms_enumerated"] = total("orbits._orbit_bitset", "forms")
    m["orbits.lifts_checked"] = total("orbits.lift_saturation_check", "lifts")
    m["orbits.stabilizer_scan_calls"] = len(by_name["orbits.stabilizer_elements"])
    candidates = total("orbits.stabilizer_elements", "candidates")
    m["orbits.stabilizer_yield"] = (
        total("orbits.stabilizer_elements", "found") / candidates if candidates else 0.0
    )
    m["orbits.congruence_calls"] = len(by_name["orbits.congruence_solution_set"])
    keyed = Counter((n, s["key"]) for n in _RECOMPUTED for s in by_name[n])
    m["orbits.recompute_ratio"] = sum(keyed.values()) / len(keyed) if keyed else 0.0
    m["fields.cache_bytes"] = total("fields.DiscriminantTable.save", "bytes")
    m["fields.cache_rows"] = total("fields.DiscriminantTable.load", "rows")
    m["fields.regulator_calls"] = total("fields.DiscriminantTable._regulators", "rows")
    m["fields.integrality_margin"] = max(
        (s.get("margin", 0.0) for s in by_name["fields.DiscriminantTable.compute"]),
        default=0.0,
    )
    m["fields.rows"] = total("fields.cached_table", "rows")
    children = defaultdict(set)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].add(s["name"])
    m["fields.cache_hit"] = sum(
        1 for s in by_name["fields.cached_table"]
        if "fields.DiscriminantTable.load" in children[s["id"]]
        and "fields.DiscriminantTable.compute" not in children[s["id"]]
    )
    m["trace.spans"] = len(spans)
    return m
