"""quadmean benchmark: run one workload through the CLI, check it, report metrics.

    python3 perfbench/run.py --workload local --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The benchmark imports `quadmean` from the
checkout's `src/` and refuses to run (exit 2, no result) if that import
resolves anywhere else.  Each workload calls `quadmean.cli.main` with
`--format json` in this process, serially, with the default `--workers 1`:
at least MIN_CALLS times and until `--seconds` have passed.  Every call's
items are checked (see README.md).  With `--trace 1` one more call runs with
the layers' functions wrapped (layers.py) and the per-layer metrics are
reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full result, with its
provenance, goes to perfbench/out/, and so do the spans of a traced call.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import layers
from probe import SpeedProbe
from tracer import SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_CALLS = 3
SETUP_ROUNDS = 5
SETUP_TIMEOUT_S = 120

# The finite conditions a seed picks from: every place=value label the CLI
# accepts at the tracked primes 2, 3 and 5.
FINITE_CONDITIONS = (
    "2=split", "2=unram", "2=ram:-1", "2=ram:-5", "2=ram:2", "2=ram:-2",
    "2=ram:10", "2=ram:-10",
    "3=split", "3=unram", "3=ram:3", "3=ram:6",
    "5=split", "5=unram", "5=ram:5", "5=ram:10",
)

# Largest |empirical/predicted - 1| accepted at the final checkpoint, by
# archimedean condition.  Over all 16 finite conditions the seed commit
# reaches at most 6.4e-4 (inf=C, X=10^6) and 2.02e-2 (inf=RxR, X=10^5).
RATIO_DEV_BOUND = {"C": 2e-3, "RxR": 3e-2}

GOLDEN_LOCAL = HERE / "golden" / "verify-local.json"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import quadmean.cli\n"
    "if len(sys.argv) > 2: sys.exit(quadmean.cli.main(sys.argv[2:]))\n"
)


@dataclass
class Call:
    """One CLI invocation: exit code (None on a crash), stdout, raw timings,
    and the probe's scale to reference seconds over the call."""

    rc: int | None
    stdout: str
    start: float
    wall_s: float
    cpu_s: float
    error: str = ""
    scale: float = 1.0

    def rescale(self, probe: SpeedProbe) -> "Call":
        self.scale = probe.scale(self.start, self.start + self.wall_s)
        return self

    def doc(self) -> dict | None:
        if self.rc not in (0, 1):
            return None
        try:
            doc = json.loads(self.stdout)
        except json.JSONDecodeError:
            return None
        return doc if isinstance(doc, dict) and isinstance(doc.get("items"), list) else None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """A CLI command built from the seed, and the checks on its output."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir

    def argv(self) -> list[str]:
        raise NotImplementedError

    def setup_argv(self) -> list[str]:
        """CLI arguments each set-up round runs after the imports, if any."""
        return []

    def after_setup(self, calls: list[Call], tally: Tally) -> None:
        pass

    def after_call(self) -> None:
        pass

    def check(self, call: Call, tally: Tally) -> float | None:
        """Add this call's checks to the tally; returns ratio_dev if any."""
        raise NotImplementedError


class Local(Workload):
    name = "local"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        primes = ["2", "3", "5"]
        self.rng.shuffle(primes)
        self.primes = ",".join(primes)
        with open(GOLDEN_LOCAL) as f:
            self.golden = json.load(f)["items"]

    def argv(self):
        return ["verify-local", "--primes", self.primes]

    def check(self, call, tally):
        tally.add(call.rc == 0)
        doc = call.doc()
        items = {} if doc is None else {i.get("anchor"): i for i in doc["items"]}
        for g in self.golden:
            i = items.pop(g["anchor"], None)
            tally.add(i is not None and i.get("pass") is True
                      and i.get("expected") == g["expected"] and i.get("got") == g["got"])
        for i in items.values():
            tally.add(i.get("pass") is True)
        return None


class MeanValue(Workload):
    arch = ""
    X = 0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cond = f"inf={self.arch},{self.rng.choice(FINITE_CONDITIONS)}"
        checkpoints = sorted({self.X // 100, self.X // 10, self.X})
        self.anchors = [f"sum-ratio[{self.cond}]@X={x}" for x in checkpoints]
        self.anchors.append(f"convergence-trend[{self.cond}]")

    def argv(self):
        return ["mean-value", "--cond", self.cond, "--X", str(self.X)]

    def check(self, call, tally):
        tally.add(call.rc == 0)
        doc = call.doc()
        items = {} if doc is None else {i.get("anchor"): i for i in doc["items"]}
        for anchor in self.anchors:
            tally.add(items.pop(anchor, {}).get("pass") is True)
        for i in items.values():
            tally.add(i.get("pass") is True)
        ratio_dev = None
        if doc is not None:
            final = next((i for i in doc["items"] if i.get("anchor") == self.anchors[-2]), None)
            try:
                ratio_dev = abs(float(final["got"]["ratio"]) - 1.0)
            except (TypeError, KeyError, ValueError):
                ratio_dev = None
        tally.add(ratio_dev is not None and ratio_dev <= RATIO_DEV_BOUND[self.arch])
        return ratio_dev


class Real(MeanValue):
    name = "real"
    arch = "RxR"
    X = 100_000


class ImagCold(MeanValue):
    name = "imag-cold"
    arch = "C"
    X = 1_000_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cache = workdir / "cold.csv"

    def argv(self):
        return super().argv() + ["--cache", str(self.cache)]

    def after_call(self):
        self.cache.unlink(missing_ok=True)


class ImagWarm(MeanValue):
    name = "imag-warm"
    arch = "C"
    X = 1_000_000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cache = workdir / "warm.csv"
        self.reference = None

    def argv(self):
        return super().argv() + ["--cache", str(self.cache)]

    def setup_argv(self):
        # every round builds the cache from nothing
        self.cache.unlink(missing_ok=True)
        return ["--format", "json"] + self.argv()

    def after_setup(self, calls, tally):
        # a set-up round is a cold build of the same command: check it as one
        for call in calls:
            MeanValue.check(self, call, tally)
            doc = call.doc()
            if call.rc == 0 and doc is not None and self.reference is None:
                self.reference = _item_values(doc)

    def check(self, call, tally):
        ratio_dev = super().check(call, tally)
        doc = call.doc()
        # the cached table must give exactly what the cold build gave
        tally.add(self.reference is not None and doc is not None
                  and _item_values(doc) == self.reference)
        return ratio_dev


WORKLOADS = {w.name: w for w in (Local, ImagCold, ImagWarm, Real)}


def _item_values(doc: dict) -> list:
    return [(i.get("anchor"), i.get("expected"), i.get("got"), i.get("pass"))
            for i in doc["items"]]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def call_cli(argv: list[str]) -> Call:
    """quadmean.cli.main(["--format", "json", *argv]) in this process.

    The name is looked up at call time, so a traced run reaches the wrapped
    function.  A crash is a measured outcome: it is returned, not raised.
    """
    import quadmean.cli

    buf = io.StringIO()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    error = ""
    try:
        rc = quadmean.cli.main(["--format", "json", *argv], out=buf)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - reported as failed checks
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    return Call(rc, buf.getvalue(), t0, wall, _cpu_s() - cpu0, error)


def setup_round(argv: list[str], probe: SpeedProbe) -> Call:
    """A fresh interpreter that imports quadmean.cli and, if argv is given,
    runs that CLI command.  Its wall time is the set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    call = Call(proc.returncode, proc.stdout, t0, wall, 0.0, proc.stderr[-2000:])
    return call.rescale(probe)


def measure(workload: Workload, seconds: float, tally: Tally,
            probe: SpeedProbe) -> tuple[list[Call], list[float]]:
    ratio_devs = []
    calls = []
    start = time.perf_counter()
    while len(calls) < MIN_CALLS or time.perf_counter() - start < seconds:
        call = call_cli(workload.argv()).rescale(probe)
        workload.after_call()
        dev = workload.check(call, tally)
        if dev is not None:
            ratio_devs.append(dev)
        calls.append(call)
    return calls, ratio_devs


def traced_call(workload: Workload, tally: Tally, spans_path: Path,
                probe: SpeedProbe) -> tuple[Call, dict]:
    """One call with the layers wrapped; per-layer times come back in
    reference seconds, like the end-to-end ones."""
    recorder = SpanRecorder()
    layers.install(recorder)
    try:
        call = call_cli(workload.argv()).rescale(probe)
    finally:
        recorder.unpatch()
    workload.after_call()
    workload.check(call, tally)
    recorder.write(spans_path)
    metrics = layers.layer_metrics(recorder.spans)
    for name, (unit, _) in layers.PER_LAYER.items():
        if unit == "s" and name in metrics:
            metrics[name] *= call.scale
    return call, metrics


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_revision() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(seed: int, quadmean_file: str) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": _git_revision(),
        "seed": seed,
        "quadmean_file": quadmean_file,
    }


def _refuse(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_checkout_quadmean() -> str:
    """Import quadmean from this checkout's src/; exit 2 if it is not there."""
    if not (SRC / "quadmean" / "__init__.py").is_file():
        _refuse(f"{SRC / 'quadmean'} not found; run from a quadmean checkout")
    sys.path.insert(0, str(SRC))
    try:
        import quadmean.cli
    except ImportError as exc:
        _refuse(f"cannot import quadmean from {SRC}: {exc}")
    resolved = Path(quadmean.cli.__file__).resolve()
    if not resolved.is_relative_to(SRC.resolve()):
        _refuse(f"quadmean resolved to {resolved}, outside {SRC}")
    return str(resolved)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def declared_metrics(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)[kind]


def select(values: dict, units: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json declares under `kind`, with their units;
    a declared metric that was not measured, or whose unit differs, is an
    error in the benchmark."""
    out = {}
    for m in declared_metrics(kind):
        name = m["name"]
        if name not in values or units[name] != m["unit"]:
            raise RuntimeError(f"{kind} metric {name} not measured in unit {m['unit']}")
        out[name] = {"value": values[name], "unit": m["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    quadmean_file = import_checkout_quadmean()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tally = Tally()
    spans_path = None
    per_layer = {}
    try:
        with SpeedProbe() as probe:
            workload = WORKLOADS[args.workload](args.seed, workdir)
            setup = [setup_round(workload.setup_argv(), probe) for _ in range(SETUP_ROUNDS)]
            workload.after_setup(setup, tally)
            calls, ratio_devs = measure(workload, args.seconds, tally, probe)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if args.trace:
                spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
                traced, per_layer = traced_call(workload, tally, spans_path, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = {
        "wall_s": statistics.median(c.wall_s * c.scale for c in calls),
        "cpu_s": statistics.median(c.cpu_s * c.scale for c in calls),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(c.wall_s * c.scale for c in setup),
    }
    raw = {
        "wall_s": statistics.median(c.wall_s for c in calls),
        "cpu_s": statistics.median(c.cpu_s for c in calls),
        "setup_s": statistics.median(c.wall_s for c in setup),
    }
    if args.trace:
        per_layer["trace.overhead_s"] = traced.wall_s * traced.scale - end_to_end["wall_s"]
        units = {k: unit for k, (unit, _) in layers.PER_LAYER.items()}
        metrics = select(per_layer, units, "per_layer")
    else:
        metrics = select(end_to_end, END_TO_END_UNITS, "end_to_end")
    ratio_dev = statistics.median(ratio_devs) if ratio_devs else None
    fail_frac = tally.failed / tally.attempted
    result = {
        "workload": args.workload,
        "argv": ["--format", "json", *workload.argv()],
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed, quadmean_file),
        "calls": [{"rc": c.rc, "wall_s": c.wall_s, "cpu_s": c.cpu_s, "scale": c.scale,
                   "error": c.error} for c in calls],
        "setup": [{"rc": c.rc, "wall_s": c.wall_s, "scale": c.scale} for c in setup],
        "checks": {"attempted": tally.attempted, "failed": tally.failed,
                   "fail_frac": fail_frac, "ratio_dev": ratio_dev,
                   "ratio_dev_bound": RATIO_DEV_BOUND.get(getattr(workload, "arch", ""))},
        "end_to_end": end_to_end,
        "end_to_end_raw": raw,
        "per_layer": per_layer,
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
    }
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")

    print(f"workload {args.workload}: {len(calls)} calls of {' '.join(result['argv'])}")
    for name, value in {**end_to_end, **per_layer}.items():
        unit = END_TO_END_UNITS.get(name) or layers.PER_LAYER[name][0]
        extra = f"  (raw {raw[name]:.6g} {unit})" if name in raw else ""
        print(f"  {name:32s} {value:.6g} {unit}{extra}")
    print(f"  {'fail_frac':32s} {fail_frac:.6g} ({tally.failed} of {tally.attempted} checks)")
    if ratio_dev is not None:
        print(f"  {'ratio_dev':32s} {ratio_dev:.6g} (bound {result['checks']['ratio_dev_bound']})")
    print(f"result written to {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
