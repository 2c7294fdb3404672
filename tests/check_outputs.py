"""Save the output of a fixed list of CLI runs, so that two checkouts can be
compared with one `diff -r`:

    python3 tests/check_outputs.py OUTDIR

Each command of COMMANDS runs once per output format (text, json, csv), in
its own process, with the `src/` of the checkout that holds this file on
the path.  Run k writes OUTDIR/<k>-<format>.stdout, .stderr and .code (the
exit code), and OUTDIR/commands.txt lists the command lines in order.
First, `mean-value --cond inf=C --X 1000000 --cache` runs once, in text,
into a temporary path that the saved files spell TMP; it writes
OUTDIR/cache.stdout, .stderr and .code, and its cache is saved as
OUTDIR/cache.npz.

There are no golden files: float outputs can differ across numpy builds,
so compare two checkouts on one machine.  The file name keeps this script
out of the repository's own test run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
FORMATS = ("text", "json", "csv")
CACHE_RUN = ["mean-value", "--cond", "inf=C", "--X", "1000000", "--cache"]
COMMANDS = [
    ["verify-local", "--primes", "2,3,5"],
    ["verify-local", "--primes", "5,2,3"],
    ["verify-local", "--primes", "7"],
    ["verify-local", "--primes", "2,3"],
    ["verify-local", "--primes", "11"],
    ["census", "--primes", "2,3,5,7,11,13"],
    ["constant", "--cond", "inf=C,2=ram:-1"],
    ["mean-value", "--cond", "inf=C,3=split", "--X", "1000000"],
    ["mean-value", "--cond", "inf=RxR,5=split", "--X", "100000"],
    ["mean-value", "--cond", "inf=RxR,5=split", "--X", "10000"],
    ["mean-value", "--cond", "inf=RxR", "--X", "100000"],
    ["mean-value", "--cond", "inf=RxR,2=unram,3=split", "--X", "100000"],
    ["mean-value", "--cond", "inf=C,2=ram:-1,3=split,5=unram", "--X", "100000"],
]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp, "cache.npz")
        runs = [(["--format", "text"] + CACHE_RUN + [str(cache)], "cache")]
        for k, cmd in enumerate(COMMANDS):
            runs += [(["--format", fmt] + cmd, f"{k:02d}-{fmt}") for fmt in FORMATS]
        for args, name in runs:
            done = subprocess.run(
                [sys.executable, "-m", "quadmean", *args], env=env, capture_output=True
            )
            # the temporary path is the one part of a run that differs between runs
            (out / f"{name}.stdout").write_bytes(done.stdout.replace(tmp.encode(), b"TMP"))
            (out / f"{name}.stderr").write_bytes(done.stderr.replace(tmp.encode(), b"TMP"))
            (out / f"{name}.code").write_text(f"{done.returncode}\n")
            lines.append(f"{name}: {' '.join(args)}".replace(tmp, "TMP"))
        shutil.copyfile(cache, out / "cache.npz")
    (out / "commands.txt").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
