"""End-to-end command checks: output schema, exit codes, cache reuse."""

import csv
import dataclasses
import fcntl
import functools
import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import quadmean.cli
import quadmean.fields
import quadmean.meanvalue
import quadmean.orbits
import quadmean.residue
from quadmean.cli import build_parser, main
from quadmean.orbits import BinaryQF, orbit_size
from quadmean.residue import CapacityError, ResidueRing

GOLDEN_LOCAL = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "golden", "verify-local.json"
)


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def test_census_json_schema_and_counts():
    code, out = run_cli(["--format", "json", "census"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "census"
    assert doc["config"]["primes"] == [2, 3, 5]
    assert set(doc["summary"]) == {"total", "passed", "failed"}
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["passed"] == doc["summary"]["total"] == len(doc["items"])
    for item in doc["items"]:
        assert set(item) == {"anchor", "expected", "got", "pass"}
        assert item["pass"] is True
    anchors = [i["anchor"] for i in doc["items"]]
    assert "mass-identity[p=2]" in anchors
    assert any(a.startswith("extension-census[p=5") for a in anchors)


def test_census_single_prime_text():
    code, out = run_cli(["census", "--primes", "7"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(l.startswith("[pass]") for l in lines[:-1])
    assert "FAILED" not in lines[-1]


def test_verify_local_small_primes():
    code, out = run_cli(["--format", "json", "verify-local", "--primes", "2,3,5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0
    anchors = [i["anchor"] for i in doc["items"]]
    # every verification family shows up for two primes
    for stem in (
        "orbit-size",
        "torus-order",
        "stabilizer-order",
        "congruence-count",
        "congruence-structure",
        "coset-normal-form",
        "volume-match",
        "volume-stable",
        "lift-saturation",
        "mass-identity",
    ):
        assert any(stem in a and "p=2" in a for a in anchors), stem
        assert any(stem in a and "p=3" in a for a in anchors), stem
    # every item, in order, with exact expected/got: the recorded run
    with open(GOLDEN_LOCAL) as f:
        assert doc["items"] == json.load(f)["items"]


def test_verify_local_reaches_p7():
    code, out = run_cli(["--format", "json", "verify-local", "--primes", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == {"total": 34, "passed": 34, "failed": 0}
    assert all(item["pass"] for item in doc["items"])


def test_constant_command_prefactor():
    code, out = run_cli(["--format", "json", "constant", "--cond", "inf=C,2=ram:-1"])
    assert code == 0
    doc = json.loads(out)
    by_anchor = {i["anchor"]: i for i in doc["items"]}
    pre = by_anchor["exact-prefactor[inf=C,2=ram:-1]"]
    assert pre["got"] == "1/384*pi^1"
    const = by_anchor["predicted-constant[inf=C,2=ram:-1]"]
    assert abs(const["got"] - 0.006377149750224181) < 1e-8
    stability = by_anchor["euler-cutoff-stability[inf=C,2=ram:-1]"]
    assert stability["pass"] is True


def test_mean_value_imaginary_small(tmp_path):
    cache = str(tmp_path / "neg.csv")
    argv = ["--format", "json", "mean-value", "--cond", "inf=C", "--X", "10000",
            "--cache", cache]
    code, out = run_cli(argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["checkpoints"] == [100, 1000, 10000]
    assert doc["summary"]["total"] == 4  # three ratios plus the trend item
    assert doc["summary"]["failed"] == 0
    trend = [i for i in doc["items"] if i["anchor"].startswith("convergence-trend")]
    assert len(trend) == 1
    assert trend[0]["got"]["final"] < trend[0]["got"]["first"]

    # second run must be served from the cache without rewriting it
    stamp = os.path.getmtime(cache)
    code, out2 = run_cli(argv)
    assert code == 0
    assert os.path.getmtime(cache) == stamp
    assert json.loads(out2)["items"] == doc["items"]

    # checkpoints given out of order run, and are reported, in ascending order
    code, out3 = run_cli([*argv, "--checkpoints", "10000,100,1000"])
    assert code == 0
    doc3 = json.loads(out3)
    assert doc3["config"]["checkpoints"] == [100, 1000, 10000]
    assert doc3["items"] == doc["items"]


def _cut_to_two_thirds(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) * 2 // 3])


def _flip_a_byte_of_h(path):
    """One bit in the middle of h's data: a change that only the CRC of the
    member catches."""
    data = bytearray(path.read_bytes())
    with np.load(path) as z:
        h = z["h"]
    start = data.index(h.tobytes())
    at = start + h.nbytes // 2
    assert start <= at < start + h.nbytes
    data[at] ^= 1
    path.write_bytes(bytes(data))


def _old_csv_cache(path):
    path.write_text(
        "#quadmean-table sign=-1 limit=10000\nD,h,R,fp2,fp3,fp5\n-3,1,1,unram,ram:-3,unram\n"
    )


def _rewrite(edit):
    """Damage made by editing the entries and saving them whole again, so
    that the archive itself is sound."""

    @functools.wraps(edit)
    def damage(path):
        with np.load(path) as z:
            entries = dict(z)
        edit(entries)
        with open(path, "wb") as f:
            np.savez(f, **entries)

    return damage


@_rewrite
def _header_without_limit(entries):
    del entries["limit"]


@_rewrite
def _wrong_version(entries):
    entries["version"] += 1


@_rewrite
def _sign_zero(entries):
    entries["sign"] = np.int32(0)


@_rewrite
def _version_one_with_codes(entries):
    entries["version"] = np.int32(1)
    entries["codes"] = np.zeros((entries["h"].size, 3), dtype=np.int8)


@_rewrite
def _pickled_h(entries):
    entries["h"] = entries["h"].astype(object)


def _on_a_real_cache(damage):
    damage.cond = "inf=RxR"
    return damage


@_on_a_real_cache
@_rewrite
def _reg_as_float32(entries):
    entries["reg"] = entries["reg"].astype(np.float32)


@_on_a_real_cache
@_rewrite
def _reg_infinite(entries):
    entries["reg"][7] = np.inf


@_on_a_real_cache
@_rewrite
def _reg_above_its_bound(entries):
    # above sqrt(D)(log D + 2)/2 at every D <= 10^4, though finite
    entries["reg"][7] = 1e300


@_rewrite
def _h_as_a_column(entries):
    entries["h"] = entries["h"][:, None]


@_rewrite
def _limit_beyond_the_size_guard(entries):
    entries["limit"] = np.int32(2**31 - 1)  # the largest bound an int32 holds


@_rewrite
def _h_one_row_short(entries):
    entries["h"] = entries["h"][:-1]


@_rewrite
def _h_zero_in_one_row(entries):
    entries["h"][5] = 0


@_rewrite
def _reg_in_an_imaginary_cache(entries):
    entries["reg"] = np.ones(entries["h"].size)


@_rewrite
def _version_two_with_magnitude(entries):
    # the format before the int32 header: |D|, h and R all stored, in 64 bits
    for key in ("version", "sign", "limit"):
        entries[key] = entries[key].astype(np.int64)
    entries["version"] = np.int64(2)
    entries["magnitude"] = quadmean.fields.fundamental_magnitudes(-1, int(entries["limit"]))
    entries["h"] = entries["h"].astype(np.int64)
    entries["reg"] = np.ones(entries["h"].size)


@pytest.mark.parametrize(
    "damage",
    [
        _cut_to_two_thirds,
        _flip_a_byte_of_h,
        _old_csv_cache,
        _header_without_limit,
        _wrong_version,
        _version_one_with_codes,
        _sign_zero,
        _pickled_h,
        _reg_as_float32,
        _reg_infinite,
        _reg_above_its_bound,
        _h_as_a_column,
        _limit_beyond_the_size_guard,
        _h_one_row_short,
        _h_zero_in_one_row,
        _reg_in_an_imaginary_cache,
        _version_two_with_magnitude,
    ],
)
def test_damaged_cache_exits_2(tmp_path, capsys, damage):
    # the cache is built and read back by the library, not by a gated
    # mean-value call; only the damaged read goes through the command
    cache = tmp_path / "table.npz"
    cond = getattr(damage, "cond", "inf=C")
    sign = quadmean.meanvalue.parse_conditions(cond).sign
    quadmean.fields.DiscriminantTable.compute(sign, 10**4).save(str(cache))
    quadmean.fields.DiscriminantTable.load(str(cache))
    damage(cache)
    code, out = run_cli(["mean-value", "--cond", cond, "--X", "10000", "--cache", str(cache)])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert err[0].endswith("the cache is damaged, delete it to rebuild")


def test_a_class_number_below_1_stops_compute_before_any_cache(tmp_path, capsys, monkeypatch):
    # a kernel fault (h = 0 at one fundamental D) is refused where the table
    # is computed, naming its D, and never saved to be read as cache damage
    d = int(quadmean.fields.fundamental_magnitudes(-1, 10**4)[5])
    raw = quadmean.fields.imaginary_class_number_histogram

    def faulty(limit):
        hist = raw(limit)
        hist[d >> 1] = 0
        return hist

    monkeypatch.setattr(quadmean.fields, "imaginary_class_number_histogram", faulty)
    with pytest.raises(ArithmeticError, match=rf"D={d}$"):
        quadmean.fields.DiscriminantTable.compute(-1, 10**4)
    cache = tmp_path / "table.npz"
    code, out = run_cli(["mean-value", "--cond", "inf=C", "--X", "10000", "--cache", str(cache)])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and err[0].endswith(f"D={d}")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("cache", ["missing/dir/neg.csv", "."])
def test_cache_at_a_bad_path_exits_2(tmp_path, capsys, cache):
    code, out = run_cli(["mean-value", "--cond", "inf=C", "--X", "1000",
                         "--cache", str(tmp_path / cache)])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def _no_table(*args):
    raise AssertionError("table built")


@pytest.mark.parametrize(
    "bounds, named",
    [
        (["--X", "1000", "--checkpoints=-5,1000"], "checkpoint -5"),
        (["--X", "1000", "--checkpoints", "0"], "checkpoint 0"),
        (["--X", "0"], "--X 0"),
    ],
)
def test_non_positive_bound_exits_2(tmp_path, capsys, monkeypatch, bounds, named):
    # refused before the table is built, so no cache is written
    monkeypatch.setattr(quadmean.cli, "cached_table", _no_table)
    cache = tmp_path / "neg.npz"
    code, out = run_cli(["--format", "json", "mean-value", "--cond", "inf=C", *bounds,
                         "--cache", str(cache)])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]
    assert not cache.exists()


@pytest.mark.parametrize("checkpoints", ["1000,1000", "100,1000,100"])
def test_repeated_checkpoint_exits_2(tmp_path, capsys, monkeypatch, checkpoints):
    # a repeated point would be compared with itself by convergence-trend;
    # it is refused before the table is built, so no cache is written
    monkeypatch.setattr(quadmean.cli, "cached_table", _no_table)
    cache = tmp_path / "neg.npz"
    code, out = run_cli(["mean-value", "--cond", "inf=C", "--X", "1000",
                         "--checkpoints", checkpoints, "--cache", str(cache)])
    assert code == 2
    assert out == ""
    repeated = checkpoints.split(",")[0]
    assert capsys.readouterr().err.splitlines() == [f"error: checkpoint {repeated} repeated"]
    assert not cache.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["mean-value", "--cond", "inf=C", "--X", "1000", "--workers", "2"],
         "unrecognized arguments: --workers 2"),
        (["mean-value", "--cond", "inf=C", "--X", "abc"],
         "argument --X: invalid int value: 'abc'"),
        (["mean-value", "--X", "1000"], "the following arguments are required: --cond"),
        (["mean-value", "--cond", "inf=C", "--X", "1000", "--euler-cutoff", "100000"],
         "unrecognized arguments: --euler-cutoff 100000"),
        (["constant", "--cond", "inf=C", "--euler-cutoff", "100000"],
         "unrecognized arguments: --euler-cutoff 100000"),
    ],
    ids=["workers", "X-abc", "no-cond", "euler-cutoff-mean-value", "euler-cutoff-constant"],
)
def test_bad_arguments_exit_2_with_one_error_line(capsys, monkeypatch, args, message):
    # the parser's own errors take the runners' form, with no usage block
    monkeypatch.setattr(quadmean.cli, "cached_table", _no_table)
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


def _traced_peak(argv):
    """tracemalloc peak, in MB of 2^20 bytes, of one CLI call that exits 0."""
    tracemalloc.start()
    try:
        code, _ = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak / 2**20


@pytest.mark.parametrize("cond", ["inf=C,3=split", "inf=C", "inf=C,2=ram:-1,3=split,5=unram"])
def test_imaginary_mean_value_call_fits_6_mb(tmp_path, cond):
    # at 10^6 the table takes 8 bytes a row, int32 |D| and h with R one
    # shared 1.0, and every temporary is bounded.  With int64 |D| and a
    # column of ones for R (20 bytes a row) a call took 10.8-13.1 MB, and
    # either one alone takes it past 6 MB (7.7 and 6.6 MB).
    path = str(tmp_path / "neg.npz")
    for phase in ("cold", "warm"):
        peak = _traced_peak(["--format", "json", "mean-value", "--cond", cond,
                             "--X", "1000000", "--cache", path])
        assert peak <= 6.0, (phase, peak)


def test_real_mean_value_call_keeps_its_memory():
    # the regulator lanes are nine float64 rows of one workspace, and the h*R
    # blocks reuse the rows of another; one call at 10^5 peaks at 2.80 MB, in
    # the h*R histogram, against 2.97 MB with one log per pair (a, c) set up
    # in groups of 2^12 rows, 3.04 MB with fresh arrays for each block and
    # step, and 3.21 MB with int64 |D|
    # (the first call of a process allocates 0.15 MB more, once)
    argv = ["--format", "json", "mean-value", "--cond", "inf=RxR,5=split", "--X", "100000"]
    run_cli(argv)
    assert _traced_peak(argv) <= 3.00


def test_verify_local_call_keeps_its_memory():
    # an orbit is a sorted array of its unit-scaling class representatives
    # and a stabilizer the int16 rows of its slice a = 1; one call peaks at
    # 0.41 MB, against 0.69 MB with the slice scaled by every unit
    argv = ["--format", "json", "verify-local", "--primes", "2,3,5"]
    run_cli(argv)
    assert _traced_peak(argv) <= 0.60


def test_verify_local_at_7_keeps_its_memory():
    # the lift check at 7^3 keeps 8,232 representatives of a ramified orbit
    # in a space of 343^3 forms; one call peaks at 0.57 MB
    argv = ["--format", "json", "verify-local", "--primes", "7"]
    run_cli(argv)
    assert _traced_peak(argv) <= 0.94


def test_mean_value_real_small(tmp_path):
    cache = str(tmp_path / "pos.csv")
    code, out = run_cli(
        ["--format", "json", "mean-value", "--cond", "inf=RxR", "--X", "10000",
         "--checkpoints", "1000,10000", "--cache", cache]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["sign"] == 1
    assert doc["summary"]["failed"] == 0
    ratios = [i["got"]["ratio"] for i in doc["items"] if "sum-ratio" in i["anchor"]]
    assert len(ratios) == 2
    assert abs(ratios[-1] - 1) < 0.05


def test_mean_value_conditioned(tmp_path):
    cache = str(tmp_path / "neg.csv")
    code, out = run_cli(
        ["--format", "json", "mean-value", "--cond", "inf=C,2=ram:-1", "--X", "10000",
         "--checkpoints", "10000", "--cache", cache]
    )
    assert code == 0
    doc = json.loads(out)
    # single checkpoint: no trend item
    assert doc["summary"]["total"] == 1
    assert doc["items"][0]["pass"] is True


def test_mean_value_honest_failure():
    # X=100 is far inside the X^(3/2) transient for real fields: must FAIL, exit 1
    code, out = run_cli(["mean-value", "--cond", "inf=RxR", "--X", "100",
                         "--checkpoints", "100"])
    assert code == 1
    assert "[FAIL]" in out
    assert "1 FAILED" in out


def test_csv_format():
    code, out = run_cli(["--format", "csv", "census", "--primes", "3"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["anchor", "expected", "got", "pass"]
    assert all(r[3] == "true" for r in rows[1:])
    # cells hold JSON so structured values survive the trip
    json.loads(rows[1][1])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-local", "--primes", "3"],
        ["census", "--primes", "3"],
        ["constant", "--cond", "inf=C,2=ram:-1"],
        ["mean-value", "--cond", "inf=C", "--X", "1000", "--cache", "{cache}"],
    ],
    ids=lambda argv: argv[0],
)
def test_json_format_is_one_compact_line(tmp_path, argv):
    argv = [a.format(cache=tmp_path / "neg.csv") for a in argv]
    code, out = run_cli(["--format", "json"] + argv)
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.dumps(json.loads(out)) + "\n" == out


def test_error_exit_codes(capsys):
    assert main(["mean-value", "--cond", "inf=H", "--X", "100"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["mean-value", "--cond", "2=split", "--X", "100"]) == 2
    capsys.readouterr()
    assert main(["mean-value", "--cond", "inf=C", "--X", "100",
                 "--checkpoints", "500"]) == 2
    capsys.readouterr()
    assert main(["census", "--primes", "4"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["verify-local", "--primes", "2,nope"]) == 2
    capsys.readouterr()


def test_a_closed_stdout_exits_2_with_one_error_line():
    # a real pipe that its reader closes after 10 bytes.  It holds one page,
    # less than the 11 KB verify-local writes, so the writer is still
    # writing when the reader is gone, whatever the timing
    src = os.path.dirname(os.path.dirname(quadmean.cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "quadmean", "verify-local", "--primes", "2,3"],
        stdout=write_end, stderr=subprocess.PIPE, env=env,
    )
    os.close(write_end)
    head = b""
    while len(head) < 10:
        chunk = os.read(read_end, 10 - len(head))
        assert chunk
        head += chunk
    os.close(read_end)
    err = proc.communicate(timeout=120)[1].decode().splitlines()
    assert head == b"[pass] gro"
    assert proc.returncode == 2
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify-local", "--primes", ""], "--primes: '' is not an integer"),
        (["verify-local", "--primes", "2,,3"], "--primes: '' is not an integer"),
        (["census", "--primes", "3,"], "--primes: '' is not an integer"),
        (["mean-value", "--cond", "inf=C", "--X", "100", "--checkpoints", "10,,20"],
         "--checkpoints: '' is not an integer"),
    ],
    ids=["primes-empty", "primes-gap", "primes-trailing", "checkpoints-gap"],
)
def test_bad_integer_item_names_its_option(capsys, monkeypatch, args, message):
    monkeypatch.setattr(quadmean.cli, "cached_table", _no_table)
    assert run_cli(args) == (2, "")
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


_LABELS_AT_2 = "['split', 'unram', 'ram:-1', 'ram:-5', 'ram:2', 'ram:-2', 'ram:10', 'ram:-10']"


@pytest.mark.parametrize(
    "cond, message",
    [
        ("", "an inf=C or inf=RxR condition is required"),
        ("2=split", "an inf=C or inf=RxR condition is required"),
        ("inf=H", 'archimedean value must be "C" or "RxR"'),
        ("inf=C,inf=RxR", "duplicate place in condition list"),
        ("inf=C,2=split,2=unram", "duplicate place in condition list"),
        ("inf=C,7=split", "conditions are tracked at primes (2, 3, 5)"),
        ("inf=C,x=split", "place 'x' is neither 'inf' nor a prime"),
        ("inf=C,2split", "condition '2split' is not place=value"),
        ("inf=C,2=", "condition '2=' is not place=value"),
        ("inf=C,2=ram:5", f"unknown type 'ram:5' at 2; choose from {_LABELS_AT_2}"),
        ("inf=C,2=ram:-3", f"unknown type 'ram:-3' at 2; choose from {_LABELS_AT_2}"),
    ],
)
def test_bad_condition_list_exits_2_with_its_fault(capsys, cond, message):
    assert run_cli(["constant", "--cond", cond]) == (2, "")
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_integer_items_keep_surrounding_spaces_accepted():
    code, out = run_cli(["--format", "json", "census", "--primes", " 3, 5"])
    assert code == 0
    assert json.loads(out)["config"]["primes"] == [3, 5]


@pytest.mark.parametrize(
    "command, primes, repeated", [("verify-local", "2,2", 2), ("census", "3,5,3", 3)]
)
def test_repeated_prime_exits_2(capsys, command, primes, repeated):
    # each of its items would appear twice under one anchor
    assert run_cli([command, "--primes", primes]) == (2, "")
    assert capsys.readouterr().err.splitlines() == [f"error: prime {repeated} repeated"]


def test_size_guard_refusal_exits_2(monkeypatch, capsys):
    # the first orbit at p=3 lives in a space of 3^3 forms
    monkeypatch.setattr(quadmean.orbits, "MAX_ORBIT_SPACE", 3**3 - 1)
    code, out = run_cli(["verify-local", "--primes", "3"])
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def _refused(capsys, argv, named):
    assert run_cli(argv) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]


def test_table_limit_guard_boundary(monkeypatch, capsys):
    monkeypatch.setattr(quadmean.fields, "MAX_TABLE_LIMIT", 1000)
    assert run_cli(["mean-value", "--cond", "inf=C", "--X", "1000"])[0] == 0
    capsys.readouterr()
    _refused(capsys, ["mean-value", "--cond", "inf=C", "--X", "1001"], "1001")


def test_table_limit_guard_refuses_before_allocating(capsys):
    # the sieve alone would ask for 2 * 10^12 bytes
    _refused(capsys, ["mean-value", "--cond", "inf=C", "--X", str(10**12)], str(10**12))


def test_constant_stability_compares_with_a_tenth_of_the_cutoff():
    cond = "inf=C,2=ram:-1"
    code, out = run_cli(["--format", "json", "constant", "--cond", cond])
    assert code == 0
    doc = json.loads(out)
    item = {i["anchor"]: i for i in doc["items"]}[f"euler-cutoff-stability[{cond}]"]
    cutoff = quadmean.meanvalue.EULER_CUTOFF
    assert doc["config"]["euler_cutoff"] == cutoff == 10**4
    conds = quadmean.meanvalue.parse_conditions(cond)
    const = quadmean.meanvalue.predicted_constant(conds, cutoff)
    tenth = quadmean.meanvalue.predicted_constant(conds, cutoff // 10)
    assert item["got"] == abs(const - tenth) / const
    bound = 1.02 * quadmean.meanvalue.euler_tail_bound(cutoff // 10)
    assert item["expected"] == f"relative move under cutoff/10 <= {bound:.3e}"
    assert item["pass"] is True


def test_orbit_space_guard_boundary(monkeypatch):
    # the deepest orbit of verify-local at p=3 is the level-3 lift check,
    # in a space of exactly 3^9 forms
    monkeypatch.setattr(quadmean.orbits, "MAX_ORBIT_SPACE", 3**9)
    assert run_cli(["verify-local", "--primes", "3"])[0] == 0
    split = BinaryQF(0, 1, 0)
    assert orbit_size(split, ResidueRing(3, 3)) > 0
    with pytest.raises(CapacityError):
        orbit_size(split, ResidueRing(3, 4))


def test_verify_local_computes_each_artifact_once(monkeypatch):
    calls = {}

    def counted(module, name):
        raw = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return raw(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(quadmean.orbits, "_orbit_bitset",
                        counted(quadmean.orbits, "_orbit_bitset"))
    for name in ("stabilizer_elements", "congruence_solution_set"):
        wrapper = counted(quadmean.orbits, name)
        monkeypatch.setattr(quadmean.orbits, name, wrapper)
        monkeypatch.setattr(quadmean.cli, name, wrapper)
    code, _ = run_cli(["verify-local", "--primes", "3"])
    assert code == 0
    # four representatives: one BFS each, at level n + 1, whose image is the
    # level-n orbit; the two ramified ones get one stabilizer scan and one
    # congruence set each
    assert calls == {
        "_orbit_bitset": 4,
        "stabilizer_elements": 2,
        "congruence_solution_set": 2,
    }


def _verify_local_3(monkeypatch, name, wrong):
    """verify-local --primes 3 in json, with cli's name replaced by
    wrong(raw): it exits 1 with every item of the clean run, in order."""
    argv = ["--format", "json", "verify-local", "--primes", "3"]
    clean = [i["anchor"] for i in json.loads(run_cli(argv)[1])["items"]]
    monkeypatch.setattr(quadmean.cli, name, wrong(getattr(quadmean.cli, name)))
    code, out = run_cli(argv)
    # a wrong local number fails its items; it is not bad input, and the run goes on
    assert code == 1
    items = json.loads(out)["items"]
    assert [i["anchor"] for i in items] == clean
    return items


def _failing(items):
    return {i["anchor"].split("[")[0] for i in items if not i["pass"]}


def test_an_orbit_one_too_large_fails_stabilizer_order(monkeypatch):
    def wrong(raw):
        def larger(rep, level):
            ls = raw(rep, level)
            return dataclasses.replace(ls, projected_size=ls.projected_size + 1)
        return larger

    items = _verify_local_3(monkeypatch, "lift_saturation_check", wrong)
    assert _failing(items) == {"orbit-size", "volume-match", "stabilizer-order"}
    for i in items:
        if i["anchor"].startswith("stabilizer-order"):
            # the exact quotient |G| / (orbit + 1), not an integer
            assert "/" in i["got"] and not i["pass"]


def test_a_wrong_density_fails_orbit_size(monkeypatch):
    def wrong(raw):
        return lambda alg, p: raw(alg, p) / 7

    items = _verify_local_3(monkeypatch, "local_density", wrong)
    assert _failing(items) == {"orbit-size", "volume-match", "volume-stable"}
    for i in items:
        if i["anchor"].startswith("orbit-size"):
            assert "/" in i["expected"] and not i["pass"]


def test_a_corrupted_stabilizer_row_keeps_the_closed_forms_expected(monkeypatch):
    first = {}

    def wrong(raw):
        def corrupted(rep, ring):
            rows = raw(rep, ring)
            rows[0, 1] = (rows[0, 1] + 1) % ring.modulus
            first[rep.algebra] = tuple(rows[0].tolist())
            return rows
        return corrupted

    items = _verify_local_3(monkeypatch, "stabilizer_elements", wrong)
    assert _failing(items) == {"coset-normal-form"}
    by_anchor = {i["anchor"]: i for i in items}
    for rep in quadmean.orbits.standard_representatives(3):
        if rep.is_ramified:
            ring = rep.natural_ring()
            item = by_anchor[f"coset-normal-form[p=3,{rep.algebra},level={rep.n}]"]
            assert item["expected"] == {
                "fiber": quadmean.orbits.torus_order_closed(rep, ring),
                "cosets": quadmean.orbits.congruence_count_closed(rep),
            }
            # the failing item says why: the corrupted row is the first
            detail = f"row {first[rep.algebra]} does not factor through the torus"
            assert item["got"] == {"fiber": -1, "cosets": 0, "detail": detail}


def test_lift_saturation_prints_the_count_of_every_missing_lift(monkeypatch):
    # the classes of all 27 lifts of the ram:3 representative (1, 0, -3)
    # mod 9 dropped at 27, 9 classes of 3; the level-9 image, projected from
    # the same representatives, loses the class of (1, 0, 6)
    raw = quadmean.orbits._orbit_bitset

    def leaky(form, ring):
        visited, count = raw(form, ring)
        if form.coeffs() == (1, 0, -3) and ring.modulus == 27:
            lifts = np.array([(1 + 9 * i, 9 * j, 6 + 9 * k) for i, j, k in np.ndindex(3, 3, 3)])
            classes = quadmean.orbits._classes(form, ring)[0](lifts.T)
            assert np.unique(classes).size == 9 and np.isin(classes, visited).all()
            visited = visited[~np.isin(visited, classes)]
        return visited, count

    monkeypatch.setattr(quadmean.orbits, "_orbit_bitset", leaky)
    code, out = run_cli(["--format", "json", "verify-local", "--primes", "3"])
    assert code == 1
    items = {i["anchor"]: i for i in json.loads(out)["items"]}
    lifts = items["lift-saturation[p=3,ramified(3),level=3]"]
    # the count is all 27; the lifts named are the first 16, in lexicographic order
    first = sorted([1 + 9 * i, 9 * j, 6 + 9 * k] for i, j, k in np.ndindex(3, 3, 3))[:16]
    assert lifts["got"] == {"lifts": 27, "missing": 27, "first_missing": first}
    assert not lifts["pass"]


def test_a_failing_lift_saturation_names_its_missing_lifts(monkeypatch):
    # three classes of the ram:3 representative (1, 0, -3) dropped at 27,
    # named by lifts of (1, 0, 6) mod 9 out of lexicographic order: each
    # takes the 3 lifts that differ from its lift in y0
    dropped = [(19, 0, 6), (1, 9, 24), (10, 18, 15)]
    raw = quadmean.orbits._orbit_bitset

    def leaky(form, ring):
        visited, count = raw(form, ring)
        if form.coeffs() == (1, 0, -3) and ring.modulus == 27:
            classes = quadmean.orbits._classes(form, ring)[0](np.array(dropped).T)
            assert np.isin(classes, visited).all()
            visited = visited[~np.isin(visited, classes)]
        return visited, count

    monkeypatch.setattr(quadmean.orbits, "_orbit_bitset", leaky)
    code, out = run_cli(["--format", "json", "verify-local", "--primes", "3"])
    assert code == 1
    lifts = [i for i in json.loads(out)["items"] if i["anchor"].startswith("lift-saturation")]
    failed = [i for i in lifts if not i["pass"]]
    assert [i["anchor"] for i in failed] == ["lift-saturation[p=3,ramified(3),level=3]"]
    expected = sorted([y0, y1, y2] for y0 in (1, 10, 19) for _, y1, y2 in dropped)
    assert failed[0]["got"] == {"lifts": 27, "missing": 9, "first_missing": expected}
    # a passing item names no lift
    for i in lifts:
        if i["pass"]:
            assert i["got"] == {"lifts": 27, "missing": 0}
    # text and csv print the same lifts
    code, text = run_cli(["verify-local", "--primes", "3"])
    assert code == 1 and "'first_missing': ((1, 0, 6), (1, 9, 24), (1, 18, 15), (10, 0, 6)" in text
    code, out = run_cli(["--format", "csv", "verify-local", "--primes", "3"])
    rows = {r["anchor"]: r for r in csv.DictReader(io.StringIO(out))}
    got = json.loads(rows["lift-saturation[p=3,ramified(3),level=3]"]["got"])
    assert got == failed[0]["got"]


def test_verify_local_builds_each_form_value_table_once(monkeypatch):
    builds = []
    raw = quadmean.orbits._form_values.__wrapped__

    @functools.cache
    def counted(x, ring):
        builds.append((x, ring))
        return raw(x, ring)

    monkeypatch.setattr(quadmean.orbits, "_form_values", counted)
    assert run_cli(["verify-local", "--primes", "2,3,5"])[0] == 0
    ramified = [
        (rep, rep.natural_ring())
        for p in (2, 3, 5)
        for rep in quadmean.orbits.standard_representatives(p)
        if rep.is_ramified
    ]
    # one table per ramified representative at its working ring, built by
    # the torus count and read again by the stabilizer scan and the
    # congruence set
    assert builds == ramified
    info = counted.cache_info()
    assert (info.misses, info.hits) == (len(ramified), 2 * len(ramified))
    for x, ring in ramified:
        table = counted(x, ring)
        assert table.dtype == np.int32 and not table.flags.writeable


def test_verify_local_builds_each_class_map_once(monkeypatch):
    # the lift check reads the canonical map of its lift ring that the orbit
    # BFS there built: 48 reads of 32 maps, each built once, from an empty cache
    builds = []
    raw = quadmean.orbits._classes.__wrapped__

    @functools.cache
    def counted(form, ring):
        builds.append((form, ring))
        return raw(form, ring)

    monkeypatch.setattr(quadmean.orbits, "_classes", counted)
    assert run_cli(["verify-local", "--primes", "2,3,5"])[0] == 0
    assert len(builds) == len(set(builds)) == 32
    info = counted.cache_info()
    assert (info.misses, info.hits) == (32, 16)
    for form, ring in builds:
        canonical = counted(form, ring)[0]
        (lead,) = [c.cell_contents for c in canonical.__closure__
                   if isinstance(c.cell_contents, np.ndarray)]
        assert lead.dtype == np.int32 and lead.size == ring.modulus and not lead.flags.writeable


def test_primes_above_the_modulus_guard_exit_2_before_the_primality_test(capsys):
    # 1073741789 is the largest prime below 2^30 = MAX_MODULUS
    assert quadmean.residue.MAX_MODULUS == 2**30
    code, out = run_cli(["--format", "json", "census", "--primes", "1073741789"])
    assert code == 0 and json.loads(out)["config"]["primes"] == [1073741789]
    for big in ("1073741827", "1000000000000000003"):
        _refused(capsys, ["census", "--primes", big], f"prime {big} exceeds {2**30}")


def test_mean_value_from_a_larger_cache_prints_what_no_cache_prints(tmp_path):
    # the cache is read as it is, at 20000, and not rewritten
    cache = str(tmp_path / "neg.npz")
    argv = ["--format", "json", "mean-value", "--cond", "inf=C,3=split", "--X"]
    assert run_cli(argv + ["20000", "--cache", cache])[0] == 0
    stamp = os.path.getmtime(cache)
    argv.append("10000")
    code, cached = run_cli(argv + ["--cache", cache])
    assert code == 0 and os.path.getmtime(cache) == stamp
    cached = json.loads(cached)
    assert cached["config"].pop("cache") == cache
    code, fresh = run_cli(argv)
    fresh = json.loads(fresh)
    assert code == 0 and fresh["config"].pop("cache") is None
    assert cached == fresh


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])
