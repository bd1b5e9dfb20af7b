import csv
import io
import json
import subprocess
import sys

import pytest

from supercong import binom
from supercong.arith import PrimeCtx, primes_in, sqrt_mod_p
from supercong.binom import sum_S
from supercong.cli import (_render_csv, _render_jsonl, _wit_str, cmd_sum,
                           cmd_verify, main)
from supercong.curves import char_sum
from supercong.legendre import legendre_eval
from supercong.theorems import (ALL_IDS, REGISTRY, SUM_ARGUMENTS,
                                VerdictReport, verify_range)
from test_theorems import from_record, to_record


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "supercong", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_tools_jacobi():
    code, out, _ = run_cli("tools", "jacobi", "--a", "2", "--n", "7")
    assert (code, out.strip()) == (0, "1")


def test_tools_cornacchia():
    code, out, _ = run_cli("tools", "cornacchia", "--d", "7", "--p", "11")
    assert (code, out.strip()) == (0, "(2,1)")
    code, out, _ = run_cli("tools", "cornacchia", "--d", "7", "--p", "3")
    assert (code, out.strip()) == (0, "no representation")
    code, out, _ = run_cli("tools", "cornacchia", "--d", "1", "--p", "2")
    assert (code, out.strip()) == (0, "(1,1)")


def test_tools_cornacchia_refuses_a_strong_pseudoprime(capsys):
    """psi_12 = 399165290221 * 798330580441, the least strong pseudoprime
    to the bases 2..37, is not taken for a prime: usage error, no output."""
    assert main(["tools", "cornacchia", "--d", "1",
                 "--p", "318665857834031151167461"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "prime" in err


def test_tools_charsum():
    code, out, _ = run_cli("tools", "charsum", "--cubic", "1,21,112,0",
                           "--p", "11")
    assert (code, out.strip()) == (0, "-4")
    code, out, _ = run_cli("tools", "charsum", "--cubic", "21,112,0",
                           "--p", "11")
    assert (code, out.strip()) == (0, "-4")
    code, _, err = run_cli("tools", "charsum", "--cubic", "2,21,112,0",
                           "--p", "11")
    assert code == 2 and "leading" in err


def test_tools_charsum_negative_leading_coefficient():
    """A value that starts with '-' reads as an option unless it is joined
    to --cubic by '='."""
    code, out, _ = run_cli("tools", "charsum", "--cubic=-3,5,-7",
                           "--p", "101")
    assert (code, out.strip()) == (0, str(char_sum(-3, 5, -7,
                                                   PrimeCtx(101))))
    code, _, _ = run_cli("tools", "charsum", "--cubic", "-3,5,-7",
                         "--p", "101")
    assert code == 2


def test_sum_command():
    code, out, _ = run_cli("sum", "--m", "256", "--p", "11")
    assert code == 0
    assert "= 14 (mod 121)" in out
    code, out, _ = run_cli("sum", "--m", "81", "--p", "13")
    assert code == 0 and "= 0 (mod 169)" in out
    assert "not in F_p" in out
    code, _, err = run_cli("sum", "--m", "81", "--p", "3")
    assert code == 2


def test_sum_past_the_limb_bound_is_a_bad_argument(monkeypatch, capsys):
    """S and T keep each term mod p**2 in one 64-bit limb, so they need
    p < 2**32.  Past that `sum` exits 2 as a bad argument, and `verify`
    3 as an engine fault, each before a series is built (about 2*10**9
    terms at p = 4294967311)."""
    def build(series, block):
        raise AssertionError(f"a series built for {block}")

    monkeypatch.setattr(binom, "_block", build)
    assert main(["sum", "--m", "256", "--p", "4294967311"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "need p < 2**32" in err
    assert main(["verify", "--theorems", "RV256",
                 "--primes", "4294967311..4294967311"]) == 3
    assert "OverflowError: S and T need p < 2**32" in capsys.readouterr()[1]


def test_sum_prints_both_roots():
    buf = io.StringIO()
    cmd_sum(81, 11, out=buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "sum_S(m=81, p=11) = 115 (mod 121)"
    assert len([ln for ln in lines if ln.startswith("P_[")]) == 2


def test_sum_names_the_roots_of_one_minus_256_over_m():
    """For every prime p < 300 and every sum argument m of the registry,
    with m = 256 (t = 0) and m = 256 + p (t = 0 mod p only), the output
    of cmd_sum is S(m) and one P_[p/4](t) line per root t of 1 - 256/m
    mod p, the roots found here as sqrt_mod_p of that residue."""
    for p in primes_in(5, 299):
        ctx = PrimeCtx(p)
        for m in sorted({m for _, m in SUM_ARGUMENTS} | {256, 256 + p}):
            if m % p == 0:
                continue
            roots = sqrt_mod_p((1 - 256 * pow(m, -1, p)) % p, ctx)
            want = [f"sum_S(m={m}, p={p}) = {sum_S(m, ctx)} (mod {p * p})"]
            want += [f"P_[{ctx.qcap}](t={t}) = "
                     f"{legendre_eval(ctx.qcap, t, ctx)} (mod {p})"
                     for t in roots] or ["t = sqrt(1 - 256/m) is not in F_p"]
            buf = io.StringIO()
            assert cmd_sum(m, p, out=buf) == 0
            assert buf.getvalue().splitlines() == want, (p, m)


def test_verify_excluded_prime_exits_zero():
    code, out, _ = run_cli("verify", "--theorems", "T3.1", "--primes",
                           "7..7")
    assert code == 0
    assert 'SKIP branch="excluded"' in out


def test_verify_rejects_bad_arguments():
    code, _, err = run_cli("verify", "--theorems", "T3.1", "--primes",
                           "3..50")
    assert code == 2 and "prime range" in err
    code, _, err = run_cli("verify", "--theorems", "T9.9", "--primes",
                           "5..50")
    assert code == 2 and "unknown theorem" in err
    code, _, _ = run_cli("verify", "--primes", "5..50")
    assert code == 2


@pytest.mark.parametrize("ids", [",", " ", ", ,"])
def test_verify_rejects_an_empty_selection(ids, capsys):
    """A --theorems value that names no statement checks nothing, so it is
    a usage error, not an empty sweep."""
    assert main(["verify", "--theorems", ids, "--primes", "5..50"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "no theorem ids" in err


def test_verify_group_aliases():
    code, out, _ = run_cli("verify", "--theorems", "all-conjectures",
                           "--primes", "5..20", "--format", "jsonl")
    assert code == 0
    header = json.loads(out.splitlines()[0])
    assert header["record"] == "header"
    assert len(header["theorems"]) == 10


def test_jsonl_round_trip():
    buf = io.StringIO()
    assert cmd_verify(("T3.1", "RV256", "Conj-A25"), 5, 60, fmt="jsonl",
                      seed=9, out=buf) == 0
    lines = buf.getvalue().splitlines()
    header = json.loads(lines[0])
    assert header["seed"] == 9
    parsed = [from_record(json.loads(ln)) for ln in lines[1:]]
    direct = list(verify_range(("T3.1", "RV256", "Conj-A25"), 5, 60, seed=9))
    assert parsed == direct


@pytest.fixture(scope="module")
def every_record_kind():
    """Every kind of record a sweep makes, and hand-built ones with None
    residues, empty and negative witnesses, and a label that JSON must
    escape (a quote, a backslash, a tab and non-ASCII characters, which
    json.dumps writes as \\u escapes)."""
    records = list(verify_range(ALL_IDS, 5, 600))
    labels = {r.branch for r in records}
    assert {"n/a", "excluded", "P; t not in F_p"} <= labels
    assert any(b.startswith("m=") and b.endswith(": excluded")
               for b in labels)
    assert any(r.passed and r.modulus for r in records)
    records += [
        VerdictReport("T3.1", 11, True, "p mod 7 = 4; missing "
                      "representation", None, None, None, {}, False,
                      "proven"),
        VerdictReport("Conj-A25", 101, True, "p mod 20 = 1", 5, 7, 10201,
                      {"x": -3, "y": 0, "C": -10**30}, False, "conjecture"),
        VerdictReport("X-\u00e9", 5, False, 'say "\u2261" \\ \t'
                      '\u00e9\U0001d4ae', None, None, None, {"\u00fc": -1},
                      True, "proven"),
    ]
    return records


def test_jsonl_lines_equal_json_dumps(every_record_kind):
    """Each JSONL line, written from the record's fields, is the line
    json.dumps(to_record(rec)) gives."""
    for rec in every_record_kind:
        buf = io.StringIO()
        _render_jsonl(rec, buf)
        assert buf.getvalue() == json.dumps(to_record(rec),
                                            separators=(",", ":")) + "\n"


def test_csv_rows_equal_to_record_rows(every_record_kind):
    """Each csv row, written from the record's fields, is the row built
    from to_record(rec), None residues as empty cells."""
    for rec in every_record_kind:
        got, want = io.StringIO(), io.StringIO()
        _render_csv(rec, csv.writer(got, lineterminator="\n"))
        r = to_record(rec)
        csv.writer(want, lineterminator="\n").writerow([
            r["theorem"], r["p"], r["applicable"], r["branch"],
            r["lhs"] or "", r["rhs"] or "", r["modulus"] or "",
            _wit_str(r["witnesses"]), r["pass"], r["kind"],
        ])
        assert got.getvalue() == want.getvalue(), rec


def test_csv_format_shape():
    buf = io.StringIO()
    cmd_verify(("T3.1",), 5, 30, fmt="csv", out=buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# seed=0")
    assert lines[1].split(",")[:4] == ["theorem", "p", "applicable",
                                       "branch"]
    assert any("C=2;D=1" in ln for ln in lines)


def test_worker_determinism_small():
    args = ("verify", "--theorems", "all-proven", "--primes", "5..120",
            "--format", "jsonl", "--seed", "5")
    code1, out1, _ = run_cli(*args, "--workers", "1")
    code2, out2, _ = run_cli(*args, "--workers", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_fail_fast_flag_parses():
    code, out, _ = run_cli("verify", "--theorems", "T3.11", "--primes",
                           "5..30", "--fail-fast")
    assert code == 0 and out


def test_main_returns_exit_code():
    assert main(["tools", "jacobi", "--a", "2", "--n", "8"]) == 2


def test_proven_failure_exits_one():
    from supercong.theorems import REGISTRY, Branch, TheoremSpec

    false_claim = TheoremSpec(
        id="X-false", kind="proven", m=81,
        branches=(Branch("always", frozenset({0}), 1,
                         rhs=lambda ctx, w: 1), ),
    )
    REGISTRY["X-false"] = false_claim
    try:
        buf = io.StringIO()
        assert cmd_verify(("X-false",), 5, 30, fmt="text", fail_fast=True,
                          out=buf) == 1
        body = buf.getvalue()
        assert "FAIL" in body
        # fail-fast stopped the sweep after the first failing record
        assert body.count("X-false p=") == 1

        false_claim = TheoremSpec(
            id="X-false", kind="conjecture", m=81,
            branches=false_claim.branches)
        REGISTRY["X-false"] = false_claim
        buf = io.StringIO()
        # candidates are not failures
        assert cmd_verify(("X-false",), 5, 30, out=buf) == 0
        assert "CANDIDATE" in buf.getvalue()
    finally:
        del REGISTRY["X-false"]


def _break_first_branch(monkeypatch, **changes):
    """Swap T3.1's first branch for a copy with `changes` applied."""
    spec = REGISTRY["T3.1"]
    branch = spec.branches[0]._replace(**changes)
    monkeypatch.setitem(REGISTRY, "T3.1",
                        spec._replace(branches=(branch,) + spec.branches[1:]))


def _faulty_rhs(ctx, w):
    if ctx.p >= 11:
        raise ValueError(f"rhs broke at p = {ctx.p}")
    return 4 * w["C"] ** 2


@pytest.mark.parametrize("fault", ["overlap", "gap", "rhs"])
def test_engine_error_exits_three(fault, monkeypatch, capsys):
    """An exception inside the engine is neither a failed statement (1) nor
    a bad argument (2): exit 3, with the records already written and their
    summary kept."""
    if fault == "overlap":  # both branches hold at p = 13 (6 mod 7)
        classes = REGISTRY["T3.1"].branches[0].classes
        _break_first_branch(monkeypatch, classes=classes | {6})
        message = "RuntimeError: T3.1: branch predicates overlap at p = 13"
    elif fault == "gap":  # no branch holds at p = 11 (4 mod 7)
        _break_first_branch(monkeypatch, classes=frozenset())
        message = ("RuntimeError: T3.1: branch predicates leave p = 11 "
                   "uncovered")
    else:  # the first branch applies at p = 11 (4 mod 7)
        _break_first_branch(monkeypatch, rhs=_faulty_rhs)
        message = "ValueError: rhs broke at p = 11"
    code = main(["verify", "--theorems", "T3.1", "--primes", "5..50",
                 "--format", "jsonl"])
    out, err = capsys.readouterr()
    assert code == 3
    records = [json.loads(ln) for ln in out.splitlines()[1:]]
    assert records and {r["p"] for r in records} <= {5, 7, 11}
    assert "Traceback" in err
    assert f"internal error: {message}" in err
    assert err.rstrip().endswith(
        f"checked {len(records)} records: 0 failures, "
        "0 counterexample-candidates")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_closed_stdout_is_not_an_engine_error(workers):
    """A reader that stops early (`verify ... | head -2`) ends the sweep
    with exit 141, as a shell reports SIGPIPE: the summary still goes to
    stderr, and there is no traceback and no internal error (exit 3)."""
    cmd = [sys.executable, "-m", "supercong", "verify", "--theorems",
           "all-proven", "--primes", "5..3000", "--format", "jsonl",
           "--workers", workers]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b'{"record":"header"')
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert code == 141, err
    assert "Traceback" not in err and "internal error" not in err
    assert err.rstrip().endswith(" records: 0 failures, "
                                 "0 counterexample-candidates")


def _imported(*args: str) -> set[str]:
    """The modules that `python -X importtime *args` imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {line.rpartition("|")[2].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_a_verify_run_imports_only_what_it_uses():
    """Start-up budget: beyond what a bare interpreter imports, a
    one-worker jsonl run imports no dataclass machinery (dataclasses,
    inspect), no pool (multiprocessing), no csv writer, no fractions
    (the library uses no rational type) and no remainder tree
    (supercong.sumtree), which only a sweep that reads its tables loads:
    a dense conjecture sweep does, a whole-registry sweep (T2.1 reads S
    at points that depend on p) and a one-prime conjecture sweep do not.
    A dense conjecture sweep asked for 2 workers still imports no pool:
    it runs in one process.  A csv run, as a positive control, does
    import csv."""
    bare = _imported("-c", "pass")
    run = ("-m", "supercong", "verify", "--theorems", "all", "--primes",
           "5..5")
    jsonl = _imported(*run, "--format", "jsonl") - bare
    assert {"supercong.cli", "supercong.theorems"} <= jsonl
    lazy = {"dataclasses", "inspect", "multiprocessing", "csv", "fractions",
            "supercong.sumtree"}
    assert not jsonl & lazy
    assert (_imported(*run, "--format", "csv") - bare) & lazy == {"csv"}
    sweep = ("-m", "supercong", "verify", "--format", "jsonl", "--primes")
    for theorems, primes, tree, workers in (
            ("all-conjectures", "5..300", True, "1"),
            ("all-conjectures", "5..300", True, "2"),
            ("all", "5..300", False, "1"),
            ("all-conjectures", "5..5", False, "1")):
        loaded = _imported(*sweep, primes, "--theorems", theorems,
                           "--workers", workers) - bare
        assert loaded & lazy == ({"supercong.sumtree"} if tree else set()), \
            (theorems, primes, workers)
