"""Acceptance suite: every criterion at its stated range, exact equality.

Each test prints one PASS line (visible with -s; the -v status line carries
the same verdict).  All congruence checks are exact; there are no numeric
tolerances anywhere.
"""

import random
import subprocess
import sys
import time

from supercong.arith import PrimeCtx, jacobi, primes_in
from supercong.binom import sum_S, sum_T
from supercong.curves import char_sum, power_sum
from supercong.quadform import cornacchia, represent
from supercong.theorems import (
    CONJECTURE_IDS,
    SUM_ARGUMENTS,
    consistency_triangle,
    verify,
    verify_range,
)
from test_binom import (
    lemma21_recurrence_residual,
    lemma21_sides,
    theorem21_check,
)
from test_curves import char_sum_loop, discriminant, scale_check
from test_quadform import normalize

THEOREM_D_SET = (2, 5, 6, 7, 9, 10, 13, 18, 22, 25, 29, 37, 58)


def _report(num, text):
    print(f"ACCEPTANCE {num:02d}: {text}: PASS")


def test_criterion_01_lemma21_identity_and_recurrence():
    start = time.monotonic()
    sides = [lemma21_sides(m) for m in range(301)]
    for m, (left, right) in enumerate(sides):
        assert left == right, f"identity fails at m={m}"
    lf = lambda m: sides[m][0]
    rf = lambda m: sides[m][1]
    for m in range(299):
        assert lemma21_recurrence_residual(m, lf) == 0, m
        assert lemma21_recurrence_residual(m, rf) == 0, m
    elapsed = time.monotonic() - start
    assert elapsed < 10, f"runtime target exceeded: {elapsed:.1f}s"
    _report(1, f"convolution identity m<=300 + recurrence m<=298 "
               f"({elapsed:.1f}s)")


def test_criterion_02_theorem21_random_arguments():
    start = time.monotonic()
    for p in primes_in(5, 500):
        ctx = PrimeCtx(p)
        rng = random.Random(f"acc2:{p}")
        for _ in range(20):
            x = rng.randrange(ctx.p2)
            assert theorem21_check(x, ctx), (p, x)
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"runtime target exceeded: {elapsed:.1f}s"
    _report(2, f"squared-sum identity, 20 seeded x per prime <= 500 "
               f"({elapsed:.1f}s)")


def test_criterion_03_rv256():
    assert sum_S(256, PrimeCtx(11)) == 14
    for p in primes_in(5, 2000):
        ctx = PrimeCtx(p)
        value = sum_S(256, ctx)
        if p % 8 in (1, 3):
            rep = cornacchia(2, p)
            assert rep is not None, p
            assert value == (4 * rep[0]**2 - 2 * p) % ctx.p2, p
        else:
            assert value == 0, p
    _report(3, "m=256 sum vs 4x^2-2p / 0 mod p^2, primes <= 2000")


def test_criterion_04_corollary_2_3():
    (rec,) = verify("C2.3", 11)
    assert rec.lhs == 16
    for p in primes_in(5, 2000):
        if p % 8 not in (1, 3):
            continue
        ctx = PrimeCtx(p)
        c, _ = normalize(cornacchia(2, p), "one_mod_4")
        sign = -1 if (p // 8 + ctx.half) % 2 else 1
        rhs = sign * (2 * c - p * pow(2 * c, -1, ctx.p2)) % ctx.p2
        assert sum_T(pow(128, -1, ctx.p2), ctx) == rhs, p
    _report(4, "128-denominator sum vs (-1)^([p/8]+(p-1)/2)(2c-p/2c), "
               "primes <= 2000")


def test_criterion_05_section3_theorems():
    ids = tuple(f"T3.{i}" for i in range(1, 12))
    spots = {}
    for rec in verify_range(ids, 5, 2000):
        assert rec.passed, rec
        spots.setdefault((rec.theorem, rec.p, rec.branch), rec)
    s11 = spots[("T3.1", 11, "p mod 7 in {1,2,4}")]
    assert s11.lhs == 16 % 11 and s11.modulus == 11
    s13 = spots[("T3.1", 13, "p mod 7 in {3,5,6}")]
    assert s13.lhs == 0 and s13.modulus == 169
    s17 = spots[("T3.5", 17, "p mod 24 in {17,23}")]
    assert s17.lhs == 0 and s17.modulus == 289

    # zero branches must have no representation by the branch-1 form
    negative = (
        (7, lambda p: p % 7 in (3, 5, 6) and p != 7),
        (9, lambda p: p % 12 == 11),
        (13, lambda p: jacobi(13, p) == 1 and p % 4 == 3),
        (37, lambda p: jacobi(37, p) == 1 and p % 4 == 3),
        (6, lambda p: p % 24 in (17, 23)),
        (10, lambda p: p % 40 in (21, 29, 31, 39)),
        (22, lambda p: p % 8 in (1, 7) and p != 11 and jacobi(p, 11) == -1),
        (58, lambda p: jacobi(29, p) == 1 and p % 8 in (5, 7)),
        (18, lambda p: p % 24 in (5, 23)),
        (25, lambda p: p % 4 == 3),
    )
    for p in primes_in(5, 2000):
        for d, in_zero_branch in negative:
            if in_zero_branch(p):
                assert represent(d, p) is None, (d, p)
    _report(5, "section-3 statements, all applicable primes <= 2000, "
               "witnesses iff demanded")


def test_criterion_06_consistency_triangle():
    ms = sorted({m for _, m in SUM_ARGUMENTS})
    checked_p = checked_p2 = 0
    for p in primes_in(5, 1000):
        ctx = PrimeCtx(p)
        for m in ms:
            if m % p == 0:
                continue
            res = consistency_triangle(m, ctx)
            if "skipped" in res:
                continue
            assert res["mod_p"] is True, (p, m)
            checked_p += 1
            if res["mod_p2"] is not None:
                assert res["mod_p2"] is True, (p, m)
                checked_p2 += 1
    assert checked_p > 1000 and checked_p2 > 900
    _report(6, f"sum = P^2 mod p ({checked_p} cases) and = T^2 mod p^2 "
               f"({checked_p2} cases), both roots, primes <= 1000")


def test_criterion_07_curve_invariants():
    rng = random.Random("acc7")
    for p in primes_in(5, 300):
        ctx = PrimeCtx(p)
        a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
        base_cs = char_sum(a, b, c, ctx)
        for _ in range(20):
            cu = (rng.randrange(p), rng.randrange(p), rng.randrange(p))
            cs = char_sum_loop(*cu, ctx)
            assert char_sum(*cu, ctx) == cs, (p, cu)
            assert power_sum(*cu, ctx) == cs % p, (p, cu)
            if discriminant(*cu, ctx) != 0:
                assert cs * cs <= 4 * p, (p, cu)
            s = rng.randrange(p)
            shifted = (a + 3 * s,
                       b + 2 * a * s + 3 * s * s,
                       c + b * s + a * s * s + s**3)
            assert char_sum(*shifted, ctx) == base_cs, (p, s)
            assert scale_check(rng.randrange(1, p), rng.randrange(p),
                               rng.randrange(p), ctx), p
    _report(7, "Euler consistency, Hasse bound, shift invariance, scaling "
               "law, 20 instances per prime <= 300")


def test_criterion_08_cornacchia_vs_exhaustive():
    for p in primes_in(5, 2000):
        for d in THEOREM_D_SET:
            if d % p == 0:
                continue
            rep = cornacchia(d, p)
            oracle = represent(d, p)
            if oracle is None:
                assert rep is None, (d, p)
            else:
                assert rep == oracle, (d, p)
    _report(8, "cornacchia vs exhaustive search, 13 coefficients, "
               "primes <= 2000")


def test_criterion_09_conjecture_registry():
    candidates = []
    evaluated = 0
    for rec in verify_range(CONJECTURE_IDS, 5, 1000):
        if rec.applicable:
            evaluated += 1
        if not rec.passed:
            candidates.append(rec)
    for rec in candidates:
        print(f"COUNTEREXAMPLE-CANDIDATE (for review): {rec}")
    assert evaluated > 1500
    _report(9, f"conjecture registry, primes <= 1000: {evaluated} checks, "
               f"{len(candidates)} counterexample-candidates")


def test_criterion_10_cli_determinism():
    args = [sys.executable, "-m", "supercong", "verify", "--theorems",
            "all-proven", "--primes", "5..500", "--format", "jsonl"]
    one = subprocess.run([*args, "--workers", "1"], capture_output=True)
    eight = subprocess.run([*args, "--workers", "8"], capture_output=True)
    assert one.returncode == 0 and eight.returncode == 0
    assert one.stdout == eight.stdout
    assert len(one.stdout.splitlines()) > 4000
    _report(10, "byte-identical JSONL for worker counts 1 and 8, "
                "all-proven 5..500")
