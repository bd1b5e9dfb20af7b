import math
import random
from fractions import Fraction

import pytest

from supercong import binom
from supercong.arith import PrimeCtx, horner, inv_mod, primes_in
from supercong.binom import (
    CentralSumParams,
    binom_exact,
    central_series,
    central_term,
    lemma21_recurrence_residual,
    lemma21_sides,
    sum_S,
    sum_S_exact,
    sum_T,
    t_series,
    t_term,
    theorem21_check,
)
from supercong.theorems import REGISTRY


def test_binom_exact():
    assert binom_exact(4, 2) == 6
    assert binom_exact(1, 2) == 0
    assert binom_exact(8, 4) == 70
    assert binom_exact(5, -1) == 0
    with pytest.raises(ValueError):
        binom_exact(-1, 0)


def test_central_term_examples():
    ctx = PrimeCtx(5)
    assert (central_term(0, ctx).e, central_term(0, ctx).u) == (0, 1)
    assert (central_term(1, ctx).e, central_term(1, ctx).u) == (0, 24)
    assert (central_term(2, ctx).e, central_term(2, ctx).u) == (1, 4)
    with pytest.raises(ValueError):
        central_term(5, ctx)


def test_series_agree_with_factorial_route():
    """Every prime < 200, so both residues of p mod 4 pin where the stored
    prefixes stop: v_p(s(k)) = [4k/p] and v_p(t(k)) = [4k/p] - [2k/p]."""
    for p in primes_in(5, 199):
        ctx = PrimeCtx(p)
        s_prefix, t_prefix = binom._series(ctx)
        assert len(s_prefix) == (p - 1) // 2 + 1
        assert len(t_prefix) == (3 * p - 1) // 4 + 1
        cs, ts = central_series(ctx), t_series(ctx)
        assert len(cs) == len(ts) == p
        for k in range(p):
            assert cs[k] == central_term(k, ctx).residue()
            assert ts[k] == t_term(k, ctx).residue()


def test_valuation_truncation():
    """p | s(k) for p/4 < k < p, and p**2 | t(k) for 3p/4 <= k < p."""
    for p in primes_in(5, 200):
        ctx = PrimeCtx(p)
        for k in range(p):
            e = central_term(k, ctx).e
            assert (e >= 1) == (k > p / 4), (p, k)
        for k in range((3 * p + 3) // 4, p):
            assert t_term(k, ctx).e >= 2, (p, k)


def test_sum_s_spot_values():
    assert sum_S(CentralSumParams(256, PrimeCtx(11))) == 14
    assert sum_S(CentralSumParams(81, PrimeCtx(13))) == 0
    v = sum_S(CentralSumParams(81, PrimeCtx(11)))
    assert v == 115  # big-integer oracle value
    assert v % 11 == 16 % 11


def test_sum_s_rejects_bad_m():
    ctx = PrimeCtx(11)
    with pytest.raises(ValueError):
        CentralSumParams(0, ctx)
    with pytest.raises(ValueError):
        CentralSumParams(121, ctx)
    with pytest.raises(ValueError):
        CentralSumParams(Fraction(3, 11), ctx)


def test_sum_s_matches_exact_oracle():
    ms = [81, 256, -144, 648, -3969, -12288, 7, 2304, Fraction(81, 5),
          Fraction(-7, 3)]
    for p in primes_in(5, 97):
        ctx = PrimeCtx(p)
        for m in ms:
            num = m.numerator if isinstance(m, Fraction) else m
            den = m.denominator if isinstance(m, Fraction) else 1
            if num % p == 0 or den % p == 0:
                continue
            assert sum_S(CentralSumParams(m, ctx)) == sum_S_exact(m, ctx)


def test_sum_t_spot_values():
    ctx = PrimeCtx(11)
    assert sum_T(0, ctx) == 1
    assert sum_T(inv_mod(128, 121), ctx) == 16
    c7 = PrimeCtx(7)
    lhs = sum_T(inv_mod(128, 49), c7) ** 2 % 49
    assert lhs == sum_S(CentralSumParams(256, c7))


def test_sum_t_matches_direct_binomials():
    rng = random.Random(5)
    for p in (5, 13, 37):
        ctx = PrimeCtx(p)
        for _ in range(5):
            x = rng.randrange(ctx.p2)
            direct = sum(math.comb(2 * k, k) * math.comb(4 * k, 2 * k)
                         * x**k for k in range(p)) % ctx.p2
            assert sum_T(x, ctx) == direct


@pytest.mark.parametrize("p", [1009, 1019])  # 1 and 3 mod 4
def test_large_p_sums_match_big_integer_routes(p):
    """The big-integer routes cost O(p**2) digit work; at p = 4999 each
    takes tens of seconds, so larger primes stay out of the fast suite."""
    ctx = PrimeCtx(p)
    m = REGISTRY["T3.1"].m
    assert sum_S(CentralSumParams(m, ctx)) == sum_S_exact(m, ctx)
    x = random.Random(p).randrange(ctx.p2)
    direct = sum(math.comb(2 * k, k) * math.comb(4 * k, 2 * k) * x**k
                 for k in range(p)) % ctx.p2
    assert sum_T(x, ctx) == direct


def _power_sum_loop(coeffs, y, mod):
    """The two-multiply power-sum loop the Horner kernel replaced, with
    coefficients in ascending degree."""
    acc = 0
    yk = 1
    for c in coeffs:
        acc = (acc + c * yk) % mod
        yk = yk * y % mod
    return acc


def test_horner_matches_power_sum_loop():
    rng = random.Random(3)
    for p in primes_in(5, 299):
        ctx = PrimeCtx(p)
        s_prefix, t_prefix = binom._series(ctx)
        for full, prefix in ((central_series(ctx), s_prefix),
                             (t_series(ctx), t_prefix)):
            ys = (0, 1, p, ctx.p2 - 1, rng.randrange(ctx.p2),
                  rng.randrange(ctx.p2))
            for mod in (p, ctx.p2):
                for y in ys:
                    ref = _power_sum_loop(full, y, mod)
                    assert horner(full[::-1], y, mod) == ref, (p, y, mod)
                    assert horner(prefix, y, mod) == ref, (p, y, mod)


def test_theorem21_examples():
    assert theorem21_check(0, PrimeCtx(11))
    assert theorem21_check(inv_mod(128, 121), PrimeCtx(11))
    assert theorem21_check(17, PrimeCtx(13))


def test_theorem21_random_mini_sweep():
    rng = random.Random(11)
    for p in primes_in(5, 60):
        ctx = PrimeCtx(p)
        for _ in range(5):
            assert theorem21_check(rng.randrange(ctx.p2), ctx)


def test_lemma21_sides_examples():
    assert lemma21_sides(0) == (1, 1)
    assert lemma21_sides(1) == (24, 24)
    assert lemma21_sides(2) == (984, 984)


def test_lemma21_identity_and_recurrence_mini():
    values = [lemma21_sides(m) for m in range(43)]
    for left, right in values:
        assert left == right
    lf = lambda m: values[m][0]
    rf = lambda m: values[m][1]
    for m in range(41):
        assert lemma21_recurrence_residual(m, lf) == 0
        assert lemma21_recurrence_residual(m, rf) == 0
    # the m = 0 instance spelled out
    assert 3072 * 1 - 456 * 24 + 8 * 984 == 0


def test_corollary22_implication():
    """Vanishing truncation to [p/4] forces the full sum to 0 mod p**2."""
    ms = (81, -144, 648, -3969, -12288, 2304, 256, 615)
    for p in primes_in(5, 100):
        ctx = PrimeCtx(p)
        series = central_series(ctx)
        for m in ms:
            if m % p == 0 or (m - 256) % p == 0:
                continue
            mi = inv_mod(m, p)
            acc, yk = 0, 1
            for k in range(ctx.qcap + 1):
                acc = (acc + series[k] * yk) % p
                yk = yk * mi % p
            if acc == 0:
                assert sum_S(CentralSumParams(m, ctx)) == 0, (p, m)
