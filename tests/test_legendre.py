import math
import random

import pytest

from supercong import binom, legendre
from supercong.arith import PrimeCtx, jacobi, primes_in
from supercong.binom import sum_T
from supercong.curves import power_sum
from supercong.legendre import legendre_eval


def test_low_degree_values():
    ctx = PrimeCtx(11)
    assert legendre_eval(0, 9, ctx) == 1
    assert legendre_eval(1, 9, ctx) == 9
    assert legendre_eval(2, 3, PrimeCtx(7)) == 6
    assert legendre_eval(2, 3 - 7, PrimeCtx(7)) == 6


def test_degree_bound():
    with pytest.raises(ValueError):
        legendre_eval(11, 2, PrimeCtx(11))


def _legendre_sum(n, t, p):
    """P_n(t) mod p by the explicit finite sum, one term at a time:
    2**(-n) sum_k (-1)**k C(n,k) C(2n-2k,n) t**(n-2k)."""
    acc = 0
    for k in range(n // 2 + 1):
        term = math.comb(n, k) * math.comb(2 * n - 2 * k, n)
        acc += (-1) ** k * term * pow(t, n - 2 * k, p)
    return acc * pow(2, -n, p) % p


def test_packed_eval_matches_explicit_sum():
    """Every n < p for every p < 200, n in shuffled order, three arguments
    each, so the one-entry (n, p) cache is hit, missed and replaced."""
    rng = random.Random(17)
    before = legendre._legendre_poly.cache_info()
    for p in primes_in(5, 199):
        ctx = PrimeCtx(p)
        ns = list(range(p))
        rng.shuffle(ns)
        for n in ns:
            for t in (0, p - 1, rng.randrange(p)):
                assert legendre_eval(n, t, ctx) == _legendre_sum(n, t, p), \
                    (p, n, t)
    after = legendre._legendre_poly.cache_info()
    assert after.hits - before.hits >= 2 * (after.misses - before.misses) > 0


def _assert_parity(n, t, ctx):
    """P_n(-t) = (-1)**n P_n(t) mod p."""
    p = ctx.p
    sign = -1 if n % 2 else 1
    assert legendre_eval(n, -t, ctx) == sign * legendre_eval(n, t, ctx) % p, \
        (p, n, t)


def test_parity_examples():
    _assert_parity(1, 5, PrimeCtx(11))
    _assert_parity(2, 3, PrimeCtx(7))
    ctx = PrimeCtx(101)
    rng = random.Random(4)
    for _ in range(10):
        _assert_parity(ctx.qcap, rng.randrange(101), ctx)


def test_parity_sweep():
    rng = random.Random(8)
    for p in primes_in(5, 200):
        ctx = PrimeCtx(p)
        for _ in range(5):
            _assert_parity(rng.randrange(p // 2 + 1), rng.randrange(p), ctx)


def _truncated_128_sum(t, ctx):
    """sum_{k=0}^{[p/4]} C(4k,2k) C(2k,k) ((1-t)/128)**k mod p, term by
    term with math.comb; equals P_[p/4](t) mod p."""
    p = ctx.p
    w = (1 - t) * pow(128, -1, p) % p
    return sum(math.comb(4 * k, 2 * k) * math.comb(2 * k, k) * pow(w, k, p)
               for k in range(ctx.qcap + 1)) % p


def test_truncated_sum_examples():
    assert _truncated_128_sum(1, PrimeCtx(11)) == 1
    c11 = PrimeCtx(11)
    assert _truncated_128_sum(3, c11) == legendre_eval(2, 3, c11)
    c13 = PrimeCtx(13)
    t = (1 - 128) % 13
    direct = sum(math.comb(4 * k, 2 * k) * math.comb(2 * k, k)
                 for k in range(4)) % 13
    assert _truncated_128_sum(t, c13) == direct == 11
    assert legendre_eval(3, t, c13) == 11


def test_truncated_sum_equals_p_quarter_eval():
    """30 random arguments per prime up to 500."""
    rng = random.Random(14)
    for p in primes_in(5, 500):
        ctx = PrimeCtx(p)
        for _ in range(30):
            t = rng.randrange(p)
            assert _truncated_128_sum(t, ctx) == legendre_eval(
                ctx.qcap, t, ctx), (p, t)


def test_p_quarter_is_t_at_every_point():
    """P_[p/4](t) = T((1-t)/128) mod p as polynomials in t, for every
    prime p < 2000: the identity by which the engine reads P_[p/4] claims
    from the t series.

    The mathematics.  Murphy's formula reads
    P_n(t) = sum_k C(n,k) C(n+k,k) ((t-1)/2)**k, and
    C(n,k) C(n+k,k) = prod_{j<k} (n-j)(n+1+j) / k!**2
                    = prod_{j<k} (n(n+1) - j(j+1)) / k!**2
    depends on n only through n(n+1).  For n = [p/4], n = -1/4 mod p when
    p = 1 mod 4 and n = -3/4 when p = 3 mod 4; either way
    n(n+1) = -3/16, and n(n+1) - j(j+1) = -(4j+1)(4j+3)/16.  Since
    prod_{j<k} (4j+1)(4j+3) = 4**(-k) k!**2 t(k), the coefficient is
    t(k)/(-64)**k mod p for k <= n (k!**2 is a unit), so
    P_n(t) = sum_{k<=n} t(k) ((1-t)/128)**k mod p.  The terms with
    n < k < p vanish mod p, since v_p(t(k)) = [4k/p] - [2k/p] >= 1 there.

    The certificate.  For each p the test checks (1) every t(k) with
    k > [p/4] that binom stores is 0 mod p, so sum_T((1-t)/128) mod p is
    the t-head polynomial of degree <= [p/4] in t; and (2) it equals
    legendre_eval([p/4], t) at the [p/4] + 1 points t = 0..[p/4].  Two
    polynomials of degree <= [p/4] over F_p that agree at [p/4] + 1
    points are equal, so this proves the code's two routes agree at every
    t for that p, not at a sample."""
    for p in primes_in(5, 1999):
        ctx = PrimeCtx(p)
        n, p2 = ctx.qcap, ctx.p2
        tail = binom._prefix(binom._T, ctx)[:-(n + 1)]  # k > [p/4], high first
        assert all(c % p == 0 for c in tail), p
        inv128 = pow(128, -1, p2)
        for t in range(n + 1):
            assert sum_T((1 - t) * inv128 % p2, ctx) % p == legendre_eval(
                n, t, ctx), (p, t)


def test_three_term_recurrence_chain():
    """(n+1) P_{n+1} = (2n+1) t P_n - n P_{n-1}: an independent route."""
    rng = random.Random(15)
    for p in primes_in(5, 300):
        ctx = PrimeCtx(p)
        t = rng.randrange(p)
        chain = [1, t]
        for n in range(1, p - 1):
            nxt = ((2 * n + 1) * t * chain[n] - n * chain[n - 1]) \
                * pow(n + 1, -1, p) % p
            chain.append(nxt)
        # n > p/2 reaches the terms that vanish by a Kummer carry
        picks = {0, 1, ctx.qcap, ctx.qcap // 2, rng.randrange(ctx.qcap + 1),
                 p - 1, rng.randrange(ctx.qcap, p)}
        for n in picks:
            assert chain[n] == legendre_eval(n, t, ctx), (p, n, t)


def test_cubic_power_sum_route():
    """P_[p/4](u) = -(6/p) sum_x (x^3 - 3(3u+5)/2 x + 9u+7)**((p-1)/2)."""
    rng = random.Random(16)
    for p in primes_in(5, 300):
        ctx = PrimeCtx(p)
        inv2 = pow(2, -1, p)
        for _ in range(3):
            u = rng.randrange(p)
            b = -3 * (3 * u + 5) * inv2 % p
            c = (9 * u + 7) % p
            ps = power_sum(0, b, c, ctx)
            rhs = -jacobi(6, p) * ps % p
            assert legendre_eval(ctx.qcap, u, ctx) == rhs, (p, u)
