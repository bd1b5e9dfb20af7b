import math
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from padic import ValuedResidue, factorial_vp
from supercong.arith import (
    PrimeCtx,
    factorials,
    is_prime,
    jacobi,
    primes_in,
    quad_char,
    sqrt_mod_p,
    sqrt_mod_p2,
)


def test_prime_ctx_fields():
    ctx = PrimeCtx(11)
    assert (ctx.p, ctx.p2, ctx.half, ctx.qcap) == (11, 121, 5, 2)
    assert repr(ctx) == "PrimeCtx(p=11, p2=121, half=5, qcap=2)"


@pytest.mark.parametrize("name", ["p", "block", "sums", "p2", "half", "qcap",
                                  "new"])
def test_prime_ctx_is_immutable(name):
    ctx = PrimeCtx(11)
    with pytest.raises(AttributeError):
        setattr(ctx, name, 13)
    assert (ctx.p, ctx.block, ctx.p2) == (11, (11,), 121)
    assert ctx != 11 and ctx != PrimeCtx(13)


@pytest.mark.parametrize("bad", [-7, 0, 1, 2, 3, 4, 9, 15, 2**31 + 1])
def test_prime_ctx_rejects_non_primes_and_small(bad):
    with pytest.raises(ValueError):
        PrimeCtx(bad)


def test_prime_ctx_block():
    """A block defaults to (p,), must hold p and strictly ascend, and
    leaves equality and hashing alone.  (Whether its primes can share a
    series build is binom's test: see test_binom.)"""
    assert PrimeCtx(11).block == (11,)
    ctx = PrimeCtx(13, (11, 13))
    assert ctx.block == (11, 13)
    assert ctx == PrimeCtx(13) and hash(ctx) == hash(PrimeCtx(13))
    for block in ((11,), (13, 11), (11, 13, 13)):
        with pytest.raises(ValueError):
            PrimeCtx(13, block)


def test_prime_ctx_accepts_large_prime():
    ctx = PrimeCtx(2**31 - 1)
    assert ctx.p2 == (2**31 - 1) ** 2


def test_is_prime_spot():
    assert [n for n in range(60) if is_prime(n)] == primes_in(0, 59)
    assert is_prime(2**31 - 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7


PSI_12 = 318665857834031151167461  # = 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


def test_is_prime_is_exact_up_to_its_bound():
    """psi_12, the least strong pseudoprime to the witnesses 2..37, tests
    composite (41 is a witness), and from psi_13, which passes 2..41, no
    witness set is proven: is_prime refuses to answer, and so PrimeCtx
    refuses the number."""
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    for n in (PSI_13, PSI_13 + 2, 2**89 - 1):
        with pytest.raises(ValueError):
            is_prime(n)
        with pytest.raises(ValueError):
            PrimeCtx(n)


def primes_in_reference(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi] from a sieve of all of [0, hi]: the
    reference for primes_in's sieve of [lo, hi] alone."""
    if hi < 2 or hi < lo:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(hi) + 1):
        if sieve[i]:
            step = ((hi - i * i) // i) + 1
            sieve[i * i :: i] = bytearray(step)
    lo = max(lo, 2)
    return [i for i in range(lo, hi + 1) if sieve[i]]


def test_segmented_sieve_matches_whole_sieve():
    """Random ranges below 10**5, and the edges: hi < 2, lo > hi, lo <= 2,
    and a prime square at lo or at hi."""
    rng = random.Random(0)
    cases = [(lo, lo + rng.randrange(3000))
             for lo in (rng.randrange(10**5) for _ in range(300))]
    cases += [(-5, 1), (0, 0), (1, 1), (10, 9), (5, 4), (-3, 2), (2, 2),
              (0, 3), (1, 30), (2, 100)]
    cases += [(q * q + d, q * q + e) for q in (2, 3, 5, 7, 11, 97, 313)
              for d, e in ((0, 50), (-50, 0), (0, 0), (-1, 1))]
    for lo, hi in cases:
        assert primes_in(lo, hi) == primes_in_reference(lo, hi), (lo, hi)


def test_primes_in_sieves_only_its_range():
    """A 100-wide range near 10**8 takes O(width + 10**4) memory, not the
    100 MB of a sieve of [0, 10**8 + 100]."""
    tracemalloc.start()
    try:
        primes = primes_in(10**8, 10**8 + 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert primes == [p for p in range(10**8, 10**8 + 101) if is_prime(p)]
    assert peak < 2**20


def test_jacobi_examples():
    assert jacobi(0, 7) == 0
    assert jacobi(2, 7) == 1
    assert jacobi(-1, 11) == -1


@pytest.mark.parametrize("n", [0, -3, 4, 10])
def test_jacobi_rejects_bad_modulus(n):
    with pytest.raises(ValueError):
        jacobi(2, n)


@given(st.integers(-50, 50), st.integers(-50, 50),
       st.integers(0, 49).map(lambda k: 2 * k + 1))
def test_jacobi_multiplicative(a, b, n):
    assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_quad_char_examples():
    assert quad_char(0, PrimeCtx(11)) == 0
    assert quad_char(3, PrimeCtx(7)) == -1
    assert quad_char(4, PrimeCtx(7)) == 1


def test_quad_char_agrees_with_jacobi():
    for p in primes_in(5, 97):
        ctx = PrimeCtx(p)
        for a in range(p):
            assert quad_char(a, ctx) == jacobi(a, p)


def test_sqrt_examples():
    assert sqrt_mod_p(2, PrimeCtx(7)) == (3, 4)
    assert sqrt_mod_p(5, PrimeCtx(11)) == (4, 7)
    assert sqrt_mod_p(2, PrimeCtx(5)) == ()
    assert sqrt_mod_p(0, PrimeCtx(13)) == (0,)


def test_sqrt_consistency_with_character():
    # covers both the p = 3 mod 4 shortcut and the Tonelli-Shanks path
    for p in primes_in(5, 113):
        ctx = PrimeCtx(p)
        for a in range(1, p):
            roots = sqrt_mod_p(a, ctx)
            assert (quad_char(a, ctx) == 1) == bool(roots)
            for r in roots:
                assert r * r % p == a
            if roots:
                assert roots == (roots[0], p - roots[0])
                assert roots[0] <= roots[1]


def test_sqrt_mod_p2_lifts():
    for p in (5, 7, 11, 13, 17, 41):
        ctx = PrimeCtx(p)
        for a in range(1, ctx.p2):
            roots = sqrt_mod_p2(a, ctx)
            for r in roots:
                assert r * r % ctx.p2 == a % ctx.p2
            if a % p != 0:
                assert bool(roots) == (quad_char(a, ctx) == 1)
            elif a % ctx.p2 != 0:
                assert roots == ()


def test_factorials_match_math_factorial():
    """i! mod p for every i <= n and its inverse for every i <= k, at
    every n < p and k in {n, n // 2, 0} for the primes below 60, and at
    n = 0 and p - 1 up to 1000, where Wilson's theorem pins the last
    entry."""
    for p in primes_in(2, 1000):
        for n in range(p) if p < 60 else (0, p - 1):
            for k in (n, n // 2, 0):
                fac, inv = factorials(n, p, k)
                assert len(fac) == n + 1
                assert len(inv) == k + 1
                assert fac[:100] == [math.factorial(i) % p
                                     for i in range(min(n + 1, 100))]
                assert all(f * g % p == 1
                           for f, g in zip(fac, inv)), (p, n, k)
        assert fac[-1] == p - 1  # (p-1)! = -1 mod p


def test_factorial_vp_examples():
    ctx = PrimeCtx(5)
    assert factorial_vp(0, ctx) == ValuedResidue(ctx, 0, 1)
    assert factorial_vp(5, ctx) == ValuedResidue(ctx, 1, 24)
    assert factorial_vp(10, ctx) == ValuedResidue(ctx, 2, 2)


def test_factorial_vp_legendre_formula():
    for p in (5, 7, 11, 13):
        ctx = PrimeCtx(p)
        for n in range(201):
            expected = 0
            q = p
            while q <= n:
                expected += n // q
                q *= p
            assert factorial_vp(n, ctx).e == expected


def test_valued_residue_reduction_rules():
    ctx = PrimeCtx(7)
    assert ValuedResidue(ctx, 0, 3).residue() == 3
    assert ValuedResidue(ctx, 1, 3).residue() == 21
    assert ValuedResidue(ctx, 2, 3).residue() == 0
    assert ValuedResidue(ctx, 5, 3).residue() == 0
    assert ValuedResidue.from_int(0, ctx).residue() == 0
    with pytest.raises(ValueError):
        ValuedResidue(ctx, 0, 7)  # not a unit
    with pytest.raises(ValueError):
        ValuedResidue(ctx, 1, 0)  # malformed zero


def test_valued_residue_from_int_strips_valuation():
    ctx = PrimeCtx(5)
    v = ValuedResidue.from_int(2 * 5**3, ctx)
    assert (v.e, v.u) == (3, 2)
    assert ValuedResidue.from_int(-50, ctx).residue() == (-2 * 25) % 25


def test_valued_residue_multiplication_properties():
    ctx = PrimeCtx(13)
    rng = random.Random(2)
    vals = [ValuedResidue.from_int(rng.randrange(1, 10**6), ctx)
            for _ in range(30)]
    vals.append(ValuedResidue.from_int(0, ctx))
    for _ in range(200):
        a, b, c = rng.choice(vals), rng.choice(vals), rng.choice(vals)
        assert (a * b).residue() == (b * a).residue()
        assert ((a * b) * c).residue() == (a * (b * c)).residue()


def test_valued_residue_mul_matches_integers():
    ctx = PrimeCtx(5)
    rng = random.Random(3)
    for _ in range(200):
        x, y = rng.randrange(1, 5000), rng.randrange(1, 5000)
        prod = (ValuedResidue.from_int(x, ctx)
                * ValuedResidue.from_int(y, ctx))
        assert prod.residue() == x * y % 25
