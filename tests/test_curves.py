import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from supercong import curves
from supercong.arith import PrimeCtx, jacobi, primes_in, quad_char
from supercong.curves import char_sum, power_sum


def discriminant(a, b, c, ctx):
    """Discriminant of x^3 + a x^2 + b x + c mod p (zero exactly for
    singular curves)."""
    p = ctx.p
    a, b, c = a % p, b % p, c % p
    return (18 * a * b * c - 4 * a ** 3 * c + a * a * b * b
            - 4 * b ** 3 - 27 * c * c) % p


def scale_check(a, m, n, ctx):
    """Does the x -> ax substitution law hold for x^3 + a^2 m x + a^3 n?

    Checks the exact character-sum identity with the factor (a/p) and the
    power-sum variant with the factor a**((p-1)/2) mod p.
    """
    p = ctx.p
    a %= p
    scaled = (0, a * a * m, a ** 3 * n)
    plain = (0, m, n)
    if char_sum(*scaled, ctx) != jacobi(a, p) * char_sum(*plain, ctx):
        return False
    lhs = power_sum(*scaled, ctx)
    rhs = pow(a, ctx.half, p) * power_sum(*plain, ctx) % p
    return lhs == rhs


def char_sum_loop(a, b, c, ctx):
    """sum_x chi(x^3 + a x^2 + b x + c) over all of F_p, with chi read from
    the set of nonzero squares: the reference for char_sum, which lifts
    power_sum from p = 17 up."""
    p = ctx.p
    a, b, c = a % p, b % p, c % p
    chi = [-1] * p
    chi[0] = 0
    for x in range(1, (p + 1) // 2):
        chi[x * x % p] = 1
    return sum(chi[(((x + a) * x + b) * x + c) % p] for x in range(p))


def _power_sum_loop(a, b, c, ctx):
    """sum_x f(x)**((p-1)/2) mod p with one pow per x over all of F_p: the
    reference for power_sum, which reads the same sum from the coefficient
    of x**(p-1) in f**((p-1)/2)."""
    p = ctx.p
    a, b, c = a % p, b % p, c % p
    total = 0
    for x in range(p):
        total += pow((((x + a) * x + b) * x + c) % p, ctx.half, p)
    return total % p


def test_char_sum_examples():
    assert char_sum(0, 0, 0, PrimeCtx(7)) == 0
    c11 = PrimeCtx(11)
    assert char_sum(21, 112, 0, c11) == -4
    assert char_sum(0, 0, 1, PrimeCtx(5)) == 0


def test_char_sum_matches_quad_char():
    for p in (5, 13, 31):
        ctx = PrimeCtx(p)
        direct = sum(quad_char(x**3 + x * x + 2 * x + 3, ctx)
                     for x in range(p))
        assert char_sum(1, 2, 3, ctx) == direct


@pytest.mark.parametrize("p", primes_in(5, 31))
def test_char_sum_matches_loop_on_every_cubic(p):
    """Every (a, b, c) in F_p**3, on both sides of p = 17, where char_sum
    turns from the quad_char sum to the lift of power_sum."""
    ctx = PrimeCtx(p)
    for a, b, c in itertools.product(range(p), repeat=3):
        assert char_sum(a, b, c, ctx) == char_sum_loop(a, b, c, ctx), \
            (p, a, b, c)


def test_point_counts():
    assert 5 + 1 + char_sum(0, 0, 1, PrimeCtx(5)) == 6
    assert 7 + 1 + char_sum(0, 0, 0, PrimeCtx(7)) == 8
    c11 = PrimeCtx(11)
    # affine solutions of y^2 = f(x) counted directly, plus infinity
    affine = sum(1 for x in range(11) for y in range(11)
                 if (y * y - (x**3 + 21 * x * x + 112 * x)) % 11 == 0)
    assert affine + 1 == 11 + 1 + char_sum(21, 112, 0, c11) == 8


def test_power_sum_examples():
    assert power_sum(0, 0, 0, PrimeCtx(7)) == 0
    c13 = PrimeCtx(13)
    assert power_sum(4, 2, 0, c13) == char_sum(4, 2, 0, c13) % 13


def test_power_sum_matches_pow_loop():
    """Every prime < 300, visited in shuffled order with one prime visited
    twice, so the one-prime packed W is hit, missed and replaced."""
    rng = random.Random(25)
    primes = primes_in(5, 299)
    rng.shuffle(primes)
    primes.insert(len(primes) // 2, primes[0])
    curves._deuring_poly.cache_clear()
    for p in primes:
        ctx = PrimeCtx(p)
        r, u, v = (rng.randrange(p) for _ in range(3))
        cubics = [(0, 0, 0), (4, 0, 0),
                  (rng.randrange(p), rng.randrange(p), 0),
                  # (x - r)(x^2 + u x + v) has the root r in F_p
                  (u - r, v - r * u, -r * v)]
        cubics += [(rng.randrange(p), rng.randrange(p), rng.randrange(p))
                   for _ in range(4)]
        for cu in cubics:
            assert power_sum(*cu, ctx) == _power_sum_loop(*cu, ctx), (p, cu)
    info = curves._deuring_poly.cache_info()
    assert info.misses == len(primes)
    assert info.hits == 7 * len(primes)
    assert info.currsize == 1


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_power_sum_matches_pow_loop_on_every_cubic(p):
    """Every (a, b, c) in F_p**3; at p = 5 and 7 the coefficient of
    x**(p-1) has a single term."""
    ctx = PrimeCtx(p)
    for a, b, c in itertools.product(range(p), repeat=3):
        assert power_sum(a, b, c, ctx) == _power_sum_loop(a, b, c, ctx), \
            (p, a, b, c)


def _from_depressed(r, big_b, big_c, p):
    """(a, b, c) of (x + r)**3 + B (x + r) + C: the depressed cubic
    x**3 + B x + C shifted by r, with a = 3r."""
    return (3 * r % p, (3 * r * r + big_b) % p,
            (r ** 3 + big_b * r + big_c) % p)


def test_power_sum_degenerate_depressed_cubics():
    """B = 0, C = 0 and (x + r)**3 (B = C = 0) after the shift, at every
    prime below 120, for every shift r and a spread of the other
    coefficient."""
    for p in primes_in(5, 120):
        ctx = PrimeCtx(p)
        for r in range(p):
            cubics = [_from_depressed(r, 0, 0, p)]
            for v in {1, 2, p - 1, r, r * r + 3}:
                cubics += [_from_depressed(r, 0, v % p, p),
                           _from_depressed(r, v % p, 0, p)]
            for cu in cubics:
                assert power_sum(*cu, ctx) == _power_sum_loop(*cu, ctx), \
                    (p, r, cu)
        assert power_sum(-3, 3, -1, ctx) == 0  # (x - 1)**3


@pytest.mark.parametrize("p", [1009, 4999, 19997])
def test_power_sum_matches_pow_loop_at_larger_primes(p):
    """Random cubics, and shifts of depressed cubics with B = 0 and with
    C = 0, where W has 85, 417 and 1667 coefficients: a packed W
    of many columns against one pow per x."""
    ctx = PrimeCtx(p)
    assert curves._deuring_poly(ctx)[0].b > 1
    rng = random.Random(p)
    cubics = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(3)]
    cubics += [_from_depressed(rng.randrange(p), 0, rng.randrange(1, p), p),
               _from_depressed(rng.randrange(p), rng.randrange(1, p), 0, p)]
    for cu in cubics:
        assert power_sum(*cu, ctx) == _power_sum_loop(*cu, ctx), (p, cu)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(primes_in(5, 1500)), st.integers(), st.integers(),
       st.integers())
def test_power_sum_is_char_sum_mod_p(p, a, b, c):
    ctx = PrimeCtx(p)
    assert power_sum(a, b, c, ctx) == char_sum_loop(a, b, c, ctx) % p


def test_euler_consistency_sweep():
    rng = random.Random(21)
    for p in primes_in(5, 150):
        ctx = PrimeCtx(p)
        for _ in range(10):
            cu = (rng.randrange(p), rng.randrange(p), rng.randrange(p))
            assert power_sum(*cu, ctx) == char_sum_loop(*cu, ctx) % p


def test_hasse_bound_nonsingular():
    rng = random.Random(22)
    for p in primes_in(5, 500):
        ctx = PrimeCtx(p)
        for _ in range(5):
            cu = (rng.randrange(p), rng.randrange(p), rng.randrange(p))
            if discriminant(*cu, ctx) == 0:
                continue
            cs = char_sum_loop(*cu, ctx)
            assert cs ** 2 <= 4 * p
            assert char_sum(*cu, ctx) == cs, (p, cu)


def test_shift_invariance():
    c11 = PrimeCtx(11)
    # the worked shift: (x+7)^3 - 35(x+7) - 98 = x^3 + 21x^2 + 112x
    assert char_sum(0, -35, -98, c11) == char_sum(21, 112, 0, c11)
    rng = random.Random(23)
    for p in primes_in(5, 150):
        ctx = PrimeCtx(p)
        a, b, c = (rng.randrange(p) for _ in range(3))
        base = char_sum(a, b, c, ctx)
        for _ in range(3):
            s = rng.randrange(p)
            shifted = (a + 3 * s,
                       b + 2 * a * s + 3 * s * s,
                       c + b * s + a * s * s + s**3)
            assert char_sum(*shifted, ctx) == base


def test_singular_inputs_are_accepted():
    # t = 1 degenerates the x-coefficient family to x^3 + 4x^2
    ctx = PrimeCtx(13)
    assert discriminant(4, 0, 0, ctx) == 0
    assert power_sum(4, 0, 0, ctx) == char_sum(4, 0, 0, ctx) % 13


def test_scale_check_examples():
    assert scale_check(1, 3, 7, PrimeCtx(11))
    assert scale_check(4, 3, 7, PrimeCtx(11))
    assert scale_check(2, 1, 1, PrimeCtx(5))
    assert jacobi(2, 5) == -1  # a genuine non-residue scaling


def test_scale_check_sweep():
    rng = random.Random(24)
    for p in primes_in(5, 300):
        ctx = PrimeCtx(p)
        for _ in range(5):
            assert scale_check(rng.randrange(1, p), rng.randrange(p),
                               rng.randrange(p), ctx)
