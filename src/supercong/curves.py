"""Quadratic character sums and power sums of cubics over F_p.

char_sum brute-forces sum_x chi(x^3 + a x^2 + b x + c) as an exact integer,
reading chi from the set of nonzero squares.  power_sum is its Euler-
criterion twin sum_x f(x)**h mod p, h = (p-1)/2, read from one coefficient
of f**h (Deuring; Silverman, The Arithmetic of Elliptic Curves, V.4):

    sum_{x in F_p} f(x)**h  =  -[x**(p-1)] f(x)**h   (mod p).

Proof: sum_x x**k is -1 mod p when k > 0 and (p-1) | k, and 0 otherwise
(for k = 0 it is p); deg f**h = 3h < 2(p-1), so of the monomials of f**h
only x**(p-1) survives the sum.  The two routes share no table, so tests
comparing them compare two computations.  These sums are the bridge between
Legendre-polynomial values and point counts on y^2 = f(x): the count is
p + 1 + char_sum.  Both take the coefficients a, b, c as plain integers and
reduce them mod p.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import PrimeCtx, inv_mod

__all__ = [
    "char_sum",
    "power_sum",
]


@lru_cache(maxsize=1)
def _chi_table(ctx: PrimeCtx) -> tuple[int, ...]:
    """chi(z) for z = 0..p-1, built from the set of nonzero squares."""
    p = ctx.p
    chi = [-1] * p
    chi[0] = 0
    for x in range(1, (p + 1) // 2):
        chi[x * x % p] = 1
    return tuple(chi)


def char_sum(a: int, b: int, c: int, ctx: PrimeCtx) -> int:
    """Exact integer sum_x chi(x^3 + a x^2 + b x + c), brute force over F_p."""
    p = ctx.p
    a, b, c = a % p, b % p, c % p
    chi = _chi_table(ctx)
    total = 0
    for x in range(p):
        total += chi[(((x + a) * x + b) * x + c) % p]
    return total


@lru_cache(maxsize=1)
def _half_factorials(ctx: PrimeCtx) -> tuple[int, tuple[int, ...]]:
    """h! and (1/i! for i = 0..h) mod p, where h = (p-1)/2."""
    p, h = ctx.p, ctx.half
    fac = 1
    for i in range(2, h + 1):
        fac = fac * i % p
    inv = [1] * (h + 1)
    inv[h] = inv_mod(fac, p)
    for i in range(h, 1, -1):
        inv[i - 1] = inv[i] * i % p
    return fac, tuple(inv)


def power_sum(a: int, b: int, c: int, ctx: PrimeCtx) -> int:
    """sum_x (x^3 + a x^2 + b x + c)**h mod p, h = (p-1)/2, as minus the
    coefficient of x**(p-1) in f**h (see the module docstring).

    The shift x -> x - a/3 (p > 3), which permutes F_p, depresses f to
    x^3 + B x + C.  A monomial of (x^3 + B x + C)**h takes x^3 i times,
    B x j times and C k times; x**(2h) needs j = 2h - 3i and k = 2i - h,
    so i runs over [ceil(h/2), floor(2h/3)], about p/12 terms of
    h!/(i! j! k!) B**j C**k, summed by Horner in B**3 with a running
    power of C**2.
    """
    p, h = ctx.p, ctx.half
    s = a * inv_mod(3, p) % p
    big_b = (b - 3 * s * s) % p
    big_c = (c - b * s + 2 * s * s * s) % p
    fac, inv = _half_factorials(ctx)
    lo, hi = (h + 1) // 2, 2 * h // 3
    b3, c2 = pow(big_b, 3, p), big_c * big_c % p
    acc, c_pow = 0, 1
    for i in range(lo, hi + 1):
        acc = (acc * b3 + inv[i] * inv[2 * h - 3 * i] % p
               * inv[2 * i - h] * c_pow) % p
        c_pow = c_pow * c2 % p
    coeff = (acc * fac % p * pow(big_b, 2 * h - 3 * hi, p)
             * pow(big_c, 2 * lo - h, p))
    return -coeff % p
