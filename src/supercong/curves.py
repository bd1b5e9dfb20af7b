"""Quadratic character sums and power sums of cubics over F_p.

char_sum brute-forces sum_x chi(x^3 + a x^2 + b x + c) as an exact integer,
reading chi from the set of nonzero squares; power_sum is the Euler-criterion
twin sum_x f(x)**((p-1)/2) mod p, reading z**((p-1)/2) from a table built
once per prime by pow.  The two routes share no table, so tests comparing
them compare two computations.  These sums are the bridge between
Legendre-polynomial values and point counts on y^2 = f(x): the count is
p + 1 + char_sum.  Both take the coefficients a, b, c as plain integers and
reduce them mod p.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import PrimeCtx

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
def _euler_table(ctx: PrimeCtx) -> tuple[int, ...]:
    """z**((p-1)/2) mod p for z = 0..p-1 (Euler's criterion, by pow)."""
    p, half = ctx.p, ctx.half
    return tuple([pow(z, half, p) for z in range(p)])


def power_sum(a: int, b: int, c: int, ctx: PrimeCtx) -> int:
    """sum_x (x^3 + a x^2 + b x + c)**((p-1)/2) mod p."""
    p = ctx.p
    a, b, c = a % p, b % p, c % p
    table = _euler_table(ctx)
    return sum([table[(((x + a) * x + b) * x + c) % p]
                for x in range(p)]) % p
