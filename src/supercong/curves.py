"""Quadratic character sums and power sums of cubics over F_p.

char_sum brute-forces sum_x chi(x^3 + a x^2 + b x + c) as an exact integer,
reading chi from the set of nonzero squares; power_sum is the Euler-criterion
twin sum_x f(x)**((p-1)/2) mod p, reading z**((p-1)/2) from a table built
once per prime by pow.  The two routes share no table, so tests comparing
them compare two computations.  These sums are the bridge between
Legendre-polynomial values and point counts on y^2 = f(x): the count is
p + 1 + char_sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import PrimeCtx, jacobi

__all__ = [
    "CubicCurve",
    "char_sum",
    "discriminant",
    "power_sum",
    "scale_check",
]


@dataclass(frozen=True)
class CubicCurve:
    """Coefficients of the monic cubic x^3 + a x^2 + b x + c."""

    a: int
    b: int
    c: int

    @classmethod
    def reduced(cls, a: int, b: int, c: int, ctx: PrimeCtx) -> "CubicCurve":
        p = ctx.p
        return cls(a % p, b % p, c % p)


@lru_cache(maxsize=1)
def _chi_table(ctx: PrimeCtx) -> tuple[int, ...]:
    """chi(z) for z = 0..p-1, built from the set of nonzero squares."""
    p = ctx.p
    chi = [-1] * p
    chi[0] = 0
    for x in range(1, (p + 1) // 2):
        chi[x * x % p] = 1
    return tuple(chi)


def char_sum(curve: CubicCurve, ctx: PrimeCtx) -> int:
    """Exact integer sum_x chi(x^3 + a x^2 + b x + c), brute force over F_p."""
    p = ctx.p
    a, b, c = curve.a % p, curve.b % p, curve.c % p
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


def power_sum(curve: CubicCurve, ctx: PrimeCtx) -> int:
    """sum_x (x^3 + a x^2 + b x + c)**((p-1)/2) mod p."""
    p = ctx.p
    a, b, c = curve.a % p, curve.b % p, curve.c % p
    table = _euler_table(ctx)
    return sum([table[(((x + a) * x + b) * x + c) % p]
                for x in range(p)]) % p


def discriminant(curve: CubicCurve, ctx: PrimeCtx) -> int:
    """Discriminant of the cubic mod p (zero exactly for singular curves)."""
    p = ctx.p
    a, b, c = curve.a % p, curve.b % p, curve.c % p
    return (18 * a * b * c - 4 * a ** 3 * c + a * a * b * b
            - 4 * b ** 3 - 27 * c * c) % p


def scale_check(a: int, m: int, n: int, ctx: PrimeCtx) -> bool:
    """Does the x -> ax substitution law hold for x^3 + a^2 m x + a^3 n?

    Checks the exact character-sum identity with the factor (a/p) and the
    power-sum variant with the factor a**((p-1)/2) mod p.
    """
    p = ctx.p
    a %= p
    scaled = CubicCurve.reduced(0, a * a * m, a ** 3 * n, ctx)
    plain = CubicCurve.reduced(0, m, n, ctx)
    if char_sum(scaled, ctx) != jacobi(a, p) * char_sum(plain, ctx):
        return False
    lhs = power_sum(scaled, ctx)
    rhs = pow(a, ctx.half, p) * power_sum(plain, ctx) % p
    return lhs == rhs
