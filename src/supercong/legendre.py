"""Legendre polynomials over F_p and the truncated-sum form of P_[p/4].

P_n is evaluated through its explicit finite sum

    P_n(t) = 2**(-n) * sum_{k=0}^{[n/2]} C(n,k) (-1)**k C(2n-2k, n) t**(n-2k)

with all arithmetic mod p, as a polynomial in t**2 packed once per (n, p)
into an arith.PackedPoly.  The derivative (Rodrigues) form is not used.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import PackedPoly, PrimeCtx, inv_mod

__all__ = [
    "PolyArg",
    "legendre_eval",
    "parity_check",
    "truncated_128_sum",
]


@dataclass(frozen=True)
class PolyArg:
    """A polynomial argument t in [0, p) plus a tag saying where it came
    from (a chosen square root, or a direct rational reduction)."""

    t: int
    provenance: str = "direct"


@lru_cache(maxsize=1)
def _fact_tables(ctx: PrimeCtx) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """i! mod p and its inverse, for i = 0 .. p-1."""
    p = ctx.p
    fac = [1] * p
    for i in range(1, p):
        fac[i] = fac[i - 1] * i % p
    inv = [1] * p
    inv[p - 1] = inv_mod(fac[p - 1], p)
    for i in range(p - 1, 0, -1):
        inv[i - 1] = inv[i] * i % p
    return tuple(fac), tuple(inv)


@lru_cache(maxsize=1)
def _legendre_poly(n: int, ctx: PrimeCtx) -> PackedPoly:
    """2**(-n) P_n as a polynomial in t**2 (t**n down to t**(n mod 2))."""
    p = ctx.p
    fac, inv = _fact_tables(ctx)
    scale = inv_mod(pow(2, n, p), p)
    coeffs = []
    for k in range(n // 2 + 1):
        # C(n,k) C(2n-2k,n) = (2n-2k)!/(k! (n-k)! (n-2k)!); once
        # 2n-2k >= p, p divides it (one Kummer carry) and the term vanishes.
        a = 2 * n - 2 * k
        term = (scale * fac[a] % p * inv[k] % p * inv[n - k] % p
                * inv[n - 2 * k] % p if a < p else 0)
        coeffs.append(-term if k % 2 else term)
    return PackedPoly(coeffs, p)


def _arg(t: int | PolyArg) -> int:
    return t.t if isinstance(t, PolyArg) else t


def legendre_eval(n: int, t: int | PolyArg, ctx: PrimeCtx) -> int:
    """P_n(t) mod p via the explicit finite sum; requires n <= p-1."""
    p = ctx.p
    if not 0 <= n <= p - 1:
        raise ValueError(f"n must be in [0, p-1], got {n}")
    tv = _arg(t) % p
    acc = _legendre_poly(n, ctx)(tv * tv)
    return acc * tv % p if n % 2 else acc


def parity_check(n: int, t: int | PolyArg, ctx: PrimeCtx) -> bool:
    """Does P_n(-t) = (-1)**n P_n(t) hold mod p?"""
    p = ctx.p
    tv = _arg(t) % p
    lhs = legendre_eval(n, (p - tv) % p, ctx)
    rhs = legendre_eval(n, tv, ctx)
    if n % 2:
        rhs = (p - rhs) % p
    return lhs == rhs


def truncated_128_sum(t: int | PolyArg, ctx: PrimeCtx) -> int:
    """sum_{k=0}^{[p/4]} C(4k,2k) C(2k,k) ((1-t)/128)**k mod p.

    Equals P_[p/4](t) mod p.
    """
    p = ctx.p
    tv = _arg(t) % p
    w = (1 - tv) * inv_mod(128, p) % p
    fac, inv = _fact_tables(ctx)
    acc = 0
    wk = 1
    for k in range(ctx.qcap + 1):
        term = fac[4 * k] * inv[2 * k] % p * inv[k] % p * inv[k] % p
        acc = (acc + term * wk) % p
        wk = wk * w % p
    return acc
