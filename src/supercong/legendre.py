"""Legendre polynomials over F_p.

P_n is evaluated through its explicit finite sum

    P_n(t) = 2**(-n) * sum_{k=0}^{[n/2]} C(n,k) (-1)**k C(2n-2k, n) t**(n-2k)

with all arithmetic mod p, as a polynomial in t**2 packed once per (n, p)
into an arith.PackedPoly; its factorials come from arith.factorials,
which inverts only the i! with i <= n that the terms divide by.  The
engine reads P_[p/4] from binom's t series; this independent route serves
the consistency checks and `supercong sum`.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import PackedPoly, PrimeCtx, factorials

__all__ = [
    "legendre_eval",
]


@lru_cache(maxsize=1)
def _legendre_poly(n: int, ctx: PrimeCtx) -> PackedPoly:
    """2**(-n) P_n as a polynomial in t**2 (t**n down to t**(n mod 2))."""
    p = ctx.p
    fac, inv = factorials(min(2 * n, p - 1), p, n)
    scale = pow(2, -n, p)
    coeffs = []
    for k in range(n // 2 + 1):
        # C(n,k) C(2n-2k,n) = (2n-2k)!/(k! (n-k)! (n-2k)!); once
        # 2n-2k >= p, p divides it (one Kummer carry) and the term vanishes.
        a = 2 * n - 2 * k
        term = (scale * fac[a] % p * inv[k] % p * inv[n - k] % p
                * inv[n - 2 * k] % p if a < p else 0)
        coeffs.append(-term if k % 2 else term)
    return PackedPoly(coeffs, p)


def legendre_eval(n: int, t: int, ctx: PrimeCtx) -> int:
    """P_n(t) mod p via the explicit finite sum; requires n <= p-1."""
    p = ctx.p
    if not 0 <= n <= p - 1:
        raise ValueError(f"n must be in [0, p-1], got {n}")
    t %= p
    acc = _legendre_poly(n, ctx)(t * t)
    return acc * t % p if n % 2 else acc
