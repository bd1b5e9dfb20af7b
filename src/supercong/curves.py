"""Quadratic character sums and power sums of cubics over F_p.

power_sum is the Euler-criterion sum sum_x f(x)**h mod p, h = (p-1)/2,
f = x^3 + a x^2 + b x + c, read from one coefficient of f**h (Deuring;
Silverman, The Arithmetic of Elliptic Curves, V.4):

    sum_{x in F_p} f(x)**h  =  -[x**(p-1)] f(x)**h   (mod p).

Proof: sum_x x**k is -1 mod p when k > 0 and (p-1) | k, and 0 otherwise
(for k = 0 it is p); deg f**h = 3h < 2(p-1), so of the monomials of f**h
only x**(p-1) survives the sum.

The shift x -> x - a/3 (p > 3), which permutes F_p, depresses f to
x^3 + B x + C.  A monomial of (x^3 + B x + C)**h takes x^3 i times, B x j
times and C k times; x**(2h) needs j = 2h - 3i and k = 2i - h, so i runs
over [lo, hi] = [ceil(h/2), floor(2h/3)], about p/12 terms, and for B != 0

    [x**(2h)] (x^3 + B x + C)**h  =  B**(2h-3lo) C**(2lo-h) W(C**2/B**3),

    W(z)  =  sum_{i=lo}^{hi} w_i z**(i-lo),   w_i = h!/(i! (2h-3i)! (2i-h)!).

W depends on p alone, so it is built once per prime mod p, from the
factorial table arith.factorials(h, p, hi) (no factorial below i = hi
is inverted: every i!, (2h-3i)! and (2i-h)! has index at most hi), and
packed as an arith.PackedPoly, the kernel that also evaluates S, T and
P_[p/4].  The degenerate cubics keep one term each: C = 0 is the point
z = 0, where W(0) = w_lo (term i = lo, nonzero only when 2lo = h), and
B = 0 keeps the term j = 0, w_hi C**(2hi-h) (nonzero only when
3hi = 2h).

char_sum is the exact integer sum_x chi(f(x)), the bridge between
Legendre-polynomial values and point counts on y^2 = f(x): the count is
p + 1 + char_sum.  By Euler's criterion chi(z) = z**h mod p term by term,
so char_sum = power_sum mod p, and for p >= 17 char_sum is power_sum
lifted to (-p/2, p/2): |char_sum| <= 2 sqrt(p) < p/2 by Hasse's bound when
f has no repeated root (Silverman, V.1.1), and a repeated root gives 0 or
+-1.  Below 17 it sums quad_char over F_p.  Both take the coefficients a,
b, c as plain integers and reduce them mod p.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import PackedPoly, PrimeCtx, factorials, quad_char

__all__ = [
    "char_sum",
    "power_sum",
]


@lru_cache(maxsize=1)
def _deuring_poly(
    ctx: PrimeCtx,
) -> tuple[PackedPoly, int, int, tuple[int, int] | None]:
    """W(z) mod p packed, highest degree first, with the exponents of B
    and C in front of it and the B = 0 term (w_hi, 2hi - h), or None
    when that term is absent (see the module docstring)."""
    p, h = ctx.p, ctx.half
    lo, hi = (h + 1) // 2, 2 * h // 3
    fac, inv = factorials(h, p, hi)
    w = [fac[h] * inv[i] % p * inv[2 * h - 3 * i] % p * inv[2 * i - h] % p
         for i in range(hi, lo - 1, -1)]
    b_zero = (w[0], 2 * hi - h) if 3 * hi == 2 * h else None
    return PackedPoly(w, p), 2 * h - 3 * lo, 2 * lo - h, b_zero


def power_sum(a: int, b: int, c: int, ctx: PrimeCtx) -> int:
    """sum_x (x^3 + a x^2 + b x + c)**h mod p, h = (p-1)/2, as minus the
    coefficient of x**(p-1) in f**h, read from W (see the module
    docstring)."""
    p = ctx.p
    s = a * pow(3, -1, p) % p
    big_b = (b - 3 * s * s) % p
    big_c = (c - b * s + 2 * s * s * s) % p
    w, e_b, e_c, b_zero = _deuring_poly(ctx)
    if big_b:
        z = big_c * big_c * pow(big_b, -3, p)
        coeff = w(z) * pow(big_b, e_b, p) * pow(big_c, e_c, p)
    elif b_zero:
        w_hi, e = b_zero
        coeff = w_hi * pow(big_c, e, p)
    else:
        coeff = 0
    return -coeff % p


def char_sum(a: int, b: int, c: int, ctx: PrimeCtx) -> int:
    """Exact integer sum_x chi(x^3 + a x^2 + b x + c): power_sum lifted to
    (-p/2, p/2) for p >= 17, quad_char over F_p below (see the module
    docstring)."""
    p = ctx.p
    if p < 17:
        return sum(quad_char(((x + a) * x + b) * x + c, ctx)
                   for x in range(p))
    s = power_sum(a, b, c, ctx)
    return s - p if 2 * s > p else s
