"""Central binomial products and their truncated sums mod p**2.

The terms of interest are

    s(k) = C(2k,k)**2 * C(4k,2k) = (4k)! / k!**4
    t(k) = C(2k,k)    * C(4k,2k) = (4k)! / ((2k)! * k!**2)

and the truncated sums

    S(m) = sum_{k=0}^{p-1} s(k) * m**(-k)      (mod p**2)
    T(x) = sum_{k=0}^{p-1} t(k) * x**k         (mod p**2)

For k < p the only factors p in these terms come from the numerator
(4k)!, one per multiple of p up to 4k, less those of (2k)! for t:

    v_p(s(k)) = [4k/p]        v_p(t(k)) = [4k/p] - [2k/p]

so s(k) = 0 mod p**2 once k > (p-1)/2, and t(k) = 0 mod p**2 once
k > (3p-1)/4.  Only those nonzero prefixes are built, from the ratio
t(k)/t(k-1) = 4(4k-1)(4k-3)/k**2.  Below k = (3p-1)/4 its odd numerator
meets p once, at k = (p+1)/4 or (p+3)/4 (3p needs k > (3p-1)/4); that
factor stays in the running product mod p**2, so every later term comes
out a multiple of p.  _series builds the head k <= (p-1)/2 (all of s);
_t_prefix continues t from it only when T is evaluated, so a sweep that
reads only S never builds t's tail.  Each prefix is packed once per prime
into an arith.PackedPoly, the baby-step/giant-step kernel that evaluates
it at every point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arith import PackedPoly, PrimeCtx, inv_mod

__all__ = [
    "central_poly",
    "sum_S",
    "sum_T",
    "t_poly",
]


@lru_cache(maxsize=1)
def _series(ctx: PrimeCtx) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    """The series head: s(k) and t(k) mod p**2 for k = (p-1)/2 .. 0,
    highest k first (as PackedPoly takes them), then the running numerator
    prod_{j <= (p-1)/2} 4(4j-1)(4j-3) and ((p-1)/2)!, mod p**2, from which
    _t_prefix continues t.  t(k) = prod_{j <= k} 4(4j-1)(4j-3) / k!**2 and
    s(k) = t(k) (2k)!/k!**2; the denominators are units, and one modular
    inverse of ((p-1)/2)! and a backward walk give every 1/k!.
    """
    p2, half = ctx.p2, ctx.half
    nums, cents = [1], [1]  # prod 4(4j-1)(4j-3) and (2k)!/k!, k = 0..half
    num = cent = fact = 1
    for k in range(1, half + 1):
        num = num * (4 * (4 * k - 1) * (4 * k - 3)) % p2
        cent = cent * (4 * k - 2) % p2
        fact = fact * k % p2
        nums.append(num)
        cents.append(cent)
    inv = inv_mod(fact, p2)
    s_out, t_out = [], []
    for k in range(half, -1, -1):
        t = nums[k] * inv * inv % p2
        t_out.append(t)
        s_out.append(t * cents[k] * inv % p2)
        inv = inv * k % p2
    return tuple(s_out), tuple(t_out), num, fact


def _t_prefix(ctx: PrimeCtx) -> tuple[int, ...]:
    """t(k) mod p**2 for k = (3p-1)//4 .. 0: the head of _series continued
    to the end of t's nonzero prefix.  Uncached, and called only by t_poly,
    so a sweep that never evaluates T never builds the tail.
    """
    _, head, num, fact = _series(ctx)
    p2, lo, hi = ctx.p2, ctx.half + 1, (3 * ctx.p - 1) // 4
    nums = []
    for k in range(lo, hi + 1):
        num = num * (4 * (4 * k - 1) * (4 * k - 3)) % p2
        fact = fact * k % p2
        nums.append(num)
    inv = inv_mod(fact, p2)
    tail = []
    for k, num_k in zip(range(hi, lo - 1, -1), reversed(nums)):
        tail.append(num_k * inv * inv % p2)
        inv = inv * k % p2
    return tuple(tail) + head


@lru_cache(maxsize=1)
def central_poly(ctx: PrimeCtx) -> PackedPoly:
    """sum_k s(k) y**k mod p**2, packed for evaluation at many y."""
    return PackedPoly(_series(ctx)[0], ctx.p2)


@lru_cache(maxsize=1)
def t_poly(ctx: PrimeCtx) -> PackedPoly:
    """sum_k t(k) x**k mod p**2, packed for evaluation at many x."""
    return PackedPoly(_t_prefix(ctx), ctx.p2)


def sum_S(m: int | Fraction, ctx: PrimeCtx) -> int:
    """sum_{k=0}^{p-1} (4k)!/k!**4 * m**(-k) reduced mod p**2, for m an
    integer or a Fraction whose numerator and denominator p does not
    divide."""
    if not isinstance(m, (int, Fraction)):
        raise TypeError(f"m must be an int or a Fraction, got {m!r}")
    num, den, p = m.numerator, m.denominator, ctx.p
    if num == 0:
        raise ValueError("m must be nonzero")
    if den % p == 0:
        raise ValueError(f"m = {m} is not a p-adic integer for p = {p}")
    if num % p == 0:
        raise ValueError(f"p = {p} divides m = {m}")
    return central_poly(ctx)(den * inv_mod(num, ctx.p2) % ctx.p2)


def sum_T(x: int, ctx: PrimeCtx) -> int:
    """sum_{k=0}^{p-1} (4k)!/((2k)! k!**2) * x**k mod p**2."""
    return t_poly(ctx)(x)
