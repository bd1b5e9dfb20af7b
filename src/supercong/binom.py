"""Central binomial products and their truncated sums mod p**2.

The terms of interest are

    s(k) = C(2k,k)**2 * C(4k,2k) = (4k)! / k!**4
    t(k) = C(2k,k)    * C(4k,2k) = (4k)! / ((2k)! * k!**2)

and the truncated sums, for an integer m that p does not divide,

    S(m) = sum_{k=0}^{p-1} s(k) * m**(-k)      (mod p**2)
    T(x) = sum_{k=0}^{p-1} t(k) * x**k         (mod p**2)

For k < p the only factors p in these terms come from the numerator
(4k)!, one per multiple of p up to 4k, less those of (2k)! for t:

    v_p(s(k)) = [4k/p]        v_p(t(k)) = [4k/p] - [2k/p]

so s(k) = 0 mod p**2 once k > (p-1)/2, and t(k) = 0 mod p**2 once
k > (3p-1)/4.  Only those nonzero prefixes are built, each from its own
term ratio,

    s(k)/s(k-1) = 8(4k-1)(4k-3)(2k-1)/k**3    t(k)/t(k-1) = 4(4k-1)(4k-3)/k**2

whose numerators meet p only where the valuations above step up; those
factors stay in the running product, so later terms come out multiples
of p.  The ratios are the same integers at every prime, so the series are
built once for a block of nearby primes (PrimeCtx.block), modulo the
product M of their squares: the numerators run up in M, the factorials
(k!)**e run down in M, and each prime reads its prefix as a slice of the
block's values, still modulo M.  The block's bound on its largest prime
keeps every k! a unit mod M.  _series reads the s block and _t_prefix
the t block; _t_prefix runs only when T is evaluated, so a sweep that
reads only S never builds t.  Each prefix is packed once per prime into
an arith.PackedPoly, the baby-step/giant-step kernel that evaluates it
at every point; packing reduces each value mod p**2, the one reduction
a value takes.  The packed polynomials are the per-prime cache: the
prefixes themselves are not cached, since they keep the block's modulus
and a PrimeCtx compares by p alone.

A sweep whose statements read S only at fixed m, over a dense range (the
conjectures, for one; see theorems._tabulated), builds no s series at
all: sumtree gives S(m) at those m for a whole window of primes from
products of the term-ratio matrices, and sum_S reads the value from
PrimeCtx.sums.  The packed series stays the route for every other point
(T2.1's raw points, C2.1's samples), for `supercong sum` and the
consistency checks, and the oracle the tables are tested against.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import repeat
from operator import mul

from .arith import PackedPoly, PrimeCtx

__all__ = [
    "central_poly",
    "sum_S",
    "sum_T",
    "t_poly",
]


def _ratio_series(last: int, e: int, numerators: Iterable[int],
                  modulus: int) -> list[int]:
    """prod_{j <= k} numerators[j-1] / k!**e mod `modulus`, for
    k = 0 .. last.  The factorials take one walk down,
    D(k) = (last!/k!)**e from D(last) = 1, and one inverse: the walk up
    through the numerators starts at 1/D(0), so the value at k is that
    walk at k times D(k)."""
    acc = 1
    down = [1] + [acc := acc * c % modulus
                  for c in map(pow, range(last, 0, -1), repeat(e))]
    acc = pow(down.pop(), -1, modulus)  # 1/D(0); down keeps D(last..1)
    return [1] + [(acc := acc * f % modulus) * d % modulus
                  for f, d in zip(numerators, reversed(down))]


def _s_numerators(lo: int, hi: int) -> Iterator[int]:
    """8(2k-1)(4k-1)(4k-3), the numerator of s(k)/s(k-1), for lo < k <= hi."""
    return map(mul, map(mul, range(16 * lo + 8, 16 * hi, 16),
                        range(4 * lo + 3, 4 * hi, 4)),
               range(4 * lo + 1, 4 * hi, 4))


@lru_cache(maxsize=1)
def _s_block(block: tuple[int, ...]) -> list[int]:
    """s(k) for k = 0 .. (max-1)//2, modulo the product of the block's
    squares."""
    last = (block[-1] - 1) // 2
    return _ratio_series(last, 3, _s_numerators(0, last),
                         math.prod(block) ** 2)


@lru_cache(maxsize=1)
def _t_block(block: tuple[int, ...]) -> list[int]:
    """t(k) for k = 0 .. (3*max-1)//4, modulo the product of the block's
    squares."""
    last = (3 * block[-1] - 1) // 4
    # 4(4k-1) * (4k-3), k = 1 .. last
    numerators = map(mul, range(12, 16 * last, 16), range(1, 4 * last, 4))
    return _ratio_series(last, 2, numerators, math.prod(block) ** 2)


def _series(ctx: PrimeCtx) -> tuple[int, ...]:
    """s(k) for k = (p-1)/2 .. 0, highest k first (as PackedPoly takes
    them), modulo the block's modulus: read from the s series of ctx's
    block."""
    return tuple(_s_block(ctx.block)[ctx.half::-1])


def _t_prefix(ctx: PrimeCtx) -> tuple[int, ...]:
    """t(k) for k = (3p-1)//4 .. 0, highest k first, modulo the block's
    modulus: read from the t series of ctx's block.  Uncached, and called
    only by t_poly, so a sweep that never evaluates T never builds a t
    block."""
    return tuple(_t_block(ctx.block)[(3 * ctx.p - 1) // 4::-1])


@lru_cache(maxsize=1)
def central_poly(ctx: PrimeCtx) -> PackedPoly:
    """sum_k s(k) y**k mod p**2, packed for evaluation at many y."""
    return PackedPoly(_series(ctx), ctx.p2)


@lru_cache(maxsize=1)
def t_poly(ctx: PrimeCtx) -> PackedPoly:
    """sum_k t(k) x**k mod p**2, packed for evaluation at many x."""
    return PackedPoly(_t_prefix(ctx), ctx.p2)


def sum_S(m: int, ctx: PrimeCtx) -> int:
    """sum_{k=0}^{p-1} (4k)!/k!**4 * m**(-k) reduced mod p**2, for an
    integer m that p does not divide: read from ctx.sums where a sweep
    tabulated it (see sumtree), else from p's packed series."""
    if not isinstance(m, int):
        raise TypeError(f"m must be an int, got {m!r}")
    if m == 0:
        raise ValueError("m must be nonzero")
    if m % ctx.p == 0:
        raise ValueError(f"p = {ctx.p} divides m = {m}")
    if m in ctx.sums:
        return ctx.sums[m]
    return central_poly(ctx)(pow(m, -1, ctx.p2))


def sum_T(x: int, ctx: PrimeCtx) -> int:
    """sum_{k=0}^{p-1} (4k)!/((2k)! k!**2) * x**k mod p**2."""
    return t_poly(ctx)(x)
