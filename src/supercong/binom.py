"""Central binomial products and their truncated sums mod p**2.

The terms of interest are

    s(k) = C(2k,k)**2 * C(4k,2k) = (4k)! / k!**4
    t(k) = C(2k,k)    * C(4k,2k) = (4k)! / ((2k)! * k!**2)

and the truncated sums, for an integer m that p does not divide,

    S(m) = sum_{k=0}^{p-1} s(k) * m**(-k)      (mod p**2)
    T(x) = sum_{k=0}^{p-1} t(k) * x**k         (mod p**2)

Each series is stated once, by a _Series record (_S, _T): its term ratio

    s(k)/s(k-1) = 8(2k-1)(4k-1)(4k-3)/k**3    t(k)/t(k-1) = 4(4k-1)(4k-3)/k**2

as the numerators over a range of k and the exponent e of k, and its
cut-off last(p) = (r*p - 1)//4, r = 2 for s and 3 for t.  For k < p the
only factors p in the terms come from the numerator (4k)!, one per
multiple of p up to 4k, less those of (2k)! for t:

    v_p(s(k)) = [4k/p]        v_p(t(k)) = [4k/p] - [2k/p]

so a term is 0 mod p**2 once k > last(p), and only the prefixes up to
last(p) are built.  The numerators meet p only where the valuations step
up; those factors stay in the running product, so later terms come out
multiples of p.  The ratios are the same integers at every prime, so
_block builds a series once for a block of nearby primes (PrimeCtx.block)
modulo the product M of their squares: the numerators run up in M, the
factorials (k!)**e run down in M, and _prefix reads each prime's prefix
as a slice of the block's values, still modulo M.  A block must pass
shares_block, t's cut-off at its largest prime below its least, which
keeps every k! a unit mod M.  t is built only when T is evaluated, so a
sweep that reads only S never builds it.  Each prefix is packed once per
prime into an arith.PackedPoly, the baby-step/giant-step kernel that
evaluates it at every point; packing reduces each value mod p**2, the one
reduction a value takes.  The packed polynomials are the per-prime cache:
the prefixes are not cached, since they keep the block's modulus and a
PrimeCtx compares by p alone.

A sweep whose statements read S only at fixed m, over a dense range (the
conjectures, for one; see theorems._tabulated), builds no s series at
all: sumtree gives S(m) at those m for a whole window of primes from
products of _S's term-ratio matrices, and sum_S reads the value from
PrimeCtx.sums.  The packed series stays the route for every other point
(T2.1's raw points, C2.1's samples), for `supercong sum` and the
consistency checks, and the oracle the tables are tested against.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from functools import lru_cache
from itertools import repeat
from operator import mul
from typing import NamedTuple

from .arith import PackedPoly, PrimeCtx

__all__ = [
    "central_poly",
    "shares_block",
    "sum_S",
    "sum_T",
    "t_poly",
]


class _Series(NamedTuple):
    """A series whose term at k is its term at k-1 times a numerator over
    k**e, and whose terms are 0 mod p**2 past last(p) = (r*p - 1)//4."""

    numerators: Callable[[int, int], Iterator[int]]  # for lo < k <= hi
    e: int
    r: int

    def last(self, p: int) -> int:
        return (self.r * p - 1) // 4


_S = _Series(lambda lo, hi: map(mul, map(mul, range(16 * lo + 8, 16 * hi, 16),
                                         range(4 * lo + 3, 4 * hi, 4)),
                                range(4 * lo + 1, 4 * hi, 4)), e=3, r=2)
_T = _Series(lambda lo, hi: map(mul, range(16 * lo + 12, 16 * hi, 16),
                                range(4 * lo + 1, 4 * hi, 4)), e=2, r=3)


def shares_block(lo: int, hi: int) -> bool:
    """May the primes lo <= hi build their series as one block?  Yes when
    t's cut-off at hi is below lo: then every k! that either build divides
    by is a unit mod lo**2."""
    return _T.last(hi) < lo


@lru_cache(maxsize=2)
def _block(series: _Series, block: tuple[int, ...]) -> list[int]:
    """The series' terms for k = 0 .. last(max), modulo the product of the
    block's squares.  The factorials take one walk down,
    D(k) = (last!/k!)**e from D(last) = 1, and one inverse: the walk up
    through the numerators starts at 1/D(0), so the term at k is that walk
    at k times D(k)."""
    if not shares_block(block[0], block[-1]):
        raise ValueError(f"the primes {block!r} cannot share a build")
    last = series.last(block[-1])
    modulus = math.prod(block) ** 2
    acc = 1
    down = [1] + [acc := acc * c % modulus
                  for c in map(pow, range(last, 0, -1), repeat(series.e))]
    acc = pow(down.pop(), -1, modulus)  # 1/D(0); down keeps D(last..1)
    return [1] + [(acc := acc * f % modulus) * d % modulus
                  for f, d in zip(series.numerators(0, last), reversed(down))]


def _prefix(series: _Series, ctx: PrimeCtx) -> tuple[int, ...]:
    """The series' terms for k = last(p) .. 0, highest k first (as
    PackedPoly takes them), modulo the block's modulus: read from the
    series' build for ctx's block.  PackedPoly keeps each term mod p**2
    in one 64-bit limb, so p >= 2**32 raises OverflowError here, before
    an O(p) build."""
    if ctx.p >= 2**32:
        raise OverflowError(f"S and T need p < 2**32, got p = {ctx.p}")
    return tuple(_block(series, ctx.block)[series.last(ctx.p)::-1])


def _series(ctx: PrimeCtx) -> tuple[int, ...]:
    """s's prefix at ctx (see _prefix)."""
    return _prefix(_S, ctx)


@lru_cache(maxsize=1)
def central_poly(ctx: PrimeCtx) -> PackedPoly:
    """sum_k s(k) y**k mod p**2, packed for evaluation at many y."""
    return PackedPoly(_series(ctx), ctx.p2)


@lru_cache(maxsize=1)
def t_poly(ctx: PrimeCtx) -> PackedPoly:
    """sum_k t(k) x**k mod p**2, packed for evaluation at many x."""
    return PackedPoly(_prefix(_T, ctx), ctx.p2)


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
