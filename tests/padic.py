"""p-adic oracles for the fast series: residues with their valuation kept,
and the terms s(k), t(k) computed one k at a time from factorials.

    s(k) = (4k)! / k!**4        t(k) = (4k)! / ((2k)! k!**2)
"""

from __future__ import annotations

from dataclasses import dataclass

from supercong.arith import PrimeCtx


@dataclass(frozen=True)
class ValuedResidue:
    """A value u * p**e with the unit u tracked mod p**2.

    The canonical zero is (e=0, u=0); for every other value u is a unit
    mod p**2.  This representation keeps sums of p-divisible terms exact
    mod p**2 where plain modular division would be undefined.
    """

    ctx: PrimeCtx
    e: int
    u: int

    def __post_init__(self) -> None:
        if self.u == 0:
            if self.e != 0:
                raise ValueError("canonical zero must have e = 0")
            return
        if not (0 <= self.u < self.ctx.p2) or self.u % self.ctx.p == 0:
            raise ValueError(f"u = {self.u} is not a unit residue mod p**2")

    @classmethod
    def from_int(cls, n: int, ctx: PrimeCtx) -> "ValuedResidue":
        if n == 0:
            return cls(ctx, 0, 0)
        e = 0
        while n % ctx.p == 0:
            n //= ctx.p
            e += 1
        return cls(ctx, e, n % ctx.p2)

    @property
    def is_zero(self) -> bool:
        return self.u == 0

    def __mul__(self, other: "ValuedResidue") -> "ValuedResidue":
        if self.is_zero or other.is_zero:
            return ValuedResidue(self.ctx, 0, 0)
        return ValuedResidue(self.ctx, self.e + other.e,
                             self.u * other.u % self.ctx.p2)

    def div(self, other: "ValuedResidue") -> "ValuedResidue":
        """Exact quotient; other must be nonzero."""
        if other.is_zero:
            raise ZeroDivisionError("division by the canonical zero")
        if self.is_zero:
            return self
        return ValuedResidue(self.ctx, self.e - other.e,
                             self.u * pow(other.u, -1, self.ctx.p2)
                             % self.ctx.p2)

    def pow(self, k: int) -> "ValuedResidue":
        if k < 0:
            raise ValueError("negative exponent")
        if self.is_zero:
            return self if k else ValuedResidue(self.ctx, 0, 1)
        return ValuedResidue(self.ctx, self.e * k,
                             pow(self.u, k, self.ctx.p2))

    def residue(self) -> int:
        """Reduction to a plain residue mod p**2."""
        if self.is_zero:
            return 0
        if self.e < 0:
            raise ValueError("negative valuation has no residue mod p**2")
        if self.e >= 2:
            return 0
        if self.e == 1:
            return self.u * self.ctx.p % self.ctx.p2
        return self.u


def factorial_vp(n: int, ctx: PrimeCtx) -> ValuedResidue:
    """n! as a ValuedResidue: exact p-adic valuation plus unit mod p**2."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p, p2 = ctx.p, ctx.p2
    e, u = 0, 1
    for i in range(2, n + 1):
        while i % p == 0:
            i //= p
            e += 1
        u = u * i % p2
    return ValuedResidue(ctx, e, u)


def central_term(k: int, ctx: PrimeCtx) -> ValuedResidue:
    """(4k)!/k!**4 with its p-divisibility tracked (single-k route)."""
    if not 0 <= k <= ctx.p - 1:
        raise ValueError(f"k must be in [0, p-1], got {k}")
    return factorial_vp(4 * k, ctx).div(factorial_vp(k, ctx).pow(4))


def t_term(k: int, ctx: PrimeCtx) -> ValuedResidue:
    """(4k)!/((2k)! k!**2) with its p-divisibility tracked."""
    if not 0 <= k <= ctx.p - 1:
        raise ValueError(f"k must be in [0, p-1], got {k}")
    return (factorial_vp(4 * k, ctx)
            .div(factorial_vp(2 * k, ctx))
            .div(factorial_vp(k, ctx).pow(2)))
