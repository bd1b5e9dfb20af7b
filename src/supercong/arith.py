"""Modular arithmetic kernel.

Residues mod p and mod p**2, quadratic characters, modular square roots,
and p-adic factorial bookkeeping.  Everything is exact integer arithmetic;
Python's arbitrary-precision ints mean primes up to and beyond 2**31 work
without any overflow handling.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

__all__ = [
    "PrimeCtx",
    "ValuedResidue",
    "factorial_vp",
    "horner",
    "inv_mod",
    "is_prime",
    "jacobi",
    "primes_in",
    "quad_char",
    "sqrt_mod_p",
    "sqrt_mod_p2",
]

# Fixed Miller-Rabin witness set; the test is deterministic and exact for
# every n < 3.3 * 10**24 (far beyond anything this library touches).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = ((d & -d).bit_length()) - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending (plain sieve of Eratosthenes)."""
    if hi < 2 or hi < lo:
        return []
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(hi) + 1):
        if sieve[i]:
            step = ((hi - i * i) // i) + 1
            sieve[i * i :: i] = bytearray(step)
    lo = max(lo, 2)
    return [i for i in range(lo, hi + 1) if sieve[i]]


@dataclass(frozen=True)
class PrimeCtx:
    """A validated odd prime p > 3 with cached derived constants.

    Immutable after construction; safe to share across workers.
    """

    p: int
    p2: int = field(init=False)
    half: int = field(init=False)
    qcap: int = field(init=False)

    def __post_init__(self) -> None:
        p = self.p
        if not isinstance(p, int) or p <= 3 or not is_prime(p):
            raise ValueError(f"p must be a prime greater than 3, got {p!r}")
        object.__setattr__(self, "p2", p * p)
        object.__setattr__(self, "half", (p - 1) // 2)
        object.__setattr__(self, "qcap", p // 4)


def inv_mod(a: int, m: int) -> int:
    """Inverse of a modulo m; raises ValueError when gcd(a, m) > 1."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} is not invertible modulo {m} "
                         f"(gcd = {math.gcd(a, m)})") from None


def horner(coeffs: Sequence[int], y: int, mod: int) -> int:
    """The polynomial with coefficients listed highest degree first, at y,
    mod `mod`: one multiply and one reduction per coefficient."""
    acc = 0
    for c in coeffs:
        acc = (acc * y + c) % mod
    return acc


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n; Legendre symbol for prime n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol requires odd positive n, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def quad_char(z: int, ctx: PrimeCtx) -> int:
    """Euler-criterion quadratic character z**((p-1)/2) in {-1, 0, 1}."""
    t = pow(z % ctx.p, ctx.half, ctx.p)
    return -1 if t == ctx.p - 1 else t


def sqrt_mod_p(a: int, ctx: PrimeCtx) -> tuple[int, ...]:
    """Square roots of a mod p: (r, p-r) with r < p-r, (0,) for a = 0,
    or () when a is a non-residue.  Tonelli-Shanks; deterministic.
    """
    p = ctx.p
    a %= p
    if a == 0:
        return (0,)
    if quad_char(a, ctx) != 1:
        return ()
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        # Tonelli-Shanks with the least quadratic non-residue as generator.
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while quad_char(z, ctx) != -1:
            z += 1
        c = pow(z, q, p)
        r = pow(a, (q + 1) // 2, p)
        t = pow(a, q, p)
        m = s
        while t != 1:
            t2 = t
            i = 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            c = b * b % p
            t = t * c % p
            m = i
    r %= p
    return (r, p - r) if r <= p - r else (p - r, r)


def sqrt_mod_p2(a: int, ctx: PrimeCtx) -> tuple[int, ...]:
    """Square roots of a mod p**2 by Hensel lifting the mod-p roots.

    Returns both roots (ascending) for a unit square, (0,) when
    a = 0 mod p**2, and () otherwise (non-residues, and multiples of p
    that are not multiples of p**2, which have no square root mod p**2).
    """
    p, p2 = ctx.p, ctx.p2
    a %= p2
    if a % p == 0:
        return (0,) if a == 0 else ()
    roots = sqrt_mod_p(a, ctx)
    if not roots:
        return ()
    r = roots[0]
    r2 = (r - (r * r - a) * inv_mod(2 * r, p2)) % p2
    return (r2, p2 - r2) if r2 <= p2 - r2 else (p2 - r2, r2)


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
                             self.u * inv_mod(other.u, self.ctx.p2)
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
