"""Representations of primes by binary quadratic forms x^2 + d y^2.

cornacchia solves x^2 + d y^2 = p for prime p (complete: it finds a
solution whenever one exists); it settles p <= 3 and d >= p directly and
never calls the search.  represent is the exhaustive oracle the tests hold
cornacchia against, and it serves the targets cornacchia does not:
2p = x^2 + d y^2 and p = 2x^2 + d y^2.  Both return the pair (x, y), or
None.
"""

from __future__ import annotations

import math

from .arith import PrimeCtx, is_prime, sqrt_mod_p

__all__ = [
    "cornacchia",
    "represent",
]


def represent(d: int, n: int, a: int = 1) -> tuple[int, int] | None:
    """Smallest-y solution (x, y) of a x^2 + d y^2 = n with x, y >= 0,
    by exhaustive search; None when there is none."""
    if d < 1 or a < 1 or n < 0:
        raise ValueError("d, a must be positive and n nonnegative")
    for y in range(math.isqrt(n // d) + 1):
        r = n - d * y * y
        if r % a:
            continue
        x = math.isqrt(r // a)
        if a * x * x == r:
            return x, y
    return None


def cornacchia(d: int, p: PrimeCtx | int) -> tuple[int, int] | None:
    """Representation (x, y) of p = x^2 + d y^2 for prime p (an int or a
    PrimeCtx, which spares the primality test), or None.

    Classic algorithm: seed with the square root of -d mod p lying in
    (p/2, p), run the Euclidean remainder chain down to sqrt(p), and test
    the leftover.  Deterministic; returns the smallest-y representation:
    for d = 1 the chain's first remainder below sqrt(p) is the larger of
    x and y (Brillhart, Math. Comp. 26, 1972).
    """
    ctx = p if isinstance(p, PrimeCtx) else None
    p = ctx.p if ctx else p
    if d < 1:
        raise ValueError("d must be positive")
    if p <= 3 or d >= p:
        # y = 0 would make the prime p a square and x = 0 would put p | d,
        # so x, y >= 1: nothing is left for d >= p, and x = y = 1 for p <= 3.
        if ctx is None and not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if d % p == 0:
            raise ValueError("p must not divide d")
        return (1, 1) if p == d + 1 else None
    ctx = ctx or PrimeCtx(p)  # validates p; 0 < d < p: p does not divide d
    roots = sqrt_mod_p(-d % p, ctx)  # ascending: the last is in (p/2, p)
    if not roots:
        return None
    a, b = p, roots[-1]
    lim = math.isqrt(p)
    while b > lim:
        a, b = b, a % b
    c, r = divmod(p - b * b, d)
    y = math.isqrt(c)
    if r or y * y != c:
        return None
    return b, y
