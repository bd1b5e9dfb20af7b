"""Representations of primes by binary quadratic forms x^2 + d y^2.

cornacchia solves x^2 + d y^2 = p for prime p (complete: it finds a
solution whenever one exists).  represent is the exhaustive oracle, also
used for the target 2p = x^2 + d y^2 and for forms a x^2 + d y^2 with
a > 1.  Both return the pair (x, y), or None.
"""

from __future__ import annotations

import math

from .arith import PrimeCtx, is_prime, sqrt_mod_p

__all__ = [
    "cornacchia",
    "normalize",
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
    the leftover.  Deterministic; returns the smallest-y representation.
    """
    ctx = p if isinstance(p, PrimeCtx) else None
    p = ctx.p if ctx else p
    if d < 1:
        raise ValueError("d must be positive")
    if p <= 3 or d >= p:
        # Tiny p, or y forced to 0: settle directly.
        if ctx is None and not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if d % p == 0:
            raise ValueError("p must not divide d")
        return represent(d, p)
    ctx = ctx or PrimeCtx(p)  # validates p; 0 < d < p: p does not divide d
    roots = sqrt_mod_p(-d % p, ctx)
    if not roots:
        return None
    x0 = roots[1] if roots[-1] > p // 2 else roots[0]
    if 2 * x0 < p:
        x0 = p - x0
    a, b = p, x0
    lim = math.isqrt(p)
    while b > lim:
        a, b = b, a % b
    r = p - b * b
    if r % d:
        return None
    c = r // d
    y = math.isqrt(c)
    if y * y != c:
        return None
    x = b
    if d == 1 and y > x:
        x, y = y, x
    return x, y


def normalize(rep: tuple[int, int],
              convention: str = "nonneg") -> tuple[int, int]:
    """Sign-adjust x of a representation (x, y) to the named convention;
    y comes back nonnegative.

    Conventions: "nonneg" (x >= 0), "one_mod_4" (x = 1 mod 4, requires x
    odd), "one_mod_3" (x = 1 mod 3, requires 3 not dividing x).
    """
    x, y = abs(rep[0]), abs(rep[1])
    if convention == "nonneg":
        pass
    elif convention == "one_mod_4":
        if x % 2 == 0:
            raise ValueError(
                f"x = {rep[0]} is even; no sign gives x = 1 mod 4")
        if x % 4 != 1:
            x = -x
    elif convention == "one_mod_3":
        if x % 3 == 0:
            raise ValueError(
                f"3 divides x = {rep[0]}; no sign gives x = 1 mod 3")
        if x % 3 != 1:
            x = -x
    else:
        raise ValueError(f"unknown normalization convention {convention!r}")
    return x, y
