"""Modular arithmetic kernel.

Residues mod p and mod p**2, quadratic characters, modular square roots,
and the packed polynomial-evaluation kernel.  Everything is exact integer
arithmetic.  The kernel keeps each coefficient, reduced mod its modulus,
in one 64-bit limb, so it takes moduli up to 2**64: S and T, which work
mod p**2, need p < 2**32, and the mod-p polynomials need p < 2**64.  A
larger modulus raises OverflowError; nothing wraps silently.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections.abc import Mapping, Sequence
from itertools import compress, repeat
from operator import mul
from struct import unpack

__all__ = [
    "PackedPoly",
    "PrimeCtx",
    "factorials",
    "is_prime",
    "jacobi",
    "primes_in",
    "quad_char",
    "sqrt_mod_p",
    "sqrt_mod_p2",
]

# Fixed Miller-Rabin witnesses, the first 13 primes: exact below psi_13, the
# least strong pseudoprime to them all (Sorenson and Webster, Math. Comp.
# 86, 2017), and no fixed set is proven exact from psi_13 on.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # psi_13


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test; ValueError from psi_13 on."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"no proven primality test from psi_13 on: {n}")
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
    """All primes in [lo, hi], ascending: a sieve of Eratosthenes over
    [lo, hi] alone, by the primes up to isqrt(hi) (found the same way),
    in O(hi - lo + sqrt(hi)) memory."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    segment = bytearray([1]) * (hi - lo + 1)
    for q in primes_in(2, math.isqrt(hi)):
        first = max(q * q, (lo + q - 1) // q * q)
        segment[first - lo :: q] = bytearray(len(range(first, hi + 1, q)))
    return list(compress(range(lo, hi + 1), segment))


class PrimeCtx:
    """A validated odd prime p > 3 with cached derived constants: p2 = p**2,
    half = (p-1)/2 and qcap = [p/4].

    `block` names the ascending run of primes, p among them, whose series
    binom builds together, modulo the product of their squares; binom
    refuses a block whose primes cannot share a build.  It defaults to
    (p,) and takes no part in equality or hashing: it changes how the
    series are built, not what they are.  `sums`, in the same way, maps
    sum arguments m to S(m) mod p**2 where a sweep has tabulated them (see
    theorems.verify_range); binom.sum_S reads them there instead of
    packing p's series.  It defaults to no entries.

    Immutable after construction (assigning an attribute raises
    AttributeError); safe to share across workers.
    """

    def __init__(self, p: int, block: Sequence[int] = (),
                 sums: Mapping[int, int] | None = None) -> None:
        block = tuple(block) or (p,)
        if not isinstance(p, int) or p <= 3 or not is_prime(p):
            raise ValueError(f"p must be a prime greater than 3, got {p!r}")
        if block != (p,) and (p not in block
                              or list(block) != sorted(set(block))):
            raise ValueError(f"{block!r} is not a strictly ascending block "
                             f"holding p = {p}")
        self.__dict__.update(p=p, block=block, sums=dict(sums or {}),
                             p2=p * p, half=(p - 1) // 2, qcap=p // 4)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to PrimeCtx field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p

    def __hash__(self) -> int:
        return hash(self.p)

    def __repr__(self) -> str:
        return (f"PrimeCtx(p={self.p}, p2={self.p2}, half={self.half}, "
                f"qcap={self.qcap})")


def factorials(n: int, p: int, k: int) -> tuple[list[int], list[int]]:
    """i! mod the prime p for i = 0 .. n < p, and 1/i! for i = 0 .. k
    (k <= n): one walk up, one inverse and one walk down from k."""
    acc = 1
    fac = [1] + [acc := acc * i % p for i in range(1, n + 1)]
    acc = pow(fac[k], -1, p)
    inv = [acc] + [acc := acc * i % p for i in range(k, 0, -1)]
    return fac, inv[::-1]


_LIMB = 2**64 - 1


def _layout(n: int, mod: int) -> tuple[int, int]:
    """Columns b and lane width W in bytes for n coefficients mod `mod`.

    A lane must hold b * (mod-1)**2.  Where a 64-bit limb holds it for a b
    of at least isqrt(n)/4, b is capped there and W = 8: one limb a lane.
    (Below that, the Horner steps a smaller b adds cost more than one-limb
    lanes save: the measured break-even is near isqrt(n)/4.7.)  Otherwise
    b = isqrt(n) and W is the fewest bytes with 8W > bitlen(b*(mod-1)**2).
    """
    b = max(1, math.isqrt(n))
    cap = _LIMB // max(1, (mod - 1) ** 2)
    if 4 * cap >= b:
        return min(b, cap), 8
    return b, (b * (mod - 1) ** 2).bit_length() // 8 + 1


class PackedPoly:
    """A polynomial mod `mod` (coefficients highest degree first), packed
    for evaluation at many points by baby steps and giant steps.

    With n coefficients a[j] (of y**j), b columns and W-byte lanes (see
    _layout) and g = ceil(n/b), column i < b packs a[s*b+i] for s < g into
    one int, block s in lane g-1-s, so the highest block is the lowest
    lane.  A call adds column i times y**i mod `mod` over all i, which puts
    block s's sum over i of a[s*b+i] y**i in its lane, reads every lane,
    and runs g Horner steps in y**b over them as plain ints: O(b + g)
    interpreter steps per point, the n products run inside big-int
    multiplies.  A lane holds at most b*(mod-1)**2 < 2**(8W), so no lane
    carries.  One-limb lanes (W = 8) are read by one array('Q') call, and
    wider lanes by int.from_bytes over the W-byte slices that one
    struct.unpack call cuts.
    A coefficient, reduced mod `mod`, is one 64-bit limb (array('Q')
    raises OverflowError on one that is not; no route of the library
    reaches a modulus above 2**64).  The columns are cut from the bytes
    of one array('Q') conversion of all coefficients: as they stand for
    one-limb lanes, and widened by 8 strided slice copies for wider ones.

    `memo` maps y % mod to the value there, so a point is evaluated once;
    it lives as long as the polynomial, and binom and legendre keep one
    prime's polynomials at a time.
    """

    __slots__ = ("mod", "b", "g", "width", "cols", "memo")

    def __init__(self, coeffs: Sequence[int], mod: int) -> None:
        n = len(coeffs)
        b, width = _layout(n, mod)
        g = -(-n // b)
        desc = [0] * (b * g - n) + [c % mod for c in coeffs]
        cells = []
        for i in range(b - 1, -1, -1):
            cells += desc[i::b]
        # Allocated before the conversion, which keeps the peak RSS lower.
        wide = bytearray(b * g * width) if width > 8 else None
        limbs = array("Q", cells)
        if sys.byteorder == "big":
            limbs.byteswap()
        buf = limbs.tobytes()
        if wide is not None:
            for r in range(8):
                wide[r::width] = buf[r::8]
            buf = wide
        step = g * width
        self.mod, self.b, self.g, self.width = mod, b, g, width
        self.memo: dict[int, int] = {}
        self.cols = tuple(int.from_bytes(buf[i * step:(i + 1) * step],
                                         "little") for i in range(b))

    def __call__(self, y: int) -> int:
        mod, width = self.mod, self.width
        y %= mod
        if y in self.memo:
            return self.memo[y]
        baby = [1] * self.b
        for i in range(1, self.b):
            baby[i] = baby[i - 1] * y % mod
        big = baby[-1] * y % mod  # y**b
        raw = sum(map(mul, self.cols, baby)).to_bytes(self.g * width,
                                                      "little")
        if width == 8:
            lanes = array("Q", raw)  # highest block first
            if sys.byteorder == "big":
                lanes.byteswap()
        else:
            lanes = map(int.from_bytes, unpack(f"{width}s" * self.g, raw),
                        repeat("little"))
        acc = 0
        for v in lanes:
            acc = (acc * big + v) % mod
        self.memo[y] = acc
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
    r2 = (r - (r * r - a) * pow(2 * r, -1, p2)) % p2
    return (r2, p2 - r2) if r2 <= p2 - r2 else (p2 - r2, r2)
