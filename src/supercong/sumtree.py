"""A series' sums mod p**2 at fixed points 1/m for every prime of a range,
by a prefix product carried from window to window of primes, as in an
accumulating remainder tree (Costa, Gerbicz and Harvey, "A search for
Wilson primes", Math. Comp. 83, 2014; Harvey, Ann. of Math. 179, 2014).

With c(k)/c(k-1) = a_k/k**e, as the binom record passed in (_S, _T) states,

    M_k = [[a_k, a_k], [0, k**e m]],    M_1 M_2 ... M_K = [[A, Y], [0, B]]

gives A = a_1 ... a_K, B = prod_{k<=K} k**e m and
Y/B = sum_{1<=k<=K} c(k) m**(-k).  At K = last(p) < p, past which c(k) = 0
mod p**2, the sum is (Y + B)/B mod p**2 wherever p does not divide m, so
that B is a unit mod p; where p divides m the tables hold no value.  A
product is held as (A, C, [Y for each m], [B for each m]), C the product
of the powers k**e: A and C do not depend on m, so every m shares them,
and each m adds its own Y and B.  A prefix M_1 ... M_K, whose B is
C m**K, keeps no B: its B is needed only at the end, as a unit mod p**2,
and a prefix times a product needs only the product's B.

For ascending primes p_0 < p_1 < ... with K_i = last(p_i), prime i needs
the prefix through K_i mod p_i**2.  The prefix through K_0 is one product,
by binary splitting.  The leaf at prime i is the product over
(K_i, K_{i+1}], up to the next prime's K (empty at the last prime), so
the prefix through K_0 times the leaves to the left of prime i is the
prefix through K_i.  The primes are taken a window at a time.  In a
window, a scan goes from prime to prime: the prefix through K_i, reduced
mod the p**2 of prime i and of the window's primes after it, gives prime
i's table, and times prime i's leaf it is the prefix through K_{i+1}.
Between windows only the prefix carries, times the product of the
window's leaves, which a balanced tree of products forms.

A product is needed only modulo the moduli of the primes to its right:
those are the only moduli the scan and the carry use it for.  So each
step of the scan is reduced modulo the window's moduli still ahead, and
the carry, after every window, modulo those of the later windows.  Each
half of the first prefix, and each product of the carry's tree, is
reduced so only once it outgrows them: m can be negative, and a small
negative product mod q is as large as q.  One window's leaves are held
at a time.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import accumulate
from operator import mul

from .binom import _Series

__all__ = [
    "window_sums",
]

# (A, C, [Y for each m], [B for each m]): a product of the M_k, exact or
# reduced mod some modulus; a prefix has no B (an empty list)
Node = tuple[int, int, list[int], list[int]]

_SPLIT = 16  # longer spans are split in two (binary splitting)


def _span(series: _Series, lo: int, hi: int, ms: Sequence[int],
          q: int = 0) -> Node:
    """M_{lo+1} ... M_hi: with n = hi - lo terms, Y is
    sum_j (a_{lo+1} ... a_{lo+j}) ((lo+j+1)**e ... hi**e) m**(n-j), by
    Horner in m over those coefficients, and B = C m**n.  Exact, but for
    the halves of a long span, which are reduced mod q where they outgrow
    it (q = 0: never)."""
    if hi - lo > _SPLIT:
        mid = (lo + hi) // 2
        return _reduced(_mul(_span(series, lo, mid, ms, q),
                             _span(series, mid, hi, ms, q)), q)
    heads = list(accumulate(series.numerators(lo, hi), mul, initial=1))
    tails = list(accumulate((k ** series.e for k in range(hi, lo, -1)), mul,
                            initial=1))
    n = hi - lo
    coeffs = [heads[j] * tails[n - j] for j in range(1, n + 1)]
    ys = []
    for m in ms:
        y = 0
        for c in coeffs:
            y = y * m + c
        ys.append(y)
    return heads[-1], tails[-1], ys, [tails[-1] * m ** n for m in ms]


def _mul(x: Node, y: Node) -> Node:
    """x y, a prefix where x is one (y is not)."""
    a, c, ys, bs = x
    a2, c2, ys2, bs2 = y
    return (a * a2, c * c2,
            [a * v2 + v * b2 for v, v2, b2 in zip(ys, ys2, bs2)],
            list(map(mul, bs, bs2)))


def _mod(x: Node, q: int) -> Node:
    a, c, ys, bs = x
    return a % q, c % q, [v % q for v in ys], [b % q for b in bs]


def _bits(x: Node) -> int:
    a, c, ys, bs = x
    return max(a.bit_length(), c.bit_length(), *map(int.bit_length, ys),
               *map(int.bit_length, bs))


def _reduced(x: Node, q: int) -> Node:
    """x mod q where x has outgrown q (q = 0: never)."""
    return _mod(x, q) if q and _bits(x) > q.bit_length() else x


def _window(series: _Series, primes: Sequence[int], after: int, carry: Node,
            rest: int, ms: Sequence[int]
            ) -> tuple[list[dict[int, int]], Node]:
    """The tables of one window, by a scan over its primes, and the carry
    past it, `carry` times the product of the window's leaves mod `rest`.
    `carry` is the prefix through the window's first prime, reduced mod
    the moduli of this window and `rest` (those of every later prime);
    `after` is the next window's first prime, or the last prime here."""
    cuts = [series.last(p) for p in (*primes, after)]
    leaves = [_span(series, lo, hi, ms) for lo, hi in zip(cuts, cuts[1:])]
    ahead = list(accumulate((p * p for p in reversed(primes)), mul))[::-1]
    tables = []
    x = carry
    for p, k, leaf, q in zip(primes, cuts, leaves, ahead):
        x = _mod(x, q)
        _, c, ys, _ = x
        p2 = p * p
        inv_c = pow(c, -1, p2)  # 1/B = (1/C) m**(-K)
        tables.append({m: (1 + y * inv_c * pow(m, -k, p2)) % p2
                       for m, y in zip(ms, ys) if m % p})
        x = _mul(x, leaf)
    while len(leaves) > 1:
        leaves = [_reduced(_mul(*leaves[j:j + 2]), rest)
                  if j + 1 < len(leaves) else leaves[j]
                  for j in range(0, len(leaves), 2)]
    return tables, _mod(_mul(carry, leaves[0]), rest)


def window_sums(windows: Sequence[Sequence[int]], series: _Series,
                ms: Sequence[int]) -> Iterator[dict[int, int]]:
    """For each prime of `windows` -- runs of primes greater than 3, each
    ascending and each after the last -- in order, the table {m: the sum
    of `series` at 1/m mod p**2} over the nonzero m of `ms` that p does
    not divide.  The tables are computed a window at a time, and only one
    window's leaves are held: the cost of a window grows with its own span
    of k and with the moduli still ahead, and the first window also pays
    for the prefix through its first prime."""
    moduli = [math.prod(p * p for p in w) for w in windows]
    rest = math.prod(moduli)
    a, c, ys, _ = _span(series, 0, series.last(windows[0][0]), ms, rest)
    carry = _mod((a, c, ys, []), rest)
    for i, (primes, q) in enumerate(zip(windows, moduli)):
        rest //= q
        after = windows[i + 1][0] if i + 1 < len(windows) else primes[-1]
        tables, carry = _window(series, primes, after, carry, rest, ms)
        yield from tables
