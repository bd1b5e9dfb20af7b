"""Tests of the central binomial series and sums, with the exact oracles
they are held against.

sum_S_exact is a second, independent route to S(m): it clears
denominators and reduces once at the end.

Lemma 2.1 is the identity over Z, with s(k) = (4k)!/k!**4 and
t(k) = (4k)!/((2k)! k!**2),

    L(m) = sum_k s(k) C(k, m-k) (-64)**(m-k)
         = sum_k t(k) t(m-k) = R(m),

checked directly by lemma21_sides and certified for every m by
test_lemma21_certificates (Petkovsek-Wilf-Zeilberger, A = B, ch. 6-7).
With F(m, k) the summand of either side and a0, a1, a2 the coefficients of
lemma21_recurrence_residual,

    a0 F(m,k) + a1 F(m+1,k) + a2 F(m+2,k) = G(m,k+1) - G(m,k)

for the certificates

    G_L(m,k) = -4096 (m+2) k^2 s(k) C(k, m-k+2) (-64)**(m-k)    [left]
    G_R(m,k) = k^2 (16m^2 - 16mk + 55m - 26k + 46) t(k) t(m-k+2)
               / ((4(m-k)+5) (4(m-k)+7))                        [right]

G_L vanishes unless m/2 + 1 <= k <= m + 2, G_R unless 0 <= k <= m + 2,
so summing over k telescopes to a0 L(m) + a1 L(m+1) + a2 L(m+2) = 0, and
the same for R.  Since a2 = (m+2)**3 != 0 and L = R at m = 0 and 1,
L = R for every m.  Divided by F(m, k), each relation is an identity of
rational functions of (m, k): F's shifts and G/F are rational.  Times its
denominator it is a polynomial of degree at most 11 in m and in k, so
exact zeros on the 12 x 12 grid m = 0..11, k = 50..61, where no
denominator vanishes, prove it.  The poles of those ratios lie on lines
where k - m or 2k - m is fixed; there, and at every other k, the relation
itself is checked exactly for every m < 40.

From Lemma 2.1 to Theorem 2.1 mod p**2, for every prime p > 3: the sides
of T2.1, sum_{k<p} s(k) (x(1-64x))**k and (sum_{k<p} t(k) x**k)**2, are
polynomials in x whose coefficient of x**m is

- for m < p, L(m) and R(m) (every k <= m < p is kept), up to the
  terms the stored prefixes drop, s(k) for (p-1)/2 < k < p and t(k) for
  (3p-1)/4 < k < p, which are 0 mod p**2 (the valuation lemma in binom's
  docstring);
- for m >= p, 0 mod p**2: on the left every k >= m/2 > (p-1)/2, and on
  the right each t(k) t(j) with k + j = m and k, j < p has v_p >= 2,
  since v_p(t(k)) is 0, 1, 1, 2 on the four quarters of [0, p), so a
  factor from the first quarter pairs with one from the last.

So the two sides agree mod p**2 as polynomials, at every x.  C2.1 is T2.1
at x = (1-t)/128: x(1-64x) = (1-t**2)/256 = 1/m when t**2 = 1 - 256/m.
"""

import itertools
import math
import random
from fractions import Fraction
from typing import Callable

import pytest

from padic import central_term, t_term
from supercong import arith, binom
from supercong.arith import PackedPoly, PrimeCtx, primes_in
from supercong.binom import central_poly, sum_S, sum_T
from supercong.legendre import legendre_eval
from supercong.theorems import REGISTRY


def sum_S_exact(m: int, ctx: PrimeCtx) -> int:
    """Big-integer oracle for sum_S: clear denominators, reduce once.

    Independent of the series route; intended for modest p.
    """
    p, p2 = ctx.p, ctx.p2
    if m % p == 0:
        raise ValueError(f"m = {m} must be a nonzero p-adic unit argument")
    total = 0
    for k in range(p):
        term = math.comb(2 * k, k) ** 2 * math.comb(4 * k, 2 * k)
        total += term * m ** (p - 1 - k)
    return total * pow(m, 1 - p, p2) % p2


def _s(k: int) -> int:
    return math.comb(2 * k, k) ** 2 * math.comb(4 * k, 2 * k)


def _t(k: int) -> int:
    return math.comb(2 * k, k) * math.comb(4 * k, 2 * k)


def lemma21_sides(m: int) -> tuple[int, int]:
    """Both sides of the degree-m convolution identity, as exact integers.

    L = sum_k s(k) C(k, m-k) (-64)**(m-k)
    R = sum_k t(k) t(m-k)
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return (sum(_f_left(m, k) for k in range(m + 1)),
            sum(_f_right(m, k) for k in range(m + 1)))


def _f_left(m: int, k: int) -> int:
    return _s(k) * math.comb(k, m - k) * (-64) ** (m - k) \
        if 0 <= m - k <= k else 0


def _f_right(m: int, k: int) -> int:
    return _t(k) * _t(m - k) if 0 <= k <= m else 0


def _g_left(m: int, k: int, c: int = -4096) -> Fraction:
    """G_L, with leading coefficient c."""
    if not m + 2 <= 2 * k <= 2 * m + 4:
        return Fraction(0)
    return (c * (m + 2) * k * k * _s(k) * math.comb(k, m - k + 2)
            * Fraction(-64) ** (m - k))


def _g_right(m: int, k: int, e: int = 55) -> Fraction:
    """G_R, with coefficient e of m in its quadratic factor."""
    if not 0 <= k <= m + 2:
        return Fraction(0)
    j = m - k
    return Fraction(k * k * (16 * m * m - 16 * m * k + e * m - 26 * k + 46)
                    * _t(k) * _t(j + 2), (4 * j + 5) * (4 * j + 7))


def _ratios_left(m: int, k: int, c: int = -4096) -> tuple[Fraction, ...]:
    """F_L(m+1,k)/F_L, F_L(m+2,k)/F_L, F_L(m,k+1)/F_L, and G_L/F_L at
    (m, k) and (m, k+1), as rational functions of (m, k)."""
    def cert(k):
        return Fraction(c * (m + 2) * k * k * (2 * k - m) * (2 * k - m - 1),
                        (m - k + 1) * (m - k + 2))

    return (Fraction(-64 * (2 * k - m), m - k + 1),
            Fraction(4096 * (2 * k - m) * (2 * k - m - 1),
                     (m - k + 1) * (m - k + 2)),
            Fraction(-(4 * k + 1) * (4 * k + 3) * (2 * k + 1) * (m - k),
                     8 * (k + 1) ** 2 * (2 * k + 2 - m) * (2 * k + 1 - m)),
            cert(k), cert(k + 1))


def _ratios_right(m: int, k: int, e: int = 55) -> tuple[Fraction, ...]:
    """As _ratios_left, for F_R and G_R, with r(j) = t(j+1)/t(j)."""
    def r(j):
        return Fraction(4 * (4 * j + 1) * (4 * j + 3), (j + 1) ** 2)

    def cert(k):
        j = m - k
        return Fraction(16 * k * k * (4 * j + 1) * (4 * j + 3)
                        * (16 * m * m - 16 * m * k + e * m - 26 * k + 46),
                        (j + 1) ** 2 * (j + 2) ** 2)

    return (r(m - k), r(m - k) * r(m - k + 1), r(k) / r(m - k - 1),
            cert(k), cert(k + 1))


def lemma21_recurrence_residual(m: int, S: Callable[[int], int]) -> int:
    """Residual of the three-term recurrence both identity sides satisfy.

    1024 (m+1)(2m+1)(2m+3) S(m) - 8 (2m+3)(8m**2+24m+19) S(m+1)
        + (m+2)**3 S(m+2)
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return (1024 * (m + 1) * (2 * m + 1) * (2 * m + 3) * S(m)
            - 8 * (2 * m + 3) * (8 * m * m + 24 * m + 19) * S(m + 1)
            + (m + 2) ** 3 * S(m + 2))


def theorem21_check(x, ctx):
    """Does sum_k s(k) (x(1-64x))**k = T(x)**2 hold mod p**2?"""
    return central_poly(ctx)(x * (1 - 64 * x)) == sum_T(x, ctx) ** 2 % ctx.p2


def test_central_term_examples():
    ctx = PrimeCtx(5)
    assert (central_term(0, ctx).e, central_term(0, ctx).u) == (0, 1)
    assert (central_term(1, ctx).e, central_term(1, ctx).u) == (0, 24)
    assert (central_term(2, ctx).e, central_term(2, ctx).u) == (1, 4)
    with pytest.raises(ValueError):
        central_term(5, ctx)


def _residues(prefix, ctx):
    """A stored prefix, which keeps its block's modulus, reduced mod p**2
    as PackedPoly reduces it."""
    return tuple(c % ctx.p2 for c in prefix)


def central_series(ctx):
    """Residues mod p**2 of (4k)!/k!**4 for k = 0..p-1, from the stored
    prefix padded with the zeros past k = (p-1)/2."""
    prefix = _residues(binom._series(ctx), ctx)
    return prefix[::-1] + (0,) * (ctx.p - len(prefix))


def t_series(ctx):
    """Residues mod p**2 of (4k)!/((2k)! k!**2) for k = 0..p-1, from the
    stored prefix padded with the zeros past k = (3p-1)/4."""
    prefix = _residues(binom._prefix(binom._T, ctx), ctx)
    return prefix[::-1] + (0,) * (ctx.p - len(prefix))


def _prefixes(ctx):
    """The s and t prefixes of ctx's block build, highest k first, mod
    p**2."""
    return (_residues(binom._series(ctx), ctx),
            _residues(binom._prefix(binom._T, ctx), ctx))


def test_series_follow_the_block_of_the_same_prime():
    """PrimeCtx compares by p alone, so a per-prime cache of the prefix
    would hand the one-prime values to a ctx with a block: the prefix
    read after the one-prime build is the block's, s(k) mod the product
    of its squares."""
    one = binom._series(PrimeCtx(11))
    block = binom._series(PrimeCtx(11, (11, 13)))
    assert one == tuple(math.factorial(4 * k) // math.factorial(k) ** 4
                        % 11**2 for k in range(5, -1, -1))
    assert block == tuple(math.factorial(4 * k) // math.factorial(k) ** 4
                          % (11 * 13) ** 2 for k in range(5, -1, -1))


def test_records_state_the_cut_offs():
    """s's prefix stops at (p-1)/2 and t's at (3p-1)/4, past which
    v_p(s(k)) = [4k/p] and v_p(t(k)) = [4k/p] - [2k/p] reach 2."""
    for p in range(1, 10**4, 2):
        assert binom._S.last(p) == (p - 1) // 2, p
        assert binom._T.last(p) == (3 * p - 1) // 4, p


def test_shares_block_is_t_cut_off_below_lo():
    """On every pair of primes lo <= hi below 2000."""
    primes = primes_in(5, 1999)
    for i, lo in enumerate(primes):
        for hi in primes[i:]:
            assert binom.shares_block(lo, hi) == ((3 * hi - 1) // 4 < lo), \
                (lo, hi)


def test_a_block_that_cannot_share_is_refused():
    """PrimeCtx takes any ascending block that holds p, but the series are
    never built from one whose ends fail shares_block: 17's t prefix runs
    to k = 12, whose k! is not a unit mod 11**2."""
    ctx = PrimeCtx(13, (11, 13, 17))
    with pytest.raises(ValueError):
        binom._series(ctx)
    with pytest.raises(ValueError):
        binom._prefix(binom._T, ctx)


def test_series_agree_with_factorial_route():
    """Every prime < 200, so both residues of p mod 4 pin where the stored
    prefixes stop: v_p(s(k)) = [4k/p] and v_p(t(k)) = [4k/p] - [2k/p]."""
    for p in primes_in(5, 199):
        ctx = PrimeCtx(p)
        s_prefix, t_prefix = _prefixes(ctx)
        assert len(s_prefix) == (p - 1) // 2 + 1
        assert len(t_prefix) == (3 * p - 1) // 4 + 1
        for k, (s, t) in enumerate(zip(s_prefix[::-1], t_prefix[::-1])):
            assert s == central_term(k, ctx).residue()
            assert t == t_term(k, ctx).residue()
        for k in range(len(s_prefix), len(t_prefix)):
            assert t_prefix[-1 - k] == t_term(k, ctx).residue()


def _tiles(primes, size):
    """The primes cut greedily into runs of at most `size` that PrimeCtx
    takes as blocks."""
    out, i = [], 0
    while i < len(primes):
        j = i + 1
        while j < min(len(primes), i + size) \
                and (3 * primes[j] - 1) // 4 < primes[i]:
            j += 1
        out.append(tuple(primes[i:j]))
        i = j
    return out


def test_block_series_match_one_prime_build():
    """For every prime < 3000 and every block size 1..8 (smaller where the
    bound on a block's largest prime cuts it short), the prefixes read
    from the block's build are the one-prime build's."""
    primes = primes_in(5, 2999)
    one = {p: _prefixes(PrimeCtx(p)) for p in primes}
    sizes = set()
    for size in range(2, 9):
        for block in _tiles(primes, size):
            sizes.add(len(block))
            for p in block:
                assert _prefixes(PrimeCtx(p, block)) == one[p], (p, block)
    assert sizes == set(range(1, 9))


def _factorial_route(ctx):
    """The s and t prefixes, highest k first, from one table F(n) of n!
    with its factors p removed, mod p**2, for n <= 3p - 1 (so p and 2p
    give 1 and 2): s(k) = p**[4k >= p] F(4k) / F(k)**4 and
    t(k) = p**([4k/p] - [2k/p]) F(4k) / (F(2k) F(k)**2).  1/F(n) for
    n <= (3p + 1)/2 takes one inverse and a walk down by the same
    factors."""
    p, p2 = ctx.p, ctx.p2
    factors = [n // p if n % p == 0 else n for n in range(1, 3 * p)]
    table = [1]
    for f in factors:
        table.append(table[-1] * f % p2)
    top = (3 * p + 1) // 2
    inv = [pow(table[top], -1, p2)]
    for f in reversed(factors[:top]):
        inv.append(inv[-1] * f % p2)
    inv.reverse()
    s = [p ** (4 * k >= p) * table[4 * k] * inv[k] ** 4 % p2
         for k in range((p - 1) // 2 + 1)]
    t = [p ** (4 * k // p - 2 * k // p) * table[4 * k] * inv[2 * k]
         * inv[k] ** 2 % p2 for k in range((3 * p - 1) // 4 + 1)]
    return tuple(s[::-1]), tuple(t[::-1])


@pytest.mark.parametrize("block", [(100003, 100019), (99991,), (999983,)])
def test_large_p_sums_match_factorial_route(block):
    """Two consecutive primes near 10**5 built as one block, and one-prime
    blocks near 10**5 and 10**6: the prefixes, S and T at seeded points by
    Horner on the factorial route's coefficients, and T((1-t)/128) mod p
    against P_[p/4](t) by legendre_eval's explicit sum at three seeded t."""
    for p in block:
        ctx = PrimeCtx(p, block)
        for cached in (binom.central_poly, binom.t_poly):
            cached.cache_clear()
        s, t = _factorial_route(ctx)
        assert _prefixes(ctx) == (s, t)
        rng = random.Random(p)
        for _ in range(3):
            m = rng.randrange(1, ctx.p2)
            if m % p:
                assert sum_S(m, ctx) == horner(s, pow(m, -1, ctx.p2), ctx.p2)
            x = rng.randrange(ctx.p2)
            assert sum_T(x, ctx) == horner(t, x, ctx.p2)
        inv128 = pow(128, -1, ctx.p2)
        for u in rng.sample(range(p), 3):
            assert sum_T((1 - u) * inv128 % ctx.p2, ctx) % p == \
                legendre_eval(ctx.qcap, u, ctx), (p, u)


def test_valuation_truncation():
    """p | s(k) for p/4 < k < p, and p**2 | t(k) for 3p/4 <= k < p."""
    for p in primes_in(5, 200):
        ctx = PrimeCtx(p)
        for k in range(p):
            e = central_term(k, ctx).e
            assert (e >= 1) == (k > p / 4), (p, k)
        for k in range((3 * p + 3) // 4, p):
            assert t_term(k, ctx).e >= 2, (p, k)


def test_sum_s_spot_values():
    assert sum_S(256, PrimeCtx(11)) == 14
    assert sum_S(81, PrimeCtx(13)) == 0
    v = sum_S(81, PrimeCtx(11))
    assert v == 115  # big-integer oracle value
    assert v % 11 == 16 % 11


def test_sum_s_rejects_bad_m():
    ctx = PrimeCtx(11)
    with pytest.raises(ValueError):
        sum_S(0, ctx)
    with pytest.raises(ValueError):
        sum_S(121, ctx)
    with pytest.raises(TypeError):
        sum_S(Fraction(3, 11), ctx)
    with pytest.raises(TypeError):
        sum_S(2.0, ctx)


def test_sum_s_matches_exact_oracle():
    ms = [81, 256, -144, 648, -3969, -12288, 7, 2304]
    for p in primes_in(5, 97):
        ctx = PrimeCtx(p)
        for m in ms:
            if m % p:
                assert sum_S(m, ctx) == sum_S_exact(m, ctx)


def test_sum_t_spot_values():
    ctx = PrimeCtx(11)
    assert sum_T(0, ctx) == 1
    assert sum_T(pow(128, -1, 121), ctx) == 16
    c7 = PrimeCtx(7)
    lhs = sum_T(pow(128, -1, 49), c7) ** 2 % 49
    assert lhs == sum_S(256, c7)


def test_sum_t_matches_direct_binomials():
    rng = random.Random(5)
    for p in (5, 13, 37):
        ctx = PrimeCtx(p)
        for _ in range(5):
            x = rng.randrange(ctx.p2)
            direct = sum(math.comb(2 * k, k) * math.comb(4 * k, 2 * k)
                         * x**k for k in range(p)) % ctx.p2
            assert sum_T(x, ctx) == direct


@pytest.mark.parametrize("p", [1009, 1019])  # 1 and 3 mod 4
def test_large_p_sums_match_big_integer_routes(p):
    """The big-integer routes cost O(p**2) digit work; at p = 4999 each
    takes tens of seconds, so larger primes stay out of the fast suite."""
    ctx = PrimeCtx(p)
    m = REGISTRY["T3.1"].m
    assert sum_S(m, ctx) == sum_S_exact(m, ctx)
    x = random.Random(p).randrange(ctx.p2)
    direct = sum(math.comb(2 * k, k) * math.comb(4 * k, 2 * k) * x**k
                 for k in range(p)) % ctx.p2
    assert sum_T(x, ctx) == direct


def _power_sum_loop(coeffs, y, mod):
    """The two-multiply power-sum loop, with coefficients in ascending
    degree."""
    acc = 0
    yk = 1
    for c in coeffs:
        acc = (acc + c * yk) % mod
        yk = yk * y % mod
    return acc


def horner(coeffs, y, mod):
    """Horner's rule, coefficients highest degree first: one multiply and
    one reduction per coefficient."""
    acc = 0
    for c in coeffs:
        acc = (acc * y + c) % mod
    return acc


def _assert_kernels_agree(desc, ys, mod):
    """PackedPoly, Horner and the power-sum loop give one value at each y."""
    packed = PackedPoly(desc, mod)
    for y in ys:
        ref = _power_sum_loop(desc[::-1], y, mod)
        assert horner(desc, y, mod) == ref, (len(desc), y, mod)
        assert packed(y) == ref, (len(desc), y, mod)


def test_horner_matches_power_sum_loop():
    """On the s and t series (full length and nonzero prefix) and C2.2's
    mod-p head s(k), k <= [p/4], for every prime < 300, mod p and p**2."""
    rng = random.Random(3)
    for p in primes_in(5, 299):
        ctx = PrimeCtx(p)
        s_prefix, t_prefix = _prefixes(ctx)
        ys = (0, 1, p, ctx.p2 - 1, rng.randrange(ctx.p2),
              rng.randrange(ctx.p2))
        for mod in (p, ctx.p2):
            for full, prefix in ((central_series(ctx), s_prefix),
                                 (t_series(ctx), t_prefix)):
                _assert_kernels_agree(full[::-1], ys, mod)
                _assert_kernels_agree(prefix, ys, mod)
        head = [c % p for c in s_prefix[-(ctx.qcap + 1):]]
        _assert_kernels_agree(head, ys, p)


def count_column_sums(monkeypatch) -> list[int]:
    """Count the PackedPoly calls that reach the column sum, the kernel's
    one builtins.sum: a one-element list that each such call bumps."""
    count = [0]

    def counting_sum(values, start=0):
        count[0] += 1
        return sum(values, start)

    monkeypatch.setattr(arith, "sum", counting_sum, raising=False)
    return count


def test_packed_poly_evaluates_each_point_once(monkeypatch):
    """A point and its shifts by the modulus share one evaluation and one
    memo entry, keyed on the point mod the modulus; a new point is
    evaluated."""
    count = count_column_sums(monkeypatch)
    mod = 101**2
    desc = [random.Random(1).randrange(mod) for _ in range(76)]
    poly = PackedPoly(desc, mod)
    ref = horner(desc, 1234, mod)
    assert [poly(y) for y in (1234, 1234 + mod, 1234 - 3 * mod, 1234)] \
        == [ref] * 4
    assert count[0] == 1 and poly.memo == {1234: ref}
    assert poly(1235) == horner(desc, 1235, mod) and count[0] == 2


@pytest.mark.parametrize("mod", [7, 121, 65521, 2**61 - 1])
def test_packed_poly_edge_shapes(mod):
    rng = random.Random(mod)
    ys = (0, 1, mod - 1, rng.randrange(mod), rng.randrange(mod**2))
    for b in (1, 2, 3, 7):
        for n in sorted({1, 2, b * b, b * b + 1}):
            _assert_kernels_agree([rng.randrange(mod) for _ in range(n)],
                                  ys, mod)
            _assert_kernels_agree([0] * n, ys, mod)
            _assert_kernels_agree([mod - 1] * n, (mod - 1,), mod)
    _assert_kernels_agree([], ys, mod)


def _to_bytes_cols(coeffs, mod):
    """PackedPoly's columns built with one to_bytes per coefficient: the
    reference for its buffer packing.  Column i holds a[s*b+i] in lane
    g-1-s, so the highest block is the lowest lane."""
    n = len(coeffs)
    b, width = arith._layout(n, mod)
    g = -(-n // b)
    asc = [c % mod for c in reversed(coeffs)] + [0] * (b * g - n)
    return tuple(int.from_bytes(b"".join(c.to_bytes(width, "little")
                                         for c in reversed(asc[i::b])),
                                "little")
                 for i in range(b))


@pytest.mark.parametrize("mod", [7, 121, 65521, 2**61 - 1, 65537**2])
def test_packed_columns_match_to_bytes_packer(mod):
    """One-limb lanes (7, 121, 65521) and tight lanes of two whole limbs
    (2**61 - 1, whose coefficients reach a limb's top byte) and of part
    limbs (65537**2, 9 bytes, as S and T take above about p = 26700);
    coefficients outside 0..mod-1."""
    rng = random.Random(mod)
    edges = (-1, mod, 2 * mod - 1, 0, mod - 1)
    for b in (1, 2, 3, 7):
        for n in sorted({0, 1, b * b, b * b + 1}):
            coeffs = [rng.randrange(-mod, 2 * mod) for _ in range(n)]
            for i, c in zip(rng.sample(range(n), min(n, len(edges))), edges):
                coeffs[i] = c
            for desc in (coeffs, [-1] * n):
                assert PackedPoly(desc, mod).cols == _to_bytes_cols(desc, mod)


def _limb_overflow_columns(mod):
    """The fewest columns whose lanes pass a limb when every coefficient is
    mod-1 and y = mod-1, whose powers alternate 1, mod-1: the lanes fill
    to about half of b * (mod-1)**2, so this is about twice the cap."""
    b = 1
    while (mod - 1) * ((b + 1) // 2 + b // 2 * (mod - 1)) <= arith._LIMB:
        b += 1
    return b


@pytest.mark.parametrize("case,mod,n", [
    ("columns-past-limb", 19997**2, (3 * 19997 - 1) // 4 + 1),
    ("byte-under-tight", 100003**2, 50002),
    ("byte-under-tight", 2**61 - 1, 401),
])
def test_packed_lane_width_is_needed(case, mod, n, monkeypatch):
    """All coefficients mod-1 at y = mod-1.  A one-limb layout caps b at
    the largest b with b * (mod-1)**2 < 2**64 (at T's prefix for
    p = 19997 the cap binds), and columns enough to pass a limb give a
    wrong value; a tight lane one byte narrower gives a wrong value or no
    room for the packed sum."""
    desc, y = [mod - 1] * n, mod - 1
    ref = horner(desc, y, mod)
    assert PackedPoly(desc, mod)(y) == ref
    b, width = arith._layout(n, mod)
    if case == "columns-past-limb":
        assert width == 8 and b < math.isqrt(n)
        assert b * (mod - 1) ** 2 <= arith._LIMB < (b + 1) * (mod - 1) ** 2
        mutant = (_limb_overflow_columns(mod), 8)
    else:
        assert width > 8 and b == math.isqrt(n)
        mutant = (b, width - 1)
    monkeypatch.setattr(arith, "_layout", lambda n, m: mutant)
    try:
        narrow = PackedPoly(desc, mod)(y)
    except OverflowError:
        narrow = None
    assert narrow != ref


_PREFIX_LEN = {"S": lambda p: (p - 1) // 2 + 1,
               "T": lambda p: (3 * p - 1) // 4 + 1}


def _layout_switches(prefix_len):
    """Consecutive primes either side of each change of layout for a
    prefix of prefix_len(p) coefficients mod p**2: where the limb cap
    starts to bind, and where one-limb lanes give way to tight ones."""
    def kind(p):
        n = prefix_len(p)
        b, width = arith._layout(n, p * p)
        if width > 8:
            return "tight"
        return "capped" if b < math.isqrt(n) else "whole"
    primes = primes_in(10000, 40000)
    return sorted({q for lo, hi in zip(primes, primes[1:])
                   if kind(lo) != kind(hi) for q in (lo, hi)})


@pytest.mark.parametrize("series", ["S", "T"])
def test_packed_layout_boundaries(series):
    """S's and T's prefixes against Horner at seeded points, at the primes
    either side of each layout switch (found from _layout), and at 65521
    and 65537, where (p**2 - 1)**2 passes 2**64."""
    switches = _layout_switches(_PREFIX_LEN[series])
    assert len(switches) == 4
    for p in switches + [65521, 65537]:
        ctx = PrimeCtx(p)
        coeffs = _prefixes(ctx)["ST".index(series)]
        assert len(coeffs) == _PREFIX_LEN[series](p)
        rng = random.Random(p)
        _assert_kernels_agree(coeffs, (ctx.p2 - 1, rng.randrange(ctx.p2),
                                       rng.randrange(ctx.p2)), ctx.p2)


@pytest.mark.parametrize("mod", [2**64 + 1, (2**61 - 1) ** 2])
def test_packed_poly_refuses_a_coefficient_past_a_limb(mod):
    """A coefficient is one 64-bit limb: packing one of 2**64 or more
    raises OverflowError and never returns a polynomial, whatever the other
    coefficients are."""
    for desc in ([2**64], [1, 2, 2**64, 3], [0] * 50 + [mod - 1]):
        with pytest.raises(OverflowError):
            PackedPoly(desc, mod)


def test_theorem21_examples():
    assert theorem21_check(0, PrimeCtx(11))
    assert theorem21_check(pow(128, -1, 121), PrimeCtx(11))
    assert theorem21_check(17, PrimeCtx(13))


def test_theorem21_random_mini_sweep():
    rng = random.Random(11)
    for p in primes_in(5, 60):
        ctx = PrimeCtx(p)
        for _ in range(5):
            assert theorem21_check(rng.randrange(ctx.p2), ctx)


def test_lemma21_sides_examples():
    assert lemma21_sides(0) == (1, 1)
    assert lemma21_sides(1) == (24, 24)
    assert lemma21_sides(2) == (984, 984)


def test_lemma21_identity_and_recurrence_mini():
    values = [lemma21_sides(m) for m in range(43)]
    for left, right in values:
        assert left == right
    lf = lambda m: values[m][0]
    rf = lambda m: values[m][1]
    for m in range(41):
        assert lemma21_recurrence_residual(m, lf) == 0
        assert lemma21_recurrence_residual(m, rf) == 0
    # the m = 0 instance spelled out
    assert 3072 * 1 - 456 * 24 + 8 * 984 == 0


def lemma21_certificate_failures(c: int = -4096, e: int = 55) -> list[str]:
    """The checks of Lemma 2.1's certificates (see the module docstring)
    that fail, with G_L's leading coefficient c and G_R's coefficient e:
    for each side, the relation divided by F on the 12 x 12 grid, and
    the relation itself for every m < 40 and every k (both sides vanish
    outside -1 <= k <= m + 3)."""
    failed = []
    for side, ratios, f, g in (
            ("left", lambda m, k: _ratios_left(m, k, c), _f_left,
             lambda m, k: _g_left(m, k, c)),
            ("right", lambda m, k: _ratios_right(m, k, e), _f_right,
             lambda m, k: _g_right(m, k, e))):
        for m, k in itertools.product(range(12), range(50, 62)):
            up1, up2, right, g0, g1 = ratios(m, k)
            shifts = {m: 1, m + 1: up1, m + 2: up2}
            if lemma21_recurrence_residual(m, shifts.__getitem__) \
                    != g1 * right - g0:
                failed.append(f"{side} grid")
                break
        if any(lemma21_recurrence_residual(m, lambda n: f(n, k))
               != g(m, k + 1) - g(m, k)
               for m in range(40) for k in range(-1, m + 4)):
            failed.append(f"{side} termwise")
    return failed


def test_lemma21_certificates():
    """Lemma 2.1 for every m: both certificates hold, on the grid and
    termwise, and the two sides agree at m = 0 and 1."""
    assert lemma21_certificate_failures() == []
    assert lemma21_sides(0) == (1, 1) and lemma21_sides(1) == (24, 24)


def test_lemma21_certificates_fail_when_perturbed():
    assert lemma21_certificate_failures(c=-4095) == ["left grid",
                                                     "left termwise"]
    assert lemma21_certificate_failures(e=54) == ["right grid",
                                                  "right termwise"]


def test_corollary22_implication():
    """Vanishing truncation to [p/4] forces the full sum to 0 mod p**2."""
    ms = (81, -144, 648, -3969, -12288, 2304, 256, 615)
    for p in primes_in(5, 100):
        ctx = PrimeCtx(p)
        series = central_series(ctx)
        for m in ms:
            if m % p == 0 or (m - 256) % p == 0:
                continue
            mi = pow(m, -1, p)
            acc, yk = 0, 1
            for k in range(ctx.qcap + 1):
                acc = (acc + series[k] * yk) % p
                yk = yk * mi % p
            if acc == 0:
                assert sum_S(m, ctx) == 0, (p, m)
