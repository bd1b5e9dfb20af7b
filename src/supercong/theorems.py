"""Verdict engine: a declarative registry of congruence statements.

Every statement is a TheoremSpec: the classes of p where it applies plus a
claims function that lists, at one prime, the congruences to check.  A
Claim carries both sides of one congruence: the left side, already
evaluated by the claims function -- S(m), the s series at a raw point, or
T(x), which also gives P_[p/4](t) at _t_at, the one Murphy point -- the
right side, the modulus p or p**2 and the quadratic-form witnesses.  The
default claims function reads the spec's branch table (classes of p ->
witnesses -> expected residue of S(m)).  Every condition of a statement,
its applicability and each branch, is a set of residues of p mod the
statement's period N: congruences of p, the characters (13/p), (37/p),
(29/p) and (p/11), which reciprocity makes classes of p mod 13, 37, 29 and
11, and representability by the two genus forms of discriminant -8b,
classes mod 8b (Cox, Primes of the form x^2+ny^2, section 3).  _register
lifts each to residues mod N, the lcm of their moduli, once at import, so
verify reads p mod N against sets.  Exactly one branch must hold at every
applicable, non-excluded prime: a gap or an overlap in the table is an
engine error (RuntimeError), never a record.  A witness builder returns
None where its form does not represent p, and the claim then records a
missing representation, a failure.  The sampled statements draw their
claims from an rng seeded per statement and prime.  verify turns claims
into VerdictReport records: it reduces both sides by the modulus and
compares them.  verify_range sweeps a prime interval, optionally fanning
out across worker processes with a deterministic ordered merge.  Each
statement declares what its claims read, in TheoremSpec.reads: the fixed m
at which they read S, and "T" where they read T, or None where they read
points that depend on p.  Where no selected statement declares None and
the range is dense (_tabulated, the one rule), the sweep reads S(m) from
sumtree's tables, computed a window of primes at a time, instead of
packing each prime's s series: no conjecture reads S anywhere else.

Failures of proven statements are genuine failures; failures of
conjecture-kind statements are downgraded to counterexample candidates by
the callers (the records carry kind="conjecture").

The signs of the Legendre-polynomial claims were fixed by brute force:
the character sum of x^3+21x^2+112x equals -2C(C/7) (see eq31_sign_survey
in tests/test_theorems.py), which flips the sign of the matching P_[p/4]
claim relative to the character-sum form it is derived from.
"""

from __future__ import annotations

import os
import random
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from functools import lru_cache
from itertools import islice, repeat
from math import gcd, lcm
from typing import NamedTuple

from .arith import (
    PackedPoly,
    PrimeCtx,
    jacobi,
    primes_in,
    quad_char,
    sqrt_mod_p,
    sqrt_mod_p2,
)
from .binom import central_poly, shares_block, sum_S, sum_T
from .curves import char_sum, power_sum
from .legendre import legendre_eval
from .quadform import cornacchia, represent

__all__ = [
    "ALL_IDS",
    "CONJECTURE_IDS",
    "ISHII_CURVES",
    "Claim",
    "PROVEN_IDS",
    "REGISTRY",
    "SUM_ARGUMENTS",
    "TheoremSpec",
    "VerdictReport",
    "consistency_triangle",
    "ishii_char_sum",
    "shifted_cubic_leg",
    "t_roots",
    "verify",
    "verify_range",
]


class VerdictReport(NamedTuple):
    """Outcome of one congruence claim at one prime.  A NamedTuple, as
    Claim is, so it also compares equal to the plain tuple of its fields."""

    theorem: str
    p: int
    applicable: bool
    branch: str
    lhs: int | None
    rhs: int | None
    modulus: int | None
    witnesses: dict[str, int]
    passed: bool
    kind: str


class Branch(NamedTuple):
    """One row of a branch table: it holds where p mod the statement's
    period is one of `classes`."""

    label: str
    classes: frozenset[int]
    mod_exp: int = 2
    witnesses: Callable[[PrimeCtx], dict[str, int] | None] = lambda ctx: {}
    rhs: Callable[[PrimeCtx, dict[str, int]], int] = lambda ctx, w: 0


class Claim(NamedTuple):
    """One congruence at one prime: `lhs` is `rhs` modulo `modulus`.

    A claim with no `lhs` is a record as it stands: a skip when it is not
    `applicable`, and a missing quadratic-form representation (a failure)
    when it is."""

    label: str
    lhs: int | None = None
    rhs: int = 0
    modulus: int | None = None
    witnesses: dict[str, int] | None = None
    applicable: bool = True


def _match_branch(spec: "TheoremSpec", p: int) -> Branch:
    r = p % spec.period
    hits = [b for b in spec.branches if r in b.classes]
    if not hits:
        raise RuntimeError(
            f"{spec.id}: branch predicates leave p = {p} uncovered")
    if len(hits) > 1:
        raise RuntimeError(
            f"{spec.id}: branch predicates overlap at p = {p}: "
            f"{[b.label for b in hits]}")
    return hits[0]


def _branch_claims(spec: "TheoremSpec", ctx: PrimeCtx, seed: int,
                   lhs: int | None = None) -> list[Claim]:
    """The default claims: the one branch that holds at p, as a claim on
    S(m) unless another left side is given."""
    branch = _match_branch(spec, ctx.p)
    wit = branch.witnesses(ctx)
    if wit is None:
        return [Claim(f"{branch.label}; missing representation")]
    return [Claim(branch.label, sum_S(spec.m, ctx) if lhs is None else lhs,
                  branch.rhs(ctx, wit),
                  ctx.p if branch.mod_exp == 1 else ctx.p2, wit)]


class TheoremSpec(NamedTuple):
    id: str
    kind: str  # "proven" | "conjecture"
    period: int = 1
    applies: frozenset[int] = frozenset({0})  # residues of p mod period
    m: int | None = None
    excluded: frozenset[int] = frozenset()
    branches: tuple[Branch, ...] = ()
    claims: Callable[["TheoremSpec", PrimeCtx, int],
                     Iterable[Claim]] = _branch_claims
    # the fixed m at which the claims read S, and "T" where they read T;
    # None where they read points that depend on p
    reads: tuple[int | str, ...] | None = ()


# ---------------------------------------------------------------------------
# witness builders (None where the form does not represent p) and
# right-hand sides

def _form_wit(d: int, names: tuple[str, str] = ("x", "y"), a: int = 1,
              scale: int = 1, pick: Callable[[int, int], bool] | None = None):
    """Witnesses of a x^2 + d y^2 = scale * p, named by `names`.  With a
    sign rule `pick`, the first of (x, y), (x, -y), (-x, y), (-x, -y) --
    then, for d = 1, the same four of (y, x) -- that it accepts, or None."""
    def build(ctx: PrimeCtx) -> dict[str, int] | None:
        rep = (cornacchia(d, ctx) if a == scale == 1
               else represent(d, scale * ctx.p, a=a))
        if rep is None:
            return None
        if pick is None:
            return dict(zip(names, rep))
        orders = (rep, rep[::-1]) if d == 1 else (rep,)
        return next((dict(zip(names, xy)) for u, v in orders
                     for xy in ((u, v), (u, -v), (-u, v), (-u, -v))
                     if pick(*xy)), None)

    return build


# p = x^2 + y^2 with x the odd component, sign-pinned to x = 1 mod 4
_gauss_wit = _form_wit(1, pick=lambda x, y: x % 4 == 1)


def _quad(u: int, v: int = 0, name: str = "x"):
    """The right side u * x**2 + v * p, x the witness `name`."""
    return lambda ctx, w: u * w[name] ** 2 + v * ctx.p


def _rhs_signed_4x2_minus_2p(ctx, w):
    x = w["x"]
    s = -1 if (x // 6) % 2 else 1
    return s * (4 * x * x - 2 * ctx.p)


def _rhs_minus_4xy_char3(ctx, w):
    xy = w["x"] * w["y"]
    return -4 * jacobi(xy, 3) * xy


def _rhs_minus_4xy(ctx, w):
    return -4 * w["x"] * w["y"]


def _rhs_c23(ctx, w):
    c = w["c"]
    sgn = -1 if (ctx.p // 8 + ctx.half) % 2 else 1
    return sgn * (2 * c - ctx.p * pow(2 * c, -1, ctx.p2))


def _classes(mod: int, classes: tuple[int, ...], *rest) -> tuple:
    """The branch row that holds where p mod `mod` is one of `classes`,
    labelled from them; `rest` are Branch's mod_exp, witnesses and rhs
    (none for a zero branch)."""
    label = (f"p mod {mod} = {classes[0]}" if len(classes) == 1 else
             f"p mod {mod} in {{{','.join(map(str, classes))}}}")
    return label, mod, classes, *rest


def _lift(n: int, mod: int, classes: Iterable[int]) -> frozenset[int]:
    """The residues mod n, a multiple of mod, of the classes mod mod."""
    return frozenset().union(*[range(c, n, mod) for c in classes])


def _squares(n: int) -> set[int]:
    return {x * x % n for x in range(n)}


def _char_classes(q: int, value: int) -> set[int]:
    """The classes r mod the odd prime q where (r/q) = value (1 or -1)."""
    return {r for r in range(1, q) if jacobi(r, q) == value}


# ---------------------------------------------------------------------------
# sampled statements (seeded per theorem and prime) and the statements that
# check several sum arguments

# T2.1's left side, under its own name so that it is timed apart from the
# other polynomial evaluations.
_poly_sum = PackedPoly.__call__


def _t_at(t: int, ctx: PrimeCtx) -> int:
    """T((1-t)/128) mod p**2: P_[p/4](t) mod p by Murphy's formula (see
    tests/test_legendre.py), and a square root of S(m) mod p**2 where
    t**2 = 1 - 256/m.  The one point where T meets t; it reads sum_T
    through this module, as every T evaluation here does."""
    return sum_T((1 - t) * pow(128, -1, ctx.p2) % ctx.p2, ctx)


def _t21_claims(spec: TheoremSpec, ctx: PrimeCtx, seed: int) -> list[Claim]:
    rng = random.Random(f"{seed}:{spec.id}:{ctx.p}")
    p2 = ctx.p2
    out = []
    for i in range(20):
        x = rng.randrange(p2)
        out.append(Claim(f"x-sample-{i:02d}",
                         _poly_sum(central_poly(ctx), x * (1 - 64 * x)),
                         sum_T(x, ctx) ** 2, p2, {"x": x}))
    return out


def _c21_claims(spec: TheoremSpec, ctx: PrimeCtx, seed: int) -> list[Claim]:
    rng = random.Random(f"{seed}:{spec.id}:{ctx.p}")
    p, p2 = ctx.p, ctx.p2
    out = []
    tries = 0
    while len(out) < 10 and tries < 400:
        tries += 1
        m = rng.randrange(1, p2)
        if m % p == 0:
            continue
        roots = sqrt_mod_p2((1 - 256 * pow(m, -1, p2)) % p2, ctx)
        if not roots:
            continue
        t = roots[0]
        out.append(Claim(f"m-sample-{len(out):02d}", sum_S(m, ctx),
                         _t_at(t, ctx) ** 2, p2, {"m": m, "t": t}))
    return out


def _c22_claims(spec: TheoremSpec, ctx: PrimeCtx, seed: int) -> list[Claim]:
    # S(m) = sum_{k <= [p/4]} s(k) m**(-k) mod p: p | s(k) for k > [p/4]
    p = ctx.p
    return [Claim(f"implication m={m}", s, 0, ctx.p2, {"m": m})
            for m in _C22_TEST_SET
            if m % p and (m - 256) % p and (s := sum_S(m, ctx)) % p == 0]


#: T3.11's sum arguments, each with its label and its classes of p mod 84,
#: the statement's period
_T311_PARTS = tuple(
    (m, f"m={m}: {label}", _lift(84, mod, classes))
    for m, (label, mod, classes) in ((648, _classes(4, (3,))),
                                     (-144, _classes(3, (2,))),
                                     (-3969, _classes(7, (3, 5, 6)))))


def _t311_claims(spec: TheoremSpec, ctx: PrimeCtx, seed: int) -> list[Claim]:
    out = []
    r = ctx.p % spec.period
    for m, label, classes in _T311_PARTS:
        if m % ctx.p == 0:
            out.append(Claim(f"m={m}: excluded", applicable=False))
        elif r in classes:
            out.append(Claim(label, sum_S(m, ctx), 0, ctx.p2, {"m": m}))
    return out


# ---------------------------------------------------------------------------
# Legendre-polynomial side claims (both square-root branches, with the
# character factor computed from the same root)

def _p_claims(radicand: int, coef: tuple[int, int], char: tuple[int, int],
              base: Callable[[PrimeCtx, dict[str, int]], int]):
    """Claims function: the branch table's claim, then for each square
    root r of the radicand P_[p/4](u*r/v) = ((c0 + c1*r)/p) * base mod p,
    where (u, v) = coef, (c0, c1) = char and base reads the branch's own
    witnesses (the zero branch has none, and base 0).  P_[p/4](t) is read
    as _t_at(t) mod p.
    """
    def claims(spec: TheoremSpec, ctx: PrimeCtx, seed: int) -> list[Claim]:
        out = _branch_claims(spec, ctx, seed)
        p = ctx.p
        roots = sqrt_mod_p(radicand % p, ctx)
        if not roots:
            return out + [Claim("P; t not in F_p", applicable=False)]
        if out[0].lhs is None:
            return out + [Claim("P; missing representation")]
        wit = out[0].witnesses
        b = base(ctx, wit) if wit else 0
        c = coef[0] * pow(coef[1], -1, p)
        for tag, r in zip(("min", "max"), roots):
            t = c * r % p
            rhs = b and quad_char((char[0] + char[1] * r) % p, ctx) * b
            out.append(Claim(f"P; root={tag}", _t_at(t, ctx), rhs, p,
                             {"root": r, "t": t, **wit}))
        return out

    return claims


# ---------------------------------------------------------------------------
# the registry

_M_T34 = -(2 ** 10) * 21 ** 4
_M_T310 = -(2 ** 14) * 3 ** 4 * 5

REGISTRY: dict[str, TheoremSpec] = {}


def _register(tid: str, kind: str,
              applies: tuple[int, Iterable[int]] = (1, (0,)),
              rows: tuple[tuple, ...] = (), **fields) -> None:
    """Enter a statement into REGISTRY.  Its applicability (every prime
    by default) and the condition of each branch row are classes
    (mod, residues) of p; its period is the lcm of their moduli, and each
    is stored as residues mod the period.  A row is (label, mod, residues,
    *rest), rest being Branch's mod_exp, witnesses and rhs.  A statement
    with an m reads S there, before any reads it declares."""
    if tid in REGISTRY:
        raise ValueError(f"duplicate id {tid}")
    if "m" in fields:
        fields["reads"] = (fields["m"], *fields.get("reads", ()))
    n = lcm(applies[0], *(row[1] for row in rows))
    REGISTRY[tid] = TheoremSpec(
        tid, kind, n, _lift(n, *applies),
        branches=tuple(Branch(label, _lift(n, mod, classes), *rest)
                       for label, mod, classes, *rest in rows),
        **fields)


_register("RV256", "proven", m=256, rows=(
    _classes(8, (1, 3), 2, _form_wit(2), _quad(4, -2)),
    _classes(8, (5, 7)),
))

_register("T2.1", "proven", claims=_t21_claims, reads=None)

_register("C2.1", "proven", claims=_c21_claims, reads=None)

_register("C2.2", "proven", claims=_c22_claims)  # reads set below

_register(
    "C2.3", "proven", (8, (1, 3)),
    rows=(_classes(8, (1, 3), 2, _form_wit(2, ("c", "d"),
                             pick=lambda c, d: c % 4 == 1),
                   _rhs_c23),),
    claims=lambda spec, ctx, seed: _branch_claims(
        spec, ctx, seed, _t_at(0, ctx)),
    reads=("T",),
)

_register(
    "T3.1", "proven", m=81, excluded=frozenset({7}),
    rows=(
        _classes(7, (1, 2, 4), 1, _form_wit(7, ("C", "D")),
                 _quad(4, name="C")),
        _classes(7, (3, 5, 6)),
    ),
    # sign fixed empirically; the stated character-sum form carries the
    # opposite sign (see eq31_sign_survey in tests/test_theorems.py)
    claims=_p_claims(-7, (5, 9), (21, 3),
                     lambda ctx, w: jacobi(w["C"], 7) * 2 * w["C"]),
    reads=("T",),
)

_register(
    "T3.2", "proven", (12, (1, 11)), m=-12288,
    rows=(
        _classes(12, (1,), 1, _form_wit(9, pick=lambda x, y: x % 3 == 1),
                 _quad(4)),
        _classes(12, (11,)),
    ),
    claims=_p_claims(3, (7, 12), (2, 2), lambda ctx, w: 2 * w["x"]),
    reads=("T",),
)

# (d/p) = (p/d) for d = 13, 37, 29 (d = 1 mod 4), a class of p mod d
_register("T3.3", "proven", (13, _char_classes(13, 1)), m=-82944, rows=(
    _classes(4, (1,), 1, _form_wit(13), _quad(4)),
    _classes(4, (3,)),
))

_register("T3.4", "proven", (37, _char_classes(37, 1)), m=_M_T34, rows=(
    _classes(4, (1,), 1, _form_wit(37), _quad(4)),
    _classes(4, (3,)),
))

_register(
    "T3.5", "proven", (8, (1, 7)), m=48 ** 2,
    rows=(
        _classes(24, (1, 7), 1, _form_wit(6), _quad(4)),
        _classes(24, (17, 23)),
    ),
    claims=_p_claims(2, (2, 3), (0, 1),
                     lambda ctx, w: (-1) ** (ctx.half % 2)
                     * jacobi(w["x"], 3) * 2 * w["x"]),
    reads=("T",),
)

_register("T3.6", "proven", (5, (1, 4)), m=12 ** 4, rows=(
    _classes(40, (1, 9, 11, 19), 1, _form_wit(10), _quad(4)),
    _classes(40, (21, 29, 31, 39)),
))

_register("T3.7", "proven", (8, (1, 7)), m=1584 ** 2, rows=(
    ("(p/11) = 1", 11, _char_classes(11, 1), 1, _form_wit(22), _quad(4)),
    ("(p/11) = -1", 11, _char_classes(11, -1)),
))

_register("T3.8", "proven", (29, _char_classes(29, 1)), m=396 ** 4, rows=(
    _classes(8, (1, 3), 1, _form_wit(58), _quad(4)),
    _classes(8, (5, 7)),
))

_register("T3.9", "proven", (24, (1, 5, 19, 23)), m=28 ** 4, rows=(
    _classes(24, (1, 19), 1, _form_wit(18), _quad(4)),
    _classes(24, (5, 23)),
))

_register("T3.10", "proven", (5, (1, 4)), m=_M_T310, rows=(
    # Every applicable p = 1 mod 4 is x^2 + 25y^2: p = a^2 + b^2, and
    # were 5 to divide neither, a^2 + b^2 would be 2, 0 or 3 mod 5
    # (squares of units are 1 or 4), not p = +-1 mod 5.  So 5 divides
    # one of them, b say, and p = a^2 + 25(b/5)^2.
    ("p = x^2+25y^2", 4, (1,), 1, _form_wit(25), _quad(4)),
    _classes(4, (3,)),
))

# every prime, as classes mod 84, the period of _T311_PARTS
_register("T3.11", "proven", (84, range(84)), claims=_t311_claims,
          reads=tuple(m for m, _, _ in _T311_PARTS))

_register("Conj-A3", "conjecture", m=81, excluded=frozenset({7}), rows=(
    _classes(7, (1, 2, 4), 2, _form_wit(7), _quad(4, -2)),
    _classes(7, (3, 5, 6)),
))


def _register_eq35_conjecture(cid: str, b: int, f: int,
                              excluded: frozenset[int]) -> None:
    # Branching is by representability of the two genus forms of
    # discriminant -8b, which is what the "and so" clauses assert; the
    # stated symbol pairs misplace p = 3 mod 4 for b in {5, 29}.  2b is
    # idoneal (one form per genus), so p prime to 8b is a value of a form
    # iff p mod 8b is a unit value of it (Cox, Primes of the form x^2+ny^2).
    # 2b y^2 mod 8b reads y^2 mod 4 (0 or 1), b y^2 reads y^2 mod 8.
    d1, n = 2 * b, 8 * b
    squares = _squares(n)
    one, two = ({r for r in {(a * u + c * v) % n
                             for u in squares for v in ys} if gcd(r, n) == 1}
                for a, c, ys in ((1, d1, (0, 1)), (2, b, (0, 1, 4))))
    _register(cid, "conjecture", m=f, excluded=excluded, rows=(
        (f"p = x^2+{d1}y^2", n, one, 2, _form_wit(d1), _quad(4, -2)),
        (f"p = 2x^2+{b}y^2", n, two, 2, _form_wit(b, a=2), _quad(-8, 2)),
        ("neither form", n, set(range(n)) - one - two),
    ))


_register_eq35_conjecture("Conj-A14", 3, 48 ** 2, frozenset())
_register_eq35_conjecture("Conj-A16", 5, 12 ** 4, frozenset({5}))
_register_eq35_conjecture("Conj-A18", 11, 1584 ** 2, frozenset())
_register_eq35_conjecture("Conj-A21", 29, 396 ** 4, frozenset({29}))


def _register_twisted_conjecture(cid: str, d: int, m: int,
                                 excluded: frozenset[int]) -> None:
    # (d/p) = (p/d) for d = 1 mod 4, so each branch is a class mod 4d
    n = 4 * d
    one, two = ({r for r in range(c, n, 4) if r % d in chars}
                for c, chars in ((1, _char_classes(d, 1)),
                                 (3, _char_classes(d, -1))))
    _register(cid, "conjecture", m=m, excluded=excluded, rows=(
        (f"({d}/p) = (-1/p) = 1", n, one, 2, _form_wit(d), _quad(4, -2)),
        (f"({d}/p) = (-1/p) = -1", n, two, 2, _form_wit(d, scale=2),
         _quad(-2, 2)),
        (f"({d}/p) = -(-1/p)", n, set(range(n)) - one - two),
    ))


_register_twisted_conjecture("Conj-A17", 13, -82944, frozenset({13}))
_register_twisted_conjecture("Conj-A19", 37, _M_T34, frozenset({37}))

_register("Conj-A24", "conjecture", m=-12288, rows=(
    _classes(12, (1,), 1, _gauss_wit, _rhs_signed_4x2_minus_2p),
    _classes(12, (5,), 2, _gauss_wit, _rhs_minus_4xy_char3),
    _classes(4, (3,)),
))

_register(
    "Conj-A25", "conjecture", m=_M_T310, excluded=frozenset({7}),
    rows=(
        # p = 1 mod 4, and p = +-1 or +-2 mod 5
        ("p = x^2+25y^2", 20, (1, 9), 1, _form_wit(25), _quad(4, -2)),
        # x*y is the same for every arrangement with 5 | x - y
        ("p = x^2+y^2 with 5 | x-y", 20, (13, 17), 2,
         _form_wit(1, pick=lambda x, y: (x - y) % 5 == 0), _rhs_minus_4xy),
        _classes(4, (3,)),
    ),
)

_register("Conj-A28", "conjecture", m=28 ** 4, excluded=frozenset({5}),
          rows=(_classes(8, (1, 3), 1, _form_wit(2), _quad(4, -2)),
                _classes(8, (5, 7))))

PROVEN_IDS: tuple[str, ...] = tuple(
    tid for tid, s in REGISTRY.items() if s.kind == "proven")
CONJECTURE_IDS: tuple[str, ...] = tuple(
    tid for tid, s in REGISTRY.items() if s.kind == "conjecture")
ALL_IDS: tuple[str, ...] = tuple(REGISTRY)

#: (statement id, sum argument m) for every truncated central sum a proven
#: statement checks, in registry order; T3.11 contributes three arguments.
SUM_ARGUMENTS: tuple[tuple[str, int], ...] = tuple(
    (tid, m) for tid, s in REGISTRY.items() if s.kind == "proven"
    for m in s.reads or () if m != "T")

# without 256, which C2.2's own (m - 256) % p filter drops at every prime
_C22_TEST_SET = tuple(sorted({m for _, m in SUM_ARGUMENTS} - {256}))
REGISTRY["C2.2"] = REGISTRY["C2.2"]._replace(reads=_C22_TEST_SET)

_DENSE = 32  # the fewest primes on which sweeps read S from sumtree's tables


def _tabulated(ids: Iterable[str], primes: list[int]) -> tuple[int, ...]:
    """The sum arguments m at which a sweep of the statements `ids` over the
    ascending `primes` reads S(m) from sumtree's tables, or () where each
    prime packs its own series.  The one rule for when the tables run:
    no statement's reads are None, since a point that depends on p needs
    p's packed series anyway, and the range is dense: it holds at least
    _DENSE primes.  The tables then hold every m the statements' reads
    declare.  The tables first build the prefix through the first prime,
    (p_0 - 1)/2 terms, and that costs about as much as packing the series
    of 15 to 30 primes near p_0, each of about as many terms (measured for
    p_0 up to 10**5): on fewer primes, packing is cheaper."""
    reads = [REGISTRY[tid].reads for tid in ids]
    if None in reads or len(primes) < _DENSE:
        return ()
    return tuple(sorted({m for r in reads for m in r if m != "T"}))


# ---------------------------------------------------------------------------
# evaluation

def verify(spec: TheoremSpec | str, p: PrimeCtx | int,
           seed: int = 0) -> list[VerdictReport]:
    """All verdict records for one statement at one prime, int or PrimeCtx:
    one per claim, or one "excluded" or "n/a" skip record.

    Most statements produce a single record; the Legendre-polynomial side
    claims and the sampled statements produce several.
    """
    if isinstance(spec, str):
        spec = REGISTRY[spec]
    ctx = p if isinstance(p, PrimeCtx) else PrimeCtx(p)
    p = ctx.p
    if p in spec.excluded or (spec.m is not None and spec.m % p == 0):
        claims = [Claim("excluded", applicable=False)]
    else:
        claims = (list(spec.claims(spec, ctx, seed))
                  if p % spec.period in spec.applies else [])
    reports = []
    for label, lhs, rhs, mod, wit, applicable in (
            claims or [Claim("n/a", applicable=False)]):
        if lhs is None:  # a skip, or a missing representation
            rhs = mod = None
        else:
            lhs, rhs = lhs % mod, rhs % mod
        reports.append(VerdictReport(
            spec.id, p, applicable, label, lhs, rhs, mod, wit or {},
            not applicable if mod is None else lhs == rhs, spec.kind))
    return reports


def _eval_block(ids: tuple[str, ...], block: tuple[PrimeCtx, ...],
                seed: int) -> list[VerdictReport]:
    return [r for ctx in block for tid in ids
            for r in verify(REGISTRY[tid], ctx, seed)]


_BLOCK = 8  # at most this many primes share one series build
_WINDOW = 64  # primes whose S tables sumtree computes in one scan


def _blocks(primes: list[int], parts: int) -> list[tuple[int, ...]]:
    """The ascending primes cut by count into k runs whose lengths differ
    by at most one, longer first, k the least multiple of `parts` that is
    at least n/_BLOCK (at most n, the number of primes).  A run stays one
    block where its first and last primes pass shares_block, else each of
    its primes is a block: only below p = 140 (up to 10**5), where a
    series has at most 104 terms.  So no block exceeds _BLOCK primes, and
    there are at least min(parts, n) blocks."""
    n = len(primes)
    runs = -(-n // _BLOCK)
    runs = min(n, -(-runs // parts) * parts)
    out, i = [], 0
    for j in range(runs):
        run = primes[i:i + n // runs + (j < n % runs)]
        i += len(run)
        out += ([tuple(run)] if shares_block(run[0], run[-1])
                else [(p,) for p in run])
    return out


def _prime_sums(ms: tuple[int, ...], primes: list[int]
                ) -> Iterator[dict[int, int]]:
    """The S(m) table of each of the ascending primes at the points `ms`:
    sumtree's, one window of _WINDOW primes at a time, or empty tables
    where `ms` is () (sumtree is then not imported)."""
    if not ms:
        return repeat({})
    from .sumtree import window_sums

    return window_sums([primes[i:i + _WINDOW]
                        for i in range(0, len(primes), _WINDOW)], ms)


def verify_range(ids: Iterable[str], pmin: int, pmax: int, seed: int = 0,
                 workers: int = 1) -> Iterator[VerdictReport]:
    """Verdicts for every statement in `ids` and every prime in
    [pmin, pmax], in ascending (p, id) order regardless of worker count.

    The primes are cut by _blocks into even runs that share their series
    builds, or below p = 140 into single primes, one block per task: at
    least as many as workers, so every worker has one.  Where _tabulated
    names sum arguments, this process computes sumtree's tables of S at
    them, a window of _WINDOW primes at a time as the blocks are reached,
    and each PrimeCtx carries its prime's table, to a worker where there
    is a pool.  There is none where no statement declares "T" among its
    reads, as the tables are then all the O(p) work; otherwise at most
    min(os.cpu_count(), number of primes) processes start.  The records
    depend on neither.  A pool is handed at most 2 * workers blocks ahead
    of the block being read, so a stalled reader holds that many blocks
    of records at most.  Each worker starts with SIGTERM's default
    action, whatever handler the caller installed, so the SIGTERM that
    ends the pool (when the sweep is read to its end or closed) ends
    every worker wherever it is: a worker left with a Python handler can
    miss it and hang the teardown."""
    if pmin <= 3 or pmin > pmax:
        raise ValueError("need 3 < pmin <= pmax")
    id_list = tuple(sorted(set(ids)))
    for tid in id_list:
        if tid not in REGISTRY:
            raise KeyError(f"unknown theorem id {tid!r}")
    if not id_list:
        return
    primes = primes_in(pmin, pmax)
    ms = _tabulated(id_list, primes)
    if ms and not any("T" in REGISTRY[tid].reads for tid in id_list):
        workers = 1
    workers = max(1, min(workers, os.cpu_count() or 1, len(primes)))
    blocks = _blocks(primes, workers)
    sums = _prime_sums(ms, primes)
    ctxs = (tuple(PrimeCtx(p, block, s) for p, s in zip(block, sums))
            for block in blocks)
    if workers <= 1:
        for block in ctxs:
            yield from _eval_block(id_list, block, seed)
        return
    import multiprocessing  # only a pool needs them: keeps start-up lean
    import signal

    with multiprocessing.Pool(workers, signal.signal,
                              (signal.SIGTERM, signal.SIG_DFL)) as pool:
        results = (pool.apply_async(_eval_block, (id_list, block, seed))
                   for block in ctxs)
        window = deque(islice(results, 2 * workers))
        while window:
            yield from window.popleft().get()
            window.extend(islice(results, 1))


# ---------------------------------------------------------------------------
# cross-statement consistency machinery

@lru_cache(maxsize=1)
def t_roots(m: int, ctx: PrimeCtx):
    """The square roots t of a = 1 - 256/m mod p, for an integer m that p
    does not divide, their lifts mod p**2 and S(m) when there are any
    roots (else None).  Read by both consistency checks (a sweep asks twice
    in a row for each (m, p)) and by `supercong sum`; C2.1's sampler still
    takes its t from `sqrt_mod_p2` itself.  Where a is a unit mod p, one
    Hensel lift gives both: the roots are the lifts' residues.  Where
    a = 0 mod p, the root is 0, lifted to 0 only when m = 256: where
    m = 256 mod p**2 and m != 256, a = 0 mod p**2 too and 0 is a square
    root of it, but no lift is returned (a known gap, kept while it would
    move a pinned consistency digest)."""
    p, p2 = ctx.p, ctx.p2
    a = (m - 256) * pow(m, -1, p2) % p2
    if a % p:
        lifts = sqrt_mod_p2(a, ctx)
        roots = tuple(sorted(t % p for t in lifts))
    else:
        roots, lifts = (0,), ((0,) if m == 256 else ())
    return roots, lifts, sum_S(m, ctx) if roots else None


def consistency_triangle(m: int, ctx: PrimeCtx) -> dict:
    """Cross-check S(m) against P_[p/4](t)**2 mod p and T((1-t)/128)**2
    mod p**2, with t = sqrt(1 - 256/m), for both root choices.

    Returns {"skipped": reason} when t is not in F_p; otherwise
    {"mod_p": bool, "mod_p2": bool | None} where the mod-p**2 leg is None
    when `t_roots` gives no lift: where t = 0 mod p and m != 256.  Where
    a = 1 - 256/m = 0 mod p but not mod p**2, no square root exists mod
    p**2.  Where a = 0 mod p**2 (m = 256 mod p**2), t = 0 is one, and it
    would feed the 128-denominator sum: S(m) = T(1/128)**2 mod p**2 holds
    there, but `t_roots` does not lift it yet.
    """
    p, p2 = ctx.p, ctx.p2
    roots, lifts, s_val = t_roots(m, ctx)
    if not roots:
        return {"skipped": "t not in F_p"}
    ok_p = all(legendre_eval(ctx.qcap, r, ctx) ** 2 % p == s_val % p
               for r in roots)
    ok_p2: bool | None = None
    if lifts:
        ok_p2 = all(_t_at(t, ctx) ** 2 % p2 == s_val for t in lifts)
    return {"mod_p": ok_p, "mod_p2": ok_p2}


def shifted_cubic_leg(m: int, ctx: PrimeCtx) -> bool | None:
    """Does the squared power sum of x^3+4x^2+(2-2t)x match S(m) mod p
    for both roots t = sqrt(1 - 256/m)?  None when t is not in F_p."""
    p = ctx.p
    roots, _, s_val = t_roots(m, ctx)
    if not roots:
        return None
    return all(power_sum(4, 2 - 2 * t, 0, ctx) ** 2 % p == s_val % p
               for t in roots)


#: CM curves attached to the two statements whose Legendre-polynomial
#: claims route through explicit Weierstrass models: radicand plus
#: (rational, sqrt-coefficient) pairs for the x and constant coefficients.
ISHII_CURVES: dict[str, tuple[int, tuple[int, int], tuple[int, int]]] = {
    "T3.2": (3, (-120, -42), (448, 336)),
    "T3.5": (2, (-21, 12), (-28, 22)),
}


def ishii_char_sum(tid: str, root: int, ctx: PrimeCtx) -> int:
    """Character sum of the registered CM curve, reduced with the given
    square root of its radicand."""
    rad, (b0, b1), (c0, c1) = ISHII_CURVES[tid]
    return char_sum(0, b0 + b1 * root, c0 + c1 * root, ctx)
