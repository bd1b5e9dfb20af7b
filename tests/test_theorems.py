import importlib
import itertools
import math
import multiprocessing
import pkgutil
import random
import signal
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest

import supercong
from supercong import binom, curves, legendre, theorems
from supercong.arith import (
    PrimeCtx,
    jacobi,
    primes_in,
    quad_char,
    sqrt_mod_p,
)
from supercong.quadform import cornacchia, represent
from supercong.theorems import (
    ALL_IDS,
    CONJECTURE_IDS,
    PROVEN_IDS,
    REGISTRY,
    SUM_ARGUMENTS,
    Branch,
    VerdictReport,
    consistency_triangle,
    ishii_char_sum,
    shifted_cubic_leg,
    verify,
    verify_range,
)
from test_binom import count_column_sums
from test_curves import char_sum_loop
from test_quadform import normalize


def to_record(rec: VerdictReport) -> dict:
    """The JSON-ready dict of a record, residues as decimal strings: the
    object that each JSONL line of the CLI encodes."""
    def _str(v):
        return None if v is None else str(v)

    return {
        "theorem": rec.theorem,
        "p": rec.p,
        "applicable": rec.applicable,
        "branch": rec.branch,
        "lhs": _str(rec.lhs),
        "rhs": _str(rec.rhs),
        "modulus": _str(rec.modulus),
        "witnesses": dict(rec.witnesses),
        "pass": rec.passed,
        "kind": rec.kind,
    }


def from_record(rec: dict) -> VerdictReport:
    """The VerdictReport that to_record turned into `rec`."""
    def _int(v):
        return None if v is None else int(v)

    return VerdictReport(
        theorem=rec["theorem"],
        p=rec["p"],
        applicable=rec["applicable"],
        branch=rec["branch"],
        lhs=_int(rec["lhs"]),
        rhs=_int(rec["rhs"]),
        modulus=_int(rec["modulus"]),
        witnesses={k: int(v) for k, v in rec["witnesses"].items()},
        passed=rec["pass"],
        kind=rec["kind"],
    )


def eq31_sign_survey(pmax: int = 1000) -> dict[int, int]:
    """Empirical sign of the character sum of x^3+21x^2+112x against the
    reference value 2C(C/7) from p = C^2+7D^2, for p = 1,2,4 mod 7.

    The survey result (constant -1) is what fixes the sign of the
    Legendre-polynomial claim attached to the m = 81 statement.
    """
    out: dict[int, int] = {}
    for p in primes_in(5, pmax):
        if p % 7 not in (1, 2, 4):
            continue
        cs = char_sum_loop(21, 112, 0, PrimeCtx(p))
        c, _ = cornacchia(7, p)
        ref = 2 * c * jacobi(c, 7)
        if cs == 0 or abs(cs) != abs(ref):
            raise RuntimeError(f"unexpected character sum {cs} at p = {p}")
        out[p] = 1 if cs == ref else -1
    return out


def test_registry_contents():
    assert set(PROVEN_IDS) == {
        "RV256", "T2.1", "C2.1", "C2.2", "C2.3",
        "T3.1", "T3.2", "T3.3", "T3.4", "T3.5", "T3.6", "T3.7", "T3.8",
        "T3.9", "T3.10", "T3.11",
    }
    assert set(CONJECTURE_IDS) == {
        "Conj-A3", "Conj-A14", "Conj-A16", "Conj-A17", "Conj-A18",
        "Conj-A19", "Conj-A21", "Conj-A24", "Conj-A25", "Conj-A28",
    }
    assert len(ALL_IDS) == 26


def test_sum_arguments_are_pinned():
    """SUM_ARGUMENTS, derived from the registry, is the consistency
    workload's input list: these (id, m) pairs in this order."""
    assert SUM_ARGUMENTS == (
        ("RV256", 256),
        ("T3.1", 81),
        ("T3.2", -12288),
        ("T3.3", -82944),
        ("T3.4", -(2 ** 10) * 21 ** 4),
        ("T3.5", 48 ** 2),
        ("T3.6", 12 ** 4),
        ("T3.7", 1584 ** 2),
        ("T3.8", 396 ** 4),
        ("T3.9", 28 ** 4),
        ("T3.10", -(2 ** 14) * 3 ** 4 * 5),
        ("T3.11", 648),
        ("T3.11", -144),
        ("T3.11", -3969),
    )


def test_branch_labels_are_pinned():
    """Every statement's branch labels, in table order: the labels are
    record fields, so their format may not drift."""
    expected = {
        "RV256": ["p mod 8 in {1,3}", "p mod 8 in {5,7}"],
        "T2.1": [], "C2.1": [], "C2.2": [],
        "C2.3": ["p mod 8 in {1,3}"],
        "T3.1": ["p mod 7 in {1,2,4}", "p mod 7 in {3,5,6}"],
        "T3.2": ["p mod 12 = 1", "p mod 12 = 11"],
        "T3.3": ["p mod 4 = 1", "p mod 4 = 3"],
        "T3.4": ["p mod 4 = 1", "p mod 4 = 3"],
        "T3.5": ["p mod 24 in {1,7}", "p mod 24 in {17,23}"],
        "T3.6": ["p mod 40 in {1,9,11,19}", "p mod 40 in {21,29,31,39}"],
        "T3.7": ["(p/11) = 1", "(p/11) = -1"],
        "T3.8": ["p mod 8 in {1,3}", "p mod 8 in {5,7}"],
        "T3.9": ["p mod 24 in {1,19}", "p mod 24 in {5,23}"],
        "T3.10": ["p = x^2+25y^2", "p mod 4 = 3"],
        "T3.11": [],
        "Conj-A3": ["p mod 7 in {1,2,4}", "p mod 7 in {3,5,6}"],
        "Conj-A14": ["p = x^2+6y^2", "p = 2x^2+3y^2", "neither form"],
        "Conj-A16": ["p = x^2+10y^2", "p = 2x^2+5y^2", "neither form"],
        "Conj-A18": ["p = x^2+22y^2", "p = 2x^2+11y^2", "neither form"],
        "Conj-A21": ["p = x^2+58y^2", "p = 2x^2+29y^2", "neither form"],
        "Conj-A17": ["(13/p) = (-1/p) = 1", "(13/p) = (-1/p) = -1",
                     "(13/p) = -(-1/p)"],
        "Conj-A19": ["(37/p) = (-1/p) = 1", "(37/p) = (-1/p) = -1",
                     "(37/p) = -(-1/p)"],
        "Conj-A24": ["p mod 12 = 1", "p mod 12 = 5", "p mod 4 = 3"],
        "Conj-A25": ["p = x^2+25y^2", "p = x^2+y^2 with 5 | x-y",
                     "p mod 4 = 3"],
        "Conj-A28": ["p mod 8 in {1,3}", "p mod 8 in {5,7}"],
    }
    assert {tid: [b.label for b in spec.branches]
            for tid, spec in REGISTRY.items()} == expected


def test_branch_records_examples():
    """The branch label and witnesses of the first record, and the skip
    records of an excluded and of an inapplicable prime."""
    rec = verify("T3.1", 11)[0]
    assert rec.branch == "p mod 7 in {1,2,4}"
    assert rec.witnesses == {"C": 2, "D": 1}
    rec = verify("T3.1", 13)[0]
    assert rec.branch == "p mod 7 in {3,5,6}" and rec.witnesses == {}
    rec = verify("T3.5", 17)[0]
    assert rec.branch == "p mod 24 in {17,23}" and rec.applicable
    (rec,) = verify("T3.1", 7)
    assert (rec.applicable, rec.branch, rec.passed) == (False, "excluded",
                                                        True)
    (rec,) = verify("T3.3", 7)  # (13/7) = -1: not applicable
    assert (rec.applicable, rec.branch, rec.passed) == (False, "n/a", True)


def test_verify_spot_records():
    (rec,) = [r for r in verify("T3.1", 11) if not r.branch.startswith("P")]
    assert (rec.lhs, rec.rhs, rec.modulus, rec.passed) == (5, 5, 11, True)
    assert rec.witnesses == {"C": 2, "D": 1}

    (rec,) = verify("RV256", 11)
    assert (rec.lhs, rec.rhs, rec.modulus) == (14, 14, 121)

    (rec,) = verify("C2.3", 11)
    assert (rec.lhs, rec.rhs, rec.modulus) == (16, 16, 121)
    assert rec.witnesses["c"] == -3

    (rec,) = verify("T3.1", 7)
    assert not rec.applicable and rec.branch == "excluded" and rec.passed

    (rec,) = verify("C2.3", 13)  # 13 = 5 mod 8
    assert not rec.applicable and rec.branch == "n/a"


def test_verify_range_examples():
    assert all(r.passed for r in verify_range(["T3.11"], 5, 50))
    assert all(r.passed for r in verify_range(["T2.1"], 5, 50))
    assert list(verify_range([], 5, 50)) == []
    with pytest.raises(ValueError):
        list(verify_range(["T3.1"], 3, 50))
    with pytest.raises(KeyError):
        list(verify_range(["T9.9"], 5, 50))


def test_verify_range_ordering():
    recs = list(verify_range(["T3.1", "RV256", "C2.3"], 5, 100))
    keys = [(r.p, r.theorem) for r in recs]
    assert keys == sorted(keys)


def _holds(spec, branch, p):
    """Does `branch` of `spec` hold at p?"""
    return p % spec.period in branch.classes


def _checked(spec, pmax):
    """The primes 5..pmax at which spec applies and is not excluded."""
    return [p for p in primes_in(5, pmax)
            if p not in spec.excluded and p % spec.period in spec.applies
            and (spec.m is None or spec.m % p)]


def test_branch_tables_partition_every_prime():
    """Exactly one branch holds wherever a branch-table statement applies."""
    for tid in ALL_IDS:
        spec = REGISTRY[tid]
        if not spec.branches:
            continue
        for p in _checked(spec, 800):
            hits = [b.label for b in spec.branches if _holds(spec, b, p)]
            assert len(hits) == 1, (tid, p, hits)


def test_class_sets_state_the_papers_conditions():
    """The class sets say what the statements say of p, below 3000: the
    characters (d/p) by reciprocity as classes of p mod d, the twisted
    conjectures' (d/p) = +-(-1/p), and T3.11's three parts."""
    def applies(tid, p):
        spec = REGISTRY[tid]
        return p % spec.period in spec.applies

    def holding(tid, p):
        spec = REGISTRY[tid]
        return [b.label for b in spec.branches if _holds(spec, b, p)]

    t311 = REGISTRY["T3.11"]
    for p in primes_in(5, 3000):
        for tid, d in (("T3.3", 13), ("T3.4", 37), ("T3.8", 29)):
            assert applies(tid, p) == (jacobi(d, p) == 1), (tid, p)
        if p != 11:
            assert holding("T3.7", p) == [f"(p/11) = {jacobi(p, 11)}"], p
        for tid, d in (("Conj-A17", 13), ("Conj-A19", 37)):
            chi, sign = jacobi(d, p), (-1) ** (p % 4 == 3)
            want = (f"({d}/p) = (-1/p) = {sign}" if chi == sign
                    else f"({d}/p) = -(-1/p)")
            assert holding(tid, p) == [want], (tid, p)
        assert [p % t311.period in classes
                for _, _, classes in theorems._T311_PARTS] == [
            p % 4 == 3, p % 3 == 2, p % 7 in (3, 5, 6)], p


def _prime_classes(spec):
    """The classes mod the statement's period N that hold the primes > 3
    it checks: every unit class mod N, and the class of each prime > 3
    dividing N unless the statement excludes that prime."""
    n = spec.period
    return {r for r in range(n) if math.gcd(r, n) == 1} | {
        q % n for q in primes_in(5, n) if n % q == 0
        and q not in spec.excluded and (spec.m is None or spec.m % q)}


def _uncovered_classes(spec, classes):
    """The classes at which the statement applies without exactly one
    branch holding, with the branches that hold."""
    return {r: [b.label for b in spec.branches if r in b.classes]
            for r in classes if r in spec.applies
            and sum(r in b.classes for b in spec.branches) != 1}


def test_branch_tables_partition_every_residue_class():
    """Exactly one branch holds at every prime > 3 where a branch-table
    statement applies, certified class by class.  Whether a statement
    applies and which branch holds are sets of residues of p mod its
    period N, so every prime in a class behaves alike.  Every prime > 3
    is either in a unit class mod N, which by Dirichlet holds infinitely
    many primes, or is a prime dividing N, a class by itself; so checking
    each such class covers them all.  Dropping any branch of any table
    leaves a class uncovered."""
    for tid, spec in REGISTRY.items():
        n = spec.period
        assert spec.applies <= set(range(n)), tid
        assert all(b.classes <= set(range(n)) for b in spec.branches), tid
        if not spec.branches:
            continue
        classes = _prime_classes(spec)
        assert _uncovered_classes(spec, classes) == {}, tid
        for i in range(len(spec.branches)):
            dropped = spec._replace(branches=spec.branches[:i]
                                    + spec.branches[i + 1:])
            assert _uncovered_classes(dropped, classes), (tid, i)


@pytest.mark.parametrize("tid,p", [("T3.2", 11), ("T3.1", 13), ("T3.5", 17),
                                   ("RV256", 5)])
def test_a_branch_table_gap_is_an_engine_error(tid, p):
    """With its zero branch dropped, a statement has no branch at p, an
    applicable prime: an engine error, never a record, whether its
    Legendre-polynomial claims follow the branch table or not."""
    spec = REGISTRY[tid]
    gapped = spec._replace(branches=spec.branches[:1])
    with pytest.raises(RuntimeError,
                       match=rf"{tid}: branch predicates leave p = {p} "
                             "uncovered"):
        verify(gapped, p)


#: The primes the branch-table perturbations are checked at: every branch
#: of every table has an applicable prime below 60 (T3.8's and Conj-A21's
#: first branches start at 59).
PERTURBED_PRIMES = primes_in(5, 1000)


def _perturbed_tables():
    """(table id, perturbed spec, {branch label: primes}) for every
    perturbation of every branch table with two or more branches: each
    branch with an applicable prime in PERTURBED_PRIMES gives the class
    of its least such prime to the next branch (cyclically), and each
    pair of branches swaps right sides (mod_exp, witnesses and rhs).  The
    primes are those of each touched branch whose claims changed."""
    out = []
    for tid, spec in REGISTRY.items():
        if len(spec.branches) < 2:
            continue
        n, branches = spec.period, spec.branches
        at = {b.label: [p for p in _checked(spec, PERTURBED_PRIMES[-1])
                        if p % n in b.classes] for b in branches}
        for i, src in enumerate(branches):
            if not at[src.label]:
                continue
            r = at[src.label][0] % n
            dst = branches[(i + 1) % len(branches)]
            moved = list(branches)
            moved[i] = src._replace(classes=src.classes - {r})
            moved[(i + 1) % len(branches)] = dst._replace(
                classes=dst.classes | {r})
            out.append((f"{tid}: class {r} of {src.label!r} moved",
                         spec._replace(branches=tuple(moved)),
                         {src.label: [p for p in at[src.label]
                                      if p % n == r]}))
        for i, j in itertools.combinations(range(len(branches)), 2):
            swapped = list(branches)
            for a, b in ((i, j), (j, i)):
                swapped[a] = branches[b]._replace(
                    label=branches[a].label, classes=branches[a].classes)
            out.append((f"{tid}: right sides of branches {i} and {j} "
                        "swapped", spec._replace(branches=tuple(swapped)),
                        {branches[k].label: at[branches[k].label]
                         for k in (i, j) if at[branches[k].label]}))
    return out


def test_perturbed_branch_tables_fail():
    """Every branch table can fail: each perturbation of _perturbed_tables
    gives a failing record (for a conjecture, a counterexample candidate)
    at every prime in PERTURBED_PRIMES whose claims it changed, in every
    branch it touches.  C2.3's table has one branch, so it has neither
    perturbation."""
    tables = _perturbed_tables()
    assert {name.split(":")[0] for name, _, _ in tables} == {
        tid for tid, spec in REGISTRY.items() if spec.branches} - {"C2.3"}
    assert all(want for _, _, want in tables)
    for p in PERTURBED_PRIMES:
        ctx = PrimeCtx(p)
        for name, spec, want in tables:
            if any(p in primes for primes in want.values()):
                records = verify(spec, ctx)
                assert not all(r.passed for r in records), (name, p)


def test_missing_representation_is_a_failure_not_a_skip():
    from supercong.theorems import Branch, TheoremSpec, _form_wit

    broken = TheoremSpec(
        id="X-test", kind="proven", m=81,
        branches=(Branch("impossible", frozenset({0}), 1,
                         _form_wit(7), lambda ctx, w: 0),),
    )
    (rec,) = verify(broken, 13)  # 13 = 6 mod 7 has no x^2+7y^2
    assert rec.applicable and not rec.passed
    assert "missing representation" in rec.branch


def test_a_claim_carries_any_left_side():
    """verify reduces a claim's own left side and compares: 5 = 12 mod 7
    passes.  A claim without a left side is a record as it stands, a
    failure when applicable (a missing representation), else a skip."""
    from supercong.theorems import Claim, TheoremSpec

    def spec(*claims):
        return TheoremSpec(id="X-lhs", kind="proven",
                           claims=lambda spec, ctx, seed: list(claims))

    got, missing = verify(spec(Claim("x", lhs=5, rhs=12, modulus=7),
                               Claim("y; missing representation", rhs=12,
                                     modulus=7, witnesses={"x": 1})), 11)
    assert got == VerdictReport("X-lhs", 11, True, "x", 5, 5, 7, {}, True,
                                "proven")
    assert missing == VerdictReport(
        "X-lhs", 11, True, "y; missing representation", None, None, None,
        {"x": 1}, False, "proven")
    (skip,) = verify(spec(Claim("z", rhs=12, modulus=7, applicable=False)),
                     11)
    assert skip == VerdictReport("X-lhs", 11, False, "z", None, None, None,
                                 {}, True, "proven")


def test_witness_existence_matches_branch_predicates():
    """Quadratic-form witnesses exist exactly where the branches say so.
    The eq35 conjectures branch by classes mod 8b, held here against the
    exhaustive search for x^2 + 2b y^2 = p and 2x^2 + b y^2 = p."""
    cases = {
        "T3.1": (7, (1, 2, 4), 7),
        "T3.5": (6, (1, 7), 24),
        "T3.9": (18, (1, 19), 24),
    }
    for tid, (d, classes, mod) in cases.items():
        for p in _checked(REGISTRY[tid], 500):
            assert (represent(d, p) is not None) == (p % mod in classes), \
                (tid, p)
    eq35 = {"Conj-A14": 3, "Conj-A16": 5, "Conj-A18": 11, "Conj-A21": 29}
    for tid, b in eq35.items():
        spec = REGISTRY[tid]
        one, two, neither = spec.branches
        assert (one.label, two.label) == (f"p = x^2+{2 * b}y^2",
                                          f"p = 2x^2+{b}y^2")
        for p in _checked(spec, 1999):
            in_one = represent(2 * b, p) is not None
            in_two = represent(b, p, a=2) is not None
            assert [_holds(spec, br, p) for br in (one, two, neither)] == [
                in_one, in_two, not (in_one or in_two)], (tid, p)


EQ35_B = (("Conj-A14", 3), ("Conj-A16", 5), ("Conj-A18", 11),
          ("Conj-A21", 29))
TWISTED_D = (("Conj-A17", 13), ("Conj-A19", 37))

#: The witness rule of every registry branch that has witnesses, as the
#: sign rules were first written: (d, a, scale, names, sign), the form
#: a x^2 + d y^2 = scale * p and a normalize convention, "gauss" or "gauss5".
WITNESS_RULES = {
    ("RV256", "p mod 8 in {1,3}"): (2, 1, 1, "xy", None),
    ("C2.3", "p mod 8 in {1,3}"): (2, 1, 1, "cd", "one_mod_4"),
    ("T3.1", "p mod 7 in {1,2,4}"): (7, 1, 1, "CD", None),
    ("T3.2", "p mod 12 = 1"): (9, 1, 1, "xy", "one_mod_3"),
    ("T3.3", "p mod 4 = 1"): (13, 1, 1, "xy", None),
    ("T3.4", "p mod 4 = 1"): (37, 1, 1, "xy", None),
    ("T3.5", "p mod 24 in {1,7}"): (6, 1, 1, "xy", None),
    ("T3.6", "p mod 40 in {1,9,11,19}"): (10, 1, 1, "xy", None),
    ("T3.7", "(p/11) = 1"): (22, 1, 1, "xy", None),
    ("T3.8", "p mod 8 in {1,3}"): (58, 1, 1, "xy", None),
    ("T3.9", "p mod 24 in {1,19}"): (18, 1, 1, "xy", None),
    ("T3.10", "p = x^2+25y^2"): (25, 1, 1, "xy", None),
    ("Conj-A3", "p mod 7 in {1,2,4}"): (7, 1, 1, "xy", None),
    **{(tid, f"p = x^2+{2 * b}y^2"): (2 * b, 1, 1, "xy", None)
       for tid, b in EQ35_B},
    **{(tid, f"p = 2x^2+{b}y^2"): (b, 2, 1, "xy", None)
       for tid, b in EQ35_B},
    **{(tid, f"({d}/p) = (-1/p) = 1"): (d, 1, 1, "xy", None)
       for tid, d in TWISTED_D},
    **{(tid, f"({d}/p) = (-1/p) = -1"): (d, 1, 2, "xy", None)
       for tid, d in TWISTED_D},
    ("Conj-A24", "p mod 12 = 1"): (1, 1, 1, "xy", "gauss"),
    ("Conj-A24", "p mod 12 = 5"): (1, 1, 1, "xy", "gauss"),
    ("Conj-A25", "p = x^2+25y^2"): (25, 1, 1, "xy", None),
    ("Conj-A25", "p = x^2+y^2 with 5 | x-y"): (1, 1, 1, "xy", "gauss5"),
    ("Conj-A28", "p mod 8 in {1,3}"): (2, 1, 1, "xy", None),
}


def rule_witnesses(rule, p):
    """The witnesses `rule` gives at p, from the exhaustive search."""
    d, a, scale, names, sign = rule
    rep = represent(d, scale * p, a=a)
    if rep is None:
        return None
    if sign == "gauss":  # the odd component, sign-pinned to 1 mod 4
        x, y = rep if rep[0] % 2 else rep[::-1]
        rep = (x if x % 4 == 1 else -x, y)
    elif sign == "gauss5":  # the first arrangement with 5 | x - y
        u, v = rep
        rep = next(((x, y) for x, y in (
            (u, v), (u, -v), (-u, v), (-u, -v),
            (v, u), (v, -u), (-v, u), (-v, -u)) if (x - y) % 5 == 0), None)
    elif sign is not None:
        rep = normalize(rep, sign)
    return None if rep is None else dict(zip(names, rep))


def test_witnesses_follow_the_parents_rules():
    """Every branch with witnesses gives, at every prime below 5000 where
    it holds, what its sign rule gives, and the pair solves its form."""
    default = Branch._field_defaults["witnesses"]
    assert {(tid, br.label) for tid, spec in REGISTRY.items()
            for br in spec.branches if br.witnesses is not default} \
        == set(WITNESS_RULES)
    for (tid, label), rule in WITNESS_RULES.items():
        spec = REGISTRY[tid]
        (branch,) = (br for br in spec.branches if br.label == label)
        d, a, scale, names, _ = rule
        for p in _checked(spec, 4999):
            if not _holds(spec, branch, p):
                continue
            got = branch.witnesses(PrimeCtx(p))
            assert got == rule_witnesses(rule, p), (tid, label, p)
            if got is not None:
                x, y = (got[n] for n in names)
                assert a * x * x + d * y * y == scale * p, (tid, label, p)


def test_p_claim_robust_under_root_choice():
    """The Legendre-polynomial claims hold for both square-root branches."""
    for tid in ("T3.1", "T3.2", "T3.5"):
        for p in primes_in(5, 500):
            for rec in verify(tid, p):
                assert rec.passed, rec
    # both roots genuinely appear
    recs = [r for r in verify("T3.1", 23) if r.branch.startswith("P; root")]
    assert {r.branch for r in recs} == {"P; root=min", "P; root=max"}


def test_eq31_sign_survey_is_constant_minus_one():
    signs = eq31_sign_survey(1000)
    assert signs, "survey must cover the applicable primes"
    assert set(signs.values()) == {-1}
    assert signs[11] == -1  # character sum -4 against reference +4


def test_ishii_curve_claims():
    """Character sums of the two stored CM curves match the stated
    closed forms (both square roots of the radicand)."""
    for p in primes_in(5, 400):
        ctx = PrimeCtx(p)
        if p % 12 in (1, 11):
            for r in sqrt_mod_p(3 % p, ctx):
                cs = ishii_char_sum("T3.2", r, ctx)
                if p % 12 == 11:
                    assert cs == 0, (p, r)
                else:
                    x, _ = normalize(cornacchia(9, p), "one_mod_3")
                    assert cs == -2 * x * quad_char((1 + r) % p, ctx), (p, r)
        if p % 8 in (1, 7):
            for r in sqrt_mod_p(2 % p, ctx):
                cs = ishii_char_sum("T3.5", r, ctx)
                if p % 24 in (17, 23):
                    assert cs == 0, (p, r)
                else:
                    x, _ = cornacchia(6, p)
                    ref = 2 * x * jacobi(2 * x, 3) * quad_char((1 + r) % p,
                                                               ctx)
                    assert cs == ref, (p, r)


def test_consistency_triangle_mini_sweep():
    ms = sorted({m for _, m in SUM_ARGUMENTS})
    for p in primes_in(5, 300):
        ctx = PrimeCtx(p)
        for m in ms:
            if m % p == 0:
                continue
            res = consistency_triangle(m, ctx)
            if "skipped" in res:
                continue
            assert res["mod_p"] is True, (p, m)
            assert res["mod_p2"] in (True, None), (p, m)


def test_shifted_cubic_leg_mini_sweep():
    ms = sorted({m for _, m in SUM_ARGUMENTS})
    for p in primes_in(5, 300):
        ctx = PrimeCtx(p)
        for m in ms:
            if m % p == 0:
                continue
            assert shifted_cubic_leg(m, ctx) in (True, None), (p, m)
    assert curves._deuring_poly.cache_info().currsize <= 1
    assert theorems.t_roots.cache_info().currsize <= 1


def test_t_roots_are_square_roots_of_a():
    """t_roots reads a = 1 - 256/m, here taken from the rational number.
    m = 256 gives a = 0, whose root 0 lifts to 0; m = 256 + p gives
    a = 0 mod p with a != 0, whose root 0 has no lift mod p**2."""
    for p in primes_in(5, 200):
        ctx = PrimeCtx(p)
        p2 = ctx.p2
        for m in (512, -64, 1024, 3, 128, -3, 81, -144, 7, 2304, 256,
                  256 + p):
            if m % p == 0:
                continue
            a = 1 - Fraction(256, m)
            a_p2 = a.numerator * pow(a.denominator, -1, p2) % p2
            roots, lifts, s_val = theorems.t_roots(m, ctx)
            assert roots == tuple(r for r in range(p)
                                  if (r * r - a_p2) % p == 0), (p, m)
            assert all(t * t % p2 == a_p2 and t % p in roots
                       for t in lifts), (p, m)
            if a_p2 % p or a == 0:
                assert len(lifts) == len(roots), (p, m)
            else:
                assert roots == (0,) and lifts == (), (p, m)
            assert s_val == (binom.sum_S(m, ctx) if roots else None), (p, m)


def test_s_is_t_at_1_over_128_squared_where_m_is_256_mod_p2():
    """C2.1 at t = 0: where a sum argument m != 256 is 256 mod p**2,
    a = 1 - 256/m = 0 mod p**2 and S(m) = T(1/128)**2 mod p**2.  There are
    17 such pairs over 5..1000, at p = 5, 7, 13, 23 and 29: the lift 0 that
    t_roots does not give yet (see the xfail below) would pass
    consistency_triangle's mod-p**2 leg."""
    ms = sorted({m for _, m in SUM_ARGUMENTS} - {256})
    pairs = [(p, m) for p in primes_in(5, 1000) for m in ms
             if (m - 256) % (p * p) == 0]
    assert len(pairs) == 17
    assert sorted({p for p, _ in pairs}) == [5, 7, 13, 23, 29]
    for p, m in pairs:
        ctx = PrimeCtx(p)
        t_val = binom.sum_T(pow(128, -1, ctx.p2), ctx)
        assert binom.sum_S(m, ctx) == t_val ** 2 % ctx.p2, (p, m)


@pytest.mark.xfail(strict=True, reason=(
    "t_roots lifts the root 0 only for m = 256: where m = 256 mod p**2 "
    "(81 at p = 5) a = 0 mod p**2 and 0 is its square root, as sqrt_mod_p2 "
    "says, but t_roots returns no lift.  Lifting it moves the consistency "
    "pin in perfbench/pins.json, so the fix waits for that re-pin."))
def test_t_roots_lifts_zero_where_m_is_256_mod_p2():
    assert theorems.t_roots(81, PrimeCtx(5))[1] == (0,)


def serial_pool(sizes: list, tasks: list):
    """A stand-in for multiprocessing.Pool that starts no process: it logs
    each pool's size in `sizes` and each task handed to it in `tasks`,
    and runs a task when its result is read."""

    class SerialPool:
        def __init__(self, processes, *initializer):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def apply_async(self, fn, args):
            tasks.append(args)
            return SimpleNamespace(get=partial(fn, *args))

    return SerialPool


def test_worker_count_is_capped_at_cpu_count(monkeypatch):
    """A stub pool records its size and runs serially: no process starts."""
    sizes = []
    monkeypatch.setattr(multiprocessing, "Pool", serial_pool(sizes, []))
    ids = ("RV256", "T3.1", "Conj-A25")
    serial = list(verify_range(ids, 5, 80, workers=1))
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    assert list(verify_range(ids, 5, 80, workers=10**6)) == serial
    assert sizes == [2]
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: None)
    assert list(verify_range(ids, 5, 80, workers=4)) == serial
    assert sizes == [2]
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 64)
    two = list(verify_range(["RV256"], 5, 7, workers=64))
    assert two == list(verify_range(["RV256"], 5, 7, workers=1))
    assert sizes == [2, 2]  # one process per block (5 and 7), not 64
    one = list(verify_range(ids, 11, 12, workers=64))
    assert one == list(verify_range(ids, 11, 12, workers=1))
    assert sizes == [2, 2]  # a one-prime range starts no pool


def test_pool_holds_a_bounded_window_of_blocks(monkeypatch):
    """A pool is handed at most 2 * workers blocks ahead of the reader: when
    the first record of a 5..3000 sweep on 2 workers has been read, at
    most 4 of its blocks have been submitted, and the records are the
    one-worker sweep's.  C2.3 reads T only, so the sweep is untabulated
    and pooled."""
    tasks = []
    monkeypatch.setattr(multiprocessing, "Pool", serial_pool([], tasks))
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    records = verify_range(["C2.3"], 5, 3000, workers=2)
    first = next(records)
    assert 0 < len(tasks) <= 4
    assert [first, *records] == list(verify_range(["C2.3"], 5, 3000))
    assert len(tasks) > 4


def test_pool_workers_start_with_sigterms_default_action(monkeypatch):
    """The pool's teardown ends its workers by SIGTERM, so each worker
    starts with the default action even where the caller installed a
    Python handler, which a worker about to block on the task queue can
    miss.  The stubbed statement reads each worker's action and then
    sets the default itself, so even a pool without that rule cannot
    hang this test; fork hands the stub to the workers."""
    def action(spec, ctx, seed):
        seen = signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        return [seen]

    def stop(signum, frame):
        raise SystemExit(f"signal {signum}")

    monkeypatch.setattr(theorems, "verify", action)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    previous = signal.signal(signal.SIGTERM, stop)
    try:
        seen = list(verify_range(["C2.3"], 5, 400, workers=2))
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert seen == [True] * len(primes_in(5, 400))


def test_conjectures_have_no_candidates_to_300():
    for r in verify_range(CONJECTURE_IDS, 5, 300):
        assert r.passed, r


def test_conjecture_sweep_never_builds_t_tail(monkeypatch):
    """The conjectures read only S, so no t block is ever built, nor any
    prime's t prefix read from one."""
    expected = list(verify_range(CONJECTURE_IDS, 5, 300))
    binom.t_poly.cache_clear()
    binom._block.cache_clear()

    def s_only(read):
        def call(series, arg):
            if series is binom._T:
                raise AssertionError(f"t built for {arg}")
            return read(series, arg)
        return call

    monkeypatch.setattr(binom, "_prefix", s_only(binom._prefix))
    monkeypatch.setattr(binom, "_block", s_only(binom._block))
    assert list(verify_range(CONJECTURE_IDS, 5, 300)) == expected


def test_proven_sweep_builds_no_legendre_polynomial(monkeypatch):
    """The engine reads every P_[p/4] claim from the t series, so a proven
    sweep packs no Legendre polynomial."""
    expected = list(verify_range(PROVEN_IDS, 5, 300))
    legendre._legendre_poly.cache_clear()

    def build(n, ctx):
        raise AssertionError(f"P_{n} built at p = {ctx.p}")

    monkeypatch.setattr(legendre, "_legendre_poly", build)
    assert list(verify_range(PROVEN_IDS, 5, 300)) == expected


def _even_runs(primes, parts):
    """The primes cut by count into k runs whose lengths differ by at most
    one, longer first: k the fewest runs of at most 8 primes, rounded up
    to a multiple of `parts`, but no more runs than primes."""
    if not primes:
        return []
    n, k = len(primes), parts
    while 8 * k < n:
        k += parts
    k = min(k, n)
    sizes = [n // k + 1] * (n % k) + [n // k] * (k - n % k)
    ends = list(itertools.accumulate(sizes, initial=0))
    return [primes[a:b] for a, b in zip(ends, ends[1:])]


def _whole_or_single(run):
    """The run as one block where its ends pass shares_block, else one
    block per prime."""
    if binom.shares_block(run[0], run[-1]):
        return [tuple(run)]
    return [(p,) for p in run]


def test_blocks_cover_the_primes_in_valid_runs():
    """Every prime once, in order, in runs that can share a series build
    (PrimeCtx accepts them, and their ends pass shares_block): exactly the
    even runs by count, each kept whole where its primes share a series
    build and cut into one-prime blocks where not, so at least one block
    per worker.  A run is cut only among small primes: at none above 139
    up to 10**5."""
    small = set(primes_in(5, 139))
    for lo, hi in ((5, 4000), (5, 80), (19900, 20100), (11, 12), (8, 10),
                   (5, 10 ** 5)):
        primes = primes_in(lo, hi)
        for parts in (1, 2, 3):
            blocks = theorems._blocks(primes, parts)
            runs = _even_runs(primes, parts)
            assert blocks == [b for run in runs
                              for b in _whole_or_single(run)], (lo, hi, parts)
            assert len(blocks) >= min(parts, len(primes))
            assert {b[0] for b in blocks} - {r[0] for r in runs} <= small
            assert [p for b in blocks for p in b] == primes
            for block in blocks:
                assert 1 <= len(block) <= 8
                assert binom.shares_block(block[0], block[-1])
                for p in block:
                    PrimeCtx(p, block)
    near = primes_in(19900, 20100)
    assert [len(b) for b in theorems._blocks(near, 2)] == [6, 5, 5, 5]
    assert [len(b) for b in theorems._blocks(near, 1)] == [7, 7, 7]
    assert [len(b) for b in theorems._blocks(near, 3)] == [7, 7, 7]


def test_record_round_trip():
    for p in (7, 11, 23):
        for tid in ("T3.1", "RV256", "T2.1", "Conj-A25"):
            for rec in verify(tid, p, seed=3):
                assert from_record(to_record(rec)) == rec


def test_seed_changes_samples_but_not_verdicts():
    a = verify("T2.1", 13, seed=1)
    b = verify("T2.1", 13, seed=2)
    assert [r.witnesses["x"] for r in a] != [r.witnesses["x"] for r in b]
    assert all(r.passed for r in a + b)
    assert verify("T2.1", 13, seed=1) == a


def _module_caches():
    """Every object with a cache_info defined in a library module, by name."""
    found = {}
    for info in pkgutil.iter_modules(supercong.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"supercong.{info.name}")
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") \
                    and value.__module__ == module.__name__:
                found[f"{info.name}.{attr}"] = value
    return found


def test_sweep_keeps_one_prime_of_tables():
    """After a whole-registry sweep and the consistency checks, each
    per-prime cache holds one entry at most, the block cache one build
    per series, and the memos of the live packed polynomials one prime's
    points."""
    list(verify_range(ALL_IDS, 5, 200))
    for p in (193, 197, 199):
        ctx = PrimeCtx(p)
        for _, m in SUM_ARGUMENTS:
            if m % p:
                consistency_triangle(m, ctx)
                shifted_cubic_leg(m, ctx)
        for tid, (radicand, _, _) in theorems.ISHII_CURVES.items():
            for root in sqrt_mod_p(radicand % p, ctx):
                ishii_char_sum(tid, root, ctx)
    caches = _module_caches()
    assert sorted(caches) == [
        "binom._block", "binom.central_poly", "binom.t_poly",
        "curves._deuring_poly",
        "legendre._legendre_poly", "theorems.t_roots"]
    for name, cached in caches.items():
        assert cached.cache_info().currsize <= 1 + (name == "binom._block"), \
            name
    # The live S and T polynomials are 199's, and their memos hold only
    # points that the consistency checks at 199 asked for: S(m) at 1/m,
    # and T at (1 - t)/128 with t**2 = 1 - 256/m.
    ctx = PrimeCtx(199)
    p2 = ctx.p2
    ms = [m for _, m in SUM_ARGUMENTS if m % 199]
    s_memo, t_memo = binom.central_poly(ctx).memo, binom.t_poly(ctx).memo
    assert 0 < len(s_memo) <= len(ms) and 0 < len(t_memo) <= 2 * len(ms)
    assert set(s_memo) <= {pow(m, -1, p2) for m in ms}
    assert {(1 - 128 * x) ** 2 % p2 for x in t_memo} <= {
        (m - 256) * pow(m, -1, p2) % p2 for m in ms}


def test_sweep_evaluates_each_point_once_per_prime(monkeypatch):
    """Over a proven sweep, the kernel evaluates exactly the distinct
    (prime, series, point mod p**2) requests: C2.2's filter, the branch
    statements, T2.1 and C2.1 share their points' values."""
    requests = set()
    sum_s, sum_t, poly_sum = theorems.sum_S, theorems.sum_T, \
        theorems._poly_sum

    def asked_s(m, ctx):
        requests.add((ctx.p, "s", pow(m, -1, ctx.p2)))
        return sum_s(m, ctx)

    def asked_t(x, ctx):
        requests.add((ctx.p, "t", x % ctx.p2))
        return sum_t(x, ctx)

    def asked_raw(poly, y):
        requests.add((math.isqrt(poly.mod), "s", y % poly.mod))
        return poly_sum(poly, y)

    monkeypatch.setattr(theorems, "sum_S", asked_s)
    monkeypatch.setattr(theorems, "sum_T", asked_t)
    monkeypatch.setattr(theorems, "_poly_sum", asked_raw)
    binom.central_poly.cache_clear()  # no memo left by an earlier test
    binom.t_poly.cache_clear()
    count = count_column_sums(monkeypatch)
    list(verify_range(PROVEN_IDS, 5, 300))
    assert count[0] == len(requests) > 0
    assert {kind for _, kind, _ in requests} == {"s", "t"}


def _consistency_legs(seen: list) -> dict:
    """(p, m) -> the mod-p, mod-p**2 and cubic legs of the consistency
    checks, for every prime p < 300 and sum argument m, with the values
    that a perturbed route put into `seen` at that (p, m)."""
    theorems.t_roots.cache_clear()
    out = {}
    for p in primes_in(5, 299):
        ctx = PrimeCtx(p)
        for m in sorted({m for _, m in SUM_ARGUMENTS}):
            if m % p:
                seen.clear()
                tri = consistency_triangle(m, ctx)
                legs = (tri.get("mod_p"), tri.get("mod_p2"),
                        shifted_cubic_leg(m, ctx))
                out[p, m] = legs, tuple(seen)
    return out


def test_consistency_checks_can_fail(monkeypatch):
    """Non-vacuity of the consistency checks on p < 300.  With 1 added to
    S(m) where t_roots reads it, every leg that is not skipped fails.
    With 1 added to one route alone -- legendre_eval (the mod-p leg),
    sum_T (the mod-p**2 leg) or power_sum (the cubic leg) -- that route's
    legs fail and the others are unchanged, except where every value v
    the route gave has (v + 1)**2 = v**2, i.e. v = -1/2 mod the leg's
    modulus."""
    seen: list = []

    def plus_one(fn):
        def perturbed(*args):
            value = fn(*args)
            seen.append(value)
            return value + 1

        return perturbed

    plain = _consistency_legs(seen)
    for i in range(3):
        assert {legs[i] for legs, _ in plain.values()} <= {True, None}
        assert any(legs[i] for legs, _ in plain.values()), i

    with monkeypatch.context() as mp:
        mp.setattr(theorems, "sum_S", plus_one(theorems.sum_S))
        shifted = _consistency_legs(seen)
    for key, (legs, _) in plain.items():
        assert shifted[key][0] == tuple(
            None if leg is None else False for leg in legs), key

    for i, name, square in ((0, "legendre_eval", False),
                            (1, "sum_T", True), (2, "power_sum", False)):
        with monkeypatch.context() as mp:
            mp.setattr(theorems, name, plus_one(getattr(theorems, name)))
            shifted = _consistency_legs(seen)
        failed = 0
        for key, (legs, _) in plain.items():
            got, values = shifted[key]
            assert got[:i] + got[i + 1:] == legs[:i] + legs[i + 1:], \
                (name, key)
            if legs[i] is None:
                assert got[i] is None, (name, key)
            elif got[i] is False:
                failed += 1
            else:
                mod = key[0] ** 2 if square else key[0]
                assert values and all((2 * v + 1) % mod == 0
                                      for v in values), (name, key)
        assert failed > 0, name


def test_every_claim_can_fail(monkeypatch):
    """Non-vacuity: with 1 added to the right side of every claim, every
    record that checks a congruence fails, and each (statement, branch)
    that passes unperturbed on 5..300 is among the failures."""
    passing = {(r.theorem, r.branch) for r in verify_range(ALL_IDS, 5, 300)
               if r.modulus is not None and r.passed}

    def off_by_one(claims):
        def perturbed(spec, ctx, seed):
            return [c._replace(rhs=c.rhs + 1)
                    for c in claims(spec, ctx, seed)]

        return perturbed

    for tid, spec in list(REGISTRY.items()):
        monkeypatch.setitem(REGISTRY, tid,
                            spec._replace(claims=off_by_one(spec.claims)))
    failing = set()
    for r in verify_range(ALL_IDS, 5, 300):
        if r.modulus is not None:
            assert not r.passed, r
            failing.add((r.theorem, r.branch))
    assert {tid for tid, _ in passing} == set(ALL_IDS)
    assert passing <= failing
