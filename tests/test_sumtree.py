"""The remainder tree of supercong.sumtree against the packed series of
binom, and the engine's use of it: the tables a dense conjecture sweep
reads are the values each prime's packed series gives, the records are
the same by either route, and the tables are held one window at a time.
"""

import itertools
import tracemalloc

import pytest

from supercong import binom, theorems
from supercong.arith import PrimeCtx, primes_in
from supercong.binom import sum_S
from supercong.sumtree import window_sums
from supercong.theorems import (
    CONJECTURE_IDS,
    REGISTRY,
    SUM_ARGUMENTS,
    verify_range,
)

#: every sum argument of a proven statement and of a conjecture, with
#: m = 256 (RV256's) among them and the negative m of T3.2, T3.3, T3.4,
#: T3.10 and T3.11
POINTS = tuple(sorted({m for _, m in SUM_ARGUMENTS}
                      | {REGISTRY[tid].m for tid in CONJECTURE_IDS}))


def _windows(primes, sizes):
    """The primes cut into consecutive windows of the given sizes, cycled."""
    it = iter(primes)
    windows = []
    for size in itertools.cycle(sizes):
        window = list(itertools.islice(it, size))
        if not window:
            return windows
        windows.append(window)


@pytest.mark.parametrize("lo, hi, sizes", [
    (5, 1500, (1, 5, 16, 2, 9)),   # from the first prime, many boundaries
    (5, 1500, (64,)),              # windows as long as the engine's
    (3001, 3500, (7, 30)),         # a high start: a long first prefix
    (11, 11, (1,)),                # one prime, which divides some m
])
def test_tree_matches_packed_series(lo, hi, sizes):
    """At every prime and every point, the tree's S(m) is the packed
    series' (a PrimeCtx with no tables), on both sides of every window
    boundary; where p divides m the tables hold no value."""
    primes = primes_in(lo, hi)
    windows = _windows(primes, sizes)
    assert [p for w in windows for p in w] == primes
    assert {-12288, -82944, theorems._M_T34, theorems._M_T310, 256} \
        <= set(POINTS)
    tables = [t for ts in window_sums(windows, POINTS) for t in ts]
    assert len(tables) == len(primes)
    for p, table in zip(primes, tables):
        ctx = PrimeCtx(p)
        assert table == {m: sum_S(m, ctx) for m in POINTS if m % p}, p
    if lo <= 11:  # 5, 7 and 11 divide some of the points
        assert all(len(tables[primes.index(p)]) < len(POINTS)
                   for p in (5, 7, 11) if p >= lo)


def test_sums_leave_prime_ctx_equality_alone():
    """The tables ride on PrimeCtx like its block: not in equality or
    hashing, and read by sum_S ahead of the packed series."""
    ctx = PrimeCtx(13, sums={81: 5})
    assert ctx == PrimeCtx(13) and hash(ctx) == hash(PrimeCtx(13))
    assert PrimeCtx(13).sums == {}
    assert sum_S(81, ctx) == 5
    with pytest.raises(ValueError):
        sum_S(13, PrimeCtx(13, sums={13: 5}))


def _without(records, tid):
    return [r for r in records if r.theorem != tid]


@pytest.mark.parametrize("workers", [1, 2])
def test_routes_agree_through_the_engine(workers, monkeypatch):
    """T2.1 reads the s series at points that depend on p, so a sweep that
    holds it packs every prime's series and reads S from there; without
    it the sweep reads S from the tree.  Both give the same records,
    with one worker and with two."""
    ids = CONJECTURE_IDS + ("T2.1",)
    packed = _without(verify_range(ids, 5, 1500, workers=workers), "T2.1")
    assert theorems._tabulated(ids, primes_in(5, 1500)) == ()
    assert theorems._tabulated(CONJECTURE_IDS, primes_in(5, 1500))
    if workers == 1:  # in this process: no prime may pack its series
        binom.central_poly.cache_clear()

        def build(ctx):
            raise AssertionError(f"series packed at p = {ctx.p}")

        monkeypatch.setattr(binom, "central_poly", build)
    tree = list(verify_range(CONJECTURE_IDS, 5, 1500, workers=workers))
    assert tree == packed
    assert len(tree) > 2000


def test_dense_rule():
    """The tables run on ranges of at least 32 primes where every
    statement reads S at fixed points, at every point those statements
    read, and not otherwise."""
    dense, sparse = primes_in(5, 200), primes_in(19900, 20100)
    assert len(dense) >= theorems._DENSE > len(sparse)
    assert theorems._tabulated(("Conj-A3", "T3.11", "C2.3"), dense) == (
        -3969, -144, 81, 648)
    assert theorems._tabulated(("C2.2",), dense) == theorems._C22_TEST_SET
    assert theorems._tabulated(CONJECTURE_IDS, sparse) == ()
    assert theorems._tabulated(("C2.3",), dense) == ()
    for tid in ("T2.1", "C2.1"):
        assert theorems._tabulated(("RV256", tid), dense) == ()


def _peak_of_tables(lo, hi):
    """Peak traced memory while the engine's tables for all-conjectures
    over [lo, hi] are produced and dropped block by block."""
    blocks = theorems._blocks(primes_in(lo, hi), 1)
    tracemalloc.start()
    try:
        for _ in theorems._block_sums(CONJECTURE_IDS, blocks):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tables_memory_does_not_grow_with_the_range():
    """Four times the primes, ending at the same prime, and the peak
    memory of the tables stays within half as much again: one window's
    trees are held at a time.  (Held all at once, they take about five
    times as much.)"""
    assert _peak_of_tables(5, 4000) < 1.5 * _peak_of_tables(3000, 4000)
