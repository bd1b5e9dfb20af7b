"""The tables of supercong.sumtree against the packed series of binom,
and the engine's use of them: the tables a dense conjecture sweep reads
are the values each prime's packed series gives, the records are the
same by either route, and the tables are held one window at a time.
"""

import itertools
import multiprocessing
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
    verify,
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
    (100000, 100300, (7,)),        # a first prefix of 50 000 terms
])
def test_tree_matches_packed_series(lo, hi, sizes):
    """At every prime and every point, the tables' S(m) is the packed
    series' (a PrimeCtx with no tables), on both sides of every window
    boundary; where p divides m the tables hold no value."""
    primes = primes_in(lo, hi)
    windows = _windows(primes, sizes)
    assert [p for w in windows for p in w] == primes
    assert {-12288, -82944, theorems._M_T34, theorems._M_T310, 256} \
        <= set(POINTS)
    tables = list(window_sums(windows, POINTS))
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


def _no_series_packed(monkeypatch):
    """Make packing any prime's s series in this process an error."""
    binom.central_poly.cache_clear()

    def build(ctx):
        raise AssertionError(f"series packed at p = {ctx.p}")

    monkeypatch.setattr(binom, "central_poly", build)


@pytest.mark.parametrize("workers", [1, 2])
def test_routes_agree_through_the_engine(workers, monkeypatch):
    """T2.1 reads the s series at points that depend on p, so a sweep that
    holds it packs every prime's series and reads S from there; without
    it the sweep reads S from the tables, in this process, and packs no
    series.  Both give the same records, asked for one worker or two
    (which pools the packed route only)."""
    ids = CONJECTURE_IDS + ("T2.1",)
    packed = _without(verify_range(ids, 5, 1500, workers=workers), "T2.1")
    assert theorems._tabulated(ids, primes_in(5, 1500)) == ()
    assert theorems._tabulated(CONJECTURE_IDS, primes_in(5, 1500))
    _no_series_packed(monkeypatch)
    tree = list(verify_range(CONJECTURE_IDS, 5, 1500, workers=workers))
    assert tree == packed
    assert len(tree) > 2000


@pytest.mark.parametrize("workers", [1, 2])
def test_tables_and_t_series_in_one_sweep(workers, monkeypatch):
    """C2.3, T3.1 and T3.5 read T, whose series each block still builds,
    beside the conjectures' S at fixed m, which sumtree gives: a sweep
    of both reads S from the tables and T from the series, and its
    records are those of the packed route (the same statements and T2.1,
    less T2.1's records).  On two workers the series are built in a pool
    of two, and each block's tables ride to it on the PrimeCtx of its
    primes (forked workers inherit the raising central_poly)."""
    ids = CONJECTURE_IDS + ("C2.3", "T3.1", "T3.5")
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    packed = _without(verify_range(ids + ("T2.1",), 5, 1500,
                                   workers=workers), "T2.1")
    assert theorems._tabulated(ids, primes_in(5, 1500))
    _no_series_packed(monkeypatch)
    both = list(verify_range(ids, 5, 1500, workers=workers))
    assert both == packed
    assert {"C2.3", "T3.1", "T3.5"} <= {r.theorem for r in both}
    assert len(both) > 3000


def test_a_tabulated_sweep_starts_no_pool(monkeypatch):
    """The tables are computed in the reading process, so a sweep whose
    only O(p) work they are runs there whatever `workers` asks: on two
    CPUs and asked for two workers it starts no pool, and its records
    are the one-worker sweep's.  A tabulated sweep that also reads T,
    and an untabulated one, still ask for one."""
    serial = list(verify_range(CONJECTURE_IDS, 5, 1500, workers=1))

    def pool(processes, *initializer):
        raise AssertionError(f"a pool of {processes} started")

    monkeypatch.setattr(multiprocessing, "Pool", pool)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    assert list(verify_range(CONJECTURE_IDS, 5, 1500, workers=2)) == serial
    for ids in (CONJECTURE_IDS + ("T3.1",), ("C2.3",)):
        with pytest.raises(AssertionError, match="a pool of 2 started"):
            next(verify_range(ids, 5, 1500, workers=2))


def test_s_only_statements_build_no_series(monkeypatch):
    """The rule that keeps a tabulated sweep in one process rests on the
    declarations: over the tables, the statements that declare S at fixed
    m and not T pack no series, s or t, while every other statement packs
    one."""
    s_only = tuple(tid for tid, spec in REGISTRY.items()
                   if spec.reads is not None and "T" not in spec.reads)
    assert set(CONJECTURE_IDS) < set(s_only)
    assert theorems._tabulated(s_only, primes_in(5, 300))
    for tid in set(REGISTRY) - set(s_only):
        binom.t_poly.cache_clear()
        binom.central_poly.cache_clear()
        list(verify_range((tid,), 5, 300))
        assert (binom.t_poly.cache_info().misses
                + binom.central_poly.cache_info().misses), tid
    expected = list(verify_range(s_only + ("T2.1",), 5, 300))
    _no_series_packed(monkeypatch)
    monkeypatch.setattr(binom, "t_poly", binom.central_poly)  # raises too
    assert list(verify_range(s_only, 5, 300)) == _without(expected, "T2.1")


def test_each_statement_reads_what_it_declares(monkeypatch):
    """A wrong declaration changes where a sweep's work runs, never a
    record (sum_S falls back to the packed series), so each is held exact
    here.  Over 5..400, a statement that declares a tuple reads S at
    exactly its declared m, reads T iff it declares "T", and never reads
    the raw s series; one that declares None reads the raw series, or S
    at more distinct m than there are primes."""
    primes = primes_in(5, 400)
    log = []

    def spy(name, fn):
        def call(x, *rest):
            log.append((name, x))
            return fn(x, *rest)
        return call

    for name in ("sum_S", "sum_T", "_poly_sum"):
        monkeypatch.setattr(theorems, name, spy(name, getattr(theorems, name)))
    for tid, spec in REGISTRY.items():
        log.clear()
        for p in primes:
            verify(spec, p)
        ms = {x for name, x in log if name == "sum_S"}
        names = {name for name, _ in log}
        if spec.reads is None:
            assert "_poly_sum" in names or len(ms) > len(primes), tid
        else:
            assert ms == set(spec.reads) - {"T"}, tid
            assert ("sum_T" in names) == ("T" in spec.reads), tid
            assert "_poly_sum" not in names, tid


def test_dense_rule():
    """The tables run on ranges of at least 32 primes where no statement
    declares reads that depend on p, at every m those statements declare,
    and not otherwise."""
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
    over [lo, hi] are produced and dropped prime by prime."""
    primes = primes_in(lo, hi)
    ms = theorems._tabulated(CONJECTURE_IDS, primes)
    assert ms
    tracemalloc.start()
    try:
        for _ in theorems._prime_sums(ms, primes):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tables_memory_does_not_grow_with_the_range():
    """Four times the primes, ending at the same prime, and the peak
    memory of the tables stays within half as much again: one window's
    leaves are held at a time, and one carried prefix.  (Held all at once, they take about five
    times as much.)"""
    assert _peak_of_tables(5, 4000) < 1.5 * _peak_of_tables(3000, 4000)
