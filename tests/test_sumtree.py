"""The tables of supercong.sumtree against the packed series of binom,
and the engine's use of them: the tables of S and of T that a dense
sweep reads are the values each prime's packed series gives, the records
are the same by either route, and the tables are held one window at a
time.
"""

import itertools
import multiprocessing
import tracemalloc

import pytest

from supercong import binom, theorems
from supercong.arith import PrimeCtx, primes_in
from supercong.binom import _S, _T, sum_S, sum_T
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

#: T at 1/128, C2.3's point, and at 1/65, 1/-4032 and 1/4160, three of
#: the points (1 -+ t)/128 at which C2.1's S(m) = T**2 holds with t rational
T_POINTS = (128, 65, -4032, 4160)

#: each series' record, points, packed reader of its sum at 1/n, and the
#: primes that divide one of its points
SERIES = (
    (_S, POINTS, sum_S, (5, 7, 11)),
    (_T, T_POINTS, lambda n, ctx: sum_T(pow(n, -1, ctx.p2), ctx), (5, 7)),
)


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
    (11, 11, (1,)),                # one prime, which divides some m of s
    (100000, 100300, (7,)),        # a first prefix of 50 000 (s) or
])                                 # 75 000 (t) terms
def test_tree_matches_packed_series(lo, hi, sizes):
    """For each series, at every prime and every point 1/n, the tables'
    sum is the packed series' (a PrimeCtx with no tables), on both sides
    of every window boundary; where p divides n the tables hold no
    value."""
    primes = primes_in(lo, hi)
    windows = _windows(primes, sizes)
    assert [p for w in windows for p in w] == primes
    assert {-12288, -82944, theorems._M_T34, theorems._M_T310, 256} \
        <= set(POINTS)
    for series, points, packed, divisors in SERIES:
        tables = list(window_sums(windows, series, points))
        assert len(tables) == len(primes)
        for p, table in zip(primes, tables):
            ctx = PrimeCtx(p)
            assert table == {n: packed(n, ctx) for n in points if n % p}, \
                (series.name, p)
        if lo <= 11:  # these primes divide some of the points
            assert all(len(tables[primes.index(p)]) < len(points)
                       for p in divisors if p >= lo)


def test_sums_leave_prime_ctx_equality_alone():
    """The tables ride on PrimeCtx like its block: not in equality or
    hashing, and read by sum_S and sum_T ahead of the packed series, S(m)
    at its series' name and m, T(x) at its name and x mod p**2, so that
    neither reads the other's values."""
    ctx = PrimeCtx(13, sums={("s", 81): 5, ("t", 81): 7})
    assert ctx == PrimeCtx(13) and hash(ctx) == hash(PrimeCtx(13))
    assert PrimeCtx(13).sums == {}
    assert (_S.name, _T.name) == ("s", "t")
    assert sum_S(81, ctx) == 5
    assert sum_T(81, ctx) == sum_T(81 + 169, ctx) == 7
    assert sum_T(82, ctx) == sum_T(82, PrimeCtx(13))
    with pytest.raises(ValueError):
        sum_S(13, PrimeCtx(13, sums={("s", 13): 5}))


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
    (which starts workers for the packed route only)."""
    ids = CONJECTURE_IDS + ("T2.1",)
    packed = _without(verify_range(ids, 5, 1500, workers=workers), "T2.1")
    assert theorems._tabulated(ids, primes_in(5, 1500)) == {
        _S: None, _T: None}
    assert theorems._tabulated(CONJECTURE_IDS, primes_in(5, 1500)) == {
        _S: tuple(sorted({REGISTRY[tid].m for tid in CONJECTURE_IDS}))}
    _no_series_packed(monkeypatch)
    tree = list(verify_range(CONJECTURE_IDS, 5, 1500, workers=workers))
    assert tree == packed
    assert len(tree) > 2000


@pytest.mark.parametrize("workers", [1, 2])
def test_tables_and_t_series_in_one_sweep(workers, monkeypatch):
    """T3.1 and T3.5 read T at points that depend on p, so each block
    still builds t's series, which C2.3 then reads too, beside the
    conjectures' S at fixed m, which sumtree gives: a sweep of both reads
    S from the tables and T from the series, and its records are those
    of the packed route (the same statements and T2.1, less T2.1's
    records).  On two workers the series are built by two worker
    processes, and each block's tables ride to one on the PrimeCtx of its
    primes (forked workers inherit the raising central_poly)."""
    ids = CONJECTURE_IDS + ("C2.3", "T3.1", "T3.5")
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    packed = _without(verify_range(ids + ("T2.1",), 5, 1500,
                                   workers=workers), "T2.1")
    points = theorems._tabulated(ids, primes_in(5, 1500))
    assert points[_S] and points[_T] is None
    _no_series_packed(monkeypatch)
    both = list(verify_range(ids, 5, 1500, workers=workers))
    assert both == packed
    assert {"C2.3", "T3.1", "T3.5"} <= {r.theorem for r in both}
    assert len(both) > 3000


def _no_worker(*args, **kwargs):
    """Stands in for multiprocessing.Process where no worker may start."""
    raise AssertionError("a worker started")


def test_a_tabulated_sweep_starts_no_worker(monkeypatch):
    """The tables are computed in the reading process, so a sweep whose
    only O(p) work they are runs there whatever `workers` asks: on two
    CPUs and asked for two workers it starts no worker process, and its
    records are the one-worker sweep's.  A tabulated sweep that also
    packs t's series (T3.1 reads T at points that depend on p), and an
    untabulated one, still start workers."""
    serial = list(verify_range(CONJECTURE_IDS, 5, 1500, workers=1))
    monkeypatch.setattr(multiprocessing, "Process", _no_worker)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    assert list(verify_range(CONJECTURE_IDS, 5, 1500, workers=2)) == serial
    for ids in (CONJECTURE_IDS + ("T3.1",), ("T2.1",)):
        with pytest.raises(AssertionError, match="a worker started"):
            next(verify_range(ids, 5, 1500, workers=2))


def test_c23_reads_t_from_the_tables(monkeypatch):
    """C2.3 reads T only at 1/128, so over a dense range the tables serve
    it: asked for two workers on two CPUs, a C2.3 sweep starts no worker
    and builds no t block, and its records are the packed route's (C2.3
    with T2.1, which reads T at points that depend on p, less T2.1's)."""
    packed = _without(verify_range(("C2.3", "T2.1"), 5, 1500), "T2.1")
    assert theorems._tabulated(("C2.3",), primes_in(5, 1500)) == {
        _T: (128,)}

    def block(series, primes):
        raise AssertionError(f"{series.name} block built for {primes}")

    binom.t_poly.cache_clear()
    binom._block.cache_clear()
    monkeypatch.setattr(multiprocessing, "Process", _no_worker)
    monkeypatch.setattr(binom, "_block", block)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    tree = list(verify_range(("C2.3",), 5, 1500, workers=2))
    assert tree == packed
    assert len(tree) == len(primes_in(5, 1500))


def test_s_only_statements_build_no_series(monkeypatch):
    """The rule that keeps a tabulated sweep in one process rests on the
    declarations: over the tables, the statements that read each series
    only at fixed points -- S at fixed m, and C2.3's T at 1/128 -- pack no
    series, s or t, while every other statement packs one."""
    fixed = tuple(tid for tid, spec in REGISTRY.items()
                  if all(n is not None for _, n in spec.reads))
    assert set(CONJECTURE_IDS) | {"C2.3"} < set(fixed)
    points = theorems._tabulated(fixed, primes_in(5, 300))
    assert None not in points.values() and points[_T] == (128,)
    for tid in set(REGISTRY) - set(fixed):
        binom.t_poly.cache_clear()
        binom.central_poly.cache_clear()
        list(verify_range((tid,), 5, 300))
        assert (binom.t_poly.cache_info().misses
                + binom.central_poly.cache_info().misses), tid
    expected = list(verify_range(fixed + ("T2.1",), 5, 300))
    _no_series_packed(monkeypatch)
    monkeypatch.setattr(binom, "t_poly", binom.central_poly)  # raises too
    assert list(verify_range(fixed, 5, 300)) == _without(expected, "T2.1")


def test_each_statement_reads_what_it_declares(monkeypatch):
    """A wrong declaration changes where a sweep's work runs, never a
    record (sum_S and sum_T fall back to the packed series), so each is
    held exact here.  Over 5..400, a statement reads a series iff it
    declares it.  One that declares S only at fixed m reads S at exactly
    those m and never the raw s series; one that declares S at a point
    that depends on p reads the raw series, or S at more distinct m than
    there are primes.  One that declares T only at fixed 1/n reads T, at
    each prime where it reads T, at 1/n mod p**2 for exactly those n."""
    primes = primes_in(5, 400)
    log = []

    def spy(name, fn):
        def call(x, arg):
            log.append((name, x, getattr(arg, "p", None)))
            return fn(x, arg)
        return call

    for name in ("sum_S", "sum_T", "_poly_sum"):
        monkeypatch.setattr(theorems, name, spy(name, getattr(theorems, name)))
    for tid, spec in REGISTRY.items():
        log.clear()
        for p in primes:
            verify(spec, p)
        ms = {x for name, x, _ in log if name == "sum_S"}
        xs = {(p, x % (p * p)) for name, x, p in log if name == "sum_T"}
        names = {name for name, _, _ in log}
        s_points = {n for series, n in spec.reads if series is _S}
        t_points = {n for series, n in spec.reads if series is _T}
        assert bool(s_points) == bool(names & {"sum_S", "_poly_sum"}), tid
        if None in s_points:
            assert "_poly_sum" in names or len(ms) > len(primes), tid
        else:
            assert ms == s_points, tid
            assert "_poly_sum" not in names, tid
        assert bool(t_points) == ("sum_T" in names), tid
        if t_points and None not in t_points:
            assert xs == {(p, pow(n, -1, p * p))
                          for p, _ in xs for n in t_points}, tid


def test_dense_rule():
    """For each series, the same rule: the tables serve it on ranges of at
    least 32 primes where no statement reads it at a point that depends
    on p, at every point 1/n those statements declare for it, and not
    otherwise (None: each prime packs it)."""
    dense, sparse = primes_in(5, 200), primes_in(19900, 20100)
    assert len(dense) >= theorems._DENSE > len(sparse)
    assert theorems._tabulated(("Conj-A3", "T3.11", "C2.3"), dense) == {
        _S: (-3969, -144, 81, 648), _T: (128,)}
    assert theorems._tabulated(("C2.2",), dense) == {
        _S: theorems._C22_TEST_SET}
    assert theorems._tabulated(CONJECTURE_IDS, sparse) == {_S: None}
    assert theorems._tabulated(("C2.3",), dense) == {_T: (128,)}
    assert theorems._tabulated(("C2.3",), sparse) == {_T: None}
    assert theorems._tabulated(("C2.3", "T3.1"), dense) == {
        _S: (81,), _T: None}
    for tid in ("T2.1", "C2.1"):
        assert theorems._tabulated(("RV256", tid), dense) == {
            _S: None, _T: None}


def _peak_of_tables(lo, hi):
    """Peak traced memory while the engine's tables for all-conjectures
    over [lo, hi] are produced and dropped prime by prime."""
    primes = primes_in(lo, hi)
    points = theorems._tabulated(CONJECTURE_IDS, primes)
    assert points[_S]
    tracemalloc.start()
    try:
        for _ in theorems._prime_sums(points, primes):
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
