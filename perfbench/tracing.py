"""Per-layer tracing for the benchmark, done entirely from outside the library.

`Tracer.installed()` rebinds the public names the engine calls in the
`supercong.theorems`, `supercong.binom` and `supercong.cli` namespaces to
wrappers that record a span per call: name, start, end and the span that
caused it, kept in memory.  `PrimeCtx.__hash__` is replaced by a counting
wrapper, since every lookup in a module `lru_cache` keyed on a prime hashes
one.  Everything is restored on exit.

A layer's self time is its spans' total duration minus the part covered by
its child spans.  A name that the library no longer defines is not wrapped
and is reported as absent (value 0), not as an error.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (metric prefix, module, attribute): spans recorded around each call.
SPANS = (
    ("arith.sqrt_mod_p", "theorems", "sqrt_mod_p"),
    ("arith.sqrt_mod_p2", "theorems", "sqrt_mod_p2"),
    ("binom.series", "binom", "_series"),
    ("binom.sum_S", "theorems", "sum_S"),
    ("binom.sum_T", "theorems", "sum_T"),
    ("legendre.legendre_eval", "theorems", "legendre_eval"),
    ("curves.power_sum", "theorems", "power_sum"),
    ("curves.char_sum", "theorems", "char_sum"),
    ("quadform.cornacchia", "theorems", "cornacchia"),
    ("quadform.represent", "theorems", "represent"),
    ("theorems.poly_sum", "theorems", "_poly_sum"),
    ("theorems.verify", "theorems", "verify"),
)

# (metric prefix, module, attribute): module caches read through cache_info().
CACHES = (
    ("cache.binom._series", "binom", "_series"),
    ("cache.binom._sum_s_cached", "binom", "_sum_s_cached"),
    ("cache.legendre._fact_tables", "legendre", "_fact_tables"),
    ("cache.curves._chi_table", "curves", "_chi_table"),
)

STREAM = "theorems.verify_range"  # one span per record pulled by the CLI
RENDER = "cli.render"  # cmd_verify, whose child spans are the stream pulls


def _modules() -> dict:
    from supercong import arith, binom, cli, curves, legendre, quadform, theorems

    return {"arith": arith, "binom": binom, "cli": cli, "curves": curves,
            "legendre": legendre, "quadform": quadform, "theorems": theorems}


def clear_caches() -> None:
    """Empty every module cache, so that a run starts as a fresh process."""
    mods = _modules()
    for _, mod, attr in CACHES:
        fn = getattr(mods[mod], attr, None)
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


def _verify_id(spec, *args, **kwargs) -> str:
    return spec if isinstance(spec, str) else spec.id


class Tracer:
    """Spans and counts from one traced run of the library, in this process."""

    def __init__(self) -> None:
        # (name, tag, start, end, parent index); -1 marks a root span.
        self.spans: list = []
        self._stack: list[int] = []
        self.absent: list[str] = []
        self.hash_calls = 0
        self._caches: dict[str, object] = {}

    def _wrap(self, name: str, fn, tag=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, tag and tag(*args, **kwargs), start,
                                end, parent)

        return traced

    def _wrap_stream(self, fn):
        pull = self._wrap(STREAM, next)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            records = iter(fn(*args, **kwargs))
            while True:
                try:
                    record = pull(records)
                except StopIteration:
                    return
                yield record

        return traced

    @contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        mods = _modules()
        saved = []
        counter = itertools.count()

        def patch(obj, attr, value):
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, value)

        try:
            for name, mod, attr in CACHES:
                fn = getattr(mods[mod], attr, None)
                if hasattr(fn, "cache_info"):
                    self._caches[name] = fn
            for name, mod, attr in SPANS:
                fn = getattr(mods[mod], attr, None)
                if fn is None:
                    self.absent.append(name)
                    continue
                tag = _verify_id if name == "theorems.verify" else None
                patch(mods[mod], attr, self._wrap(name, fn, tag))
            cli = mods["cli"]
            patch(cli, "verify_range", self._wrap_stream(cli.verify_range))
            patch(cli, "cmd_verify", self._wrap(RENDER, cli.cmd_verify))
            ctx_type = mods["arith"].PrimeCtx
            hash_fn = ctx_type.__hash__

            def counted_hash(ctx):
                next(counter)
                return hash_fn(ctx)

            patch(ctx_type, "__hash__", counted_hash)
            yield self
        finally:
            self.hash_calls = next(counter)
            for obj, attr, value in reversed(saved):
                setattr(obj, attr, value)

    def metrics(self, registry_ids) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        child = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        by_id: dict[str, float] = defaultdict(float)
        for i, (name, tag, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if tag is not None:
                by_id[tag] += end - start
        out: dict[str, tuple[float, str]] = {}
        for name, _, _ in SPANS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for tid in registry_ids:
            out[f"theorems.verify.{tid}.s"] = (by_id[tid], "s")
        out[f"{STREAM}.self_s"] = (self_s[STREAM], "s")
        out[f"{RENDER}.self_s"] = (self_s[RENDER], "s")
        out["arith.PrimeCtx.hash_calls"] = (self.hash_calls, "count")
        info = {name: fn.cache_info() for name, fn in self._caches.items()}
        for name, _, _ in CACHES:
            ci = info.get(name)
            out[f"{name}.hits"] = (ci.hits if ci else 0, "count")
            out[f"{name}.misses"] = (ci.misses if ci else 0, "count")
            out[f"{name}.currsize"] = (ci.currsize if ci else 0, "count")
        series = info.get("cache.binom._series")
        out["binom.series.cached_primes"] = (
            series.currsize if series else 0, "count")
        sums = info.get("cache.binom._sum_s_cached")
        lookups = sums.hits + sums.misses if sums else 0
        out["binom.sum_S.cache_hit_ratio"] = (
            sums.hits / lookups if lookups else 0.0, "ratio")
        return out
