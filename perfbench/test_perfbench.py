"""Tests of the benchmark itself: its gate can fail, its metric schema is
pinned, and its traced counts repeat exactly.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace

import pytest

import consistency
import run
import tracing

sys.path.insert(0, str(run.SRC))

from supercong import arith, theorems  # noqa: E402

E2E = [("wall_s", "s"), ("primes_per_s", "1/s"), ("cpu_s", "s"),
       ("peak_rss_mb", "MB"), ("setup_s", "s")]

# Per-layer names that later changes are predicted to move; the rest of the
# declared schema is checked against what the tracer produces.
LAYER_NAMES = [
    "arith.PrimeCtx.hash_calls", "arith.sqrt_mod_p.calls",
    "arith.sqrt_mod_p2.calls", "arith.sqrt_mod_p2.self_s",
    "binom.series.calls", "binom.series.self_s", "binom.series.cached_primes",
    "binom.sum_S.calls", "binom.sum_S.self_s", "binom.sum_S.cache_hit_ratio",
    "binom.sum_T.calls", "binom.sum_T.self_s",
    "legendre.legendre_eval.calls", "legendre.legendre_eval.self_s",
    "curves.power_sum.calls", "curves.power_sum.self_s",
    "curves.char_sum.calls", "curves.char_sum.self_s",
    "quadform.cornacchia.calls", "quadform.cornacchia.self_s",
    "quadform.represent.calls", "quadform.represent.self_s",
    "theorems.verify.calls", "theorems.verify.self_s",
    "theorems.verify.T2.1.s", "theorems.verify.Conj-A28.s",
    "cli.render.self_s", "cli.bytes_out", "trace.overhead_s",
]

TINY_SWEEP = run.Workload("proven-sweep", 5, 120, "all")
TINY_CONSISTENCY = run.Workload("consistency", 5, 100)

GOOD = run.Outcome(0, "a" * 64, 10, 0, (10, 0))
PIN = {"seed": 0, "sha256": "a" * 64, "records": 10}


def _spec() -> dict:
    return json.loads(run.SPEC.read_text())


def test_end_to_end_schema_is_pinned():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == E2E
    assert run.declared_metrics(spec, traced=False) == run.E2E
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_per_layer_schema_matches_the_tracer():
    declared = run.declared_metrics(_spec(), traced=True)
    assert set(LAYER_NAMES) <= set(declared)
    assert {f"theorems.verify.{tid}.s" for tid in theorems.ALL_IDS} <= set(
        declared)
    for workload in (TINY_SWEEP, TINY_CONSISTENCY):
        produced = run.trace(workload, 0, {}).metrics
        assert {k: unit for k, (_, unit) in produced.items()} == declared


def test_gate_accepts_the_pinned_stream():
    assert run.judge(GOOD, PIN) == (10, 0, [])
    assert run.judge(GOOD, None, reference=GOOD.sha256) == (10, 0, [])


def test_wrong_pinned_hash_fails_the_stream():
    attempted, failed, problems = run.judge(GOOD, dict(PIN, sha256="b" * 64))
    assert (attempted, failed) == (10, 10) and problems


@pytest.mark.parametrize("doctored", [
    replace(GOOD, bad=1, summary=(10, 1)),  # one candidate, reported
    replace(GOOD, bad=1),  # a bad record the summary does not admit
    replace(GOOD, summary=(10, 1)),  # a summary failure the stream lacks
    replace(GOOD, returncode=1),
    replace(GOOD, summary=None),
    replace(GOOD, records=9, summary=(9, 0)),
])
def test_doctored_failed_share_inputs_fail(doctored):
    attempted, failed, _ = run.judge(doctored, PIN)
    assert attempted == 10 and failed > 0


def test_stream_from_a_different_run_fails():
    _, failed, problems = run.judge(GOOD, None, reference="c" * 64)
    assert failed == 10 and problems


def test_stream_check_counts_failed_records():
    check = run.StreamCheck()
    for rec in ({"record": "header"}, {"pass": True}, {"pass": False}):
        check.feed(json.dumps(rec).encode() + b"\n")
    check.feed(b"not json\n")
    out = check.outcome(0, "checked 3 records: 0 failures, "
                           "2 counterexample-candidates\n")
    assert (out.records, out.bad, out.summary) == (3, 2, (3, 2))
    assert run.judge(out, None)[1] == 2


def test_pins_apply_only_to_their_seed():
    pins = {"a": {"seed": 0, "sha256": "", "records": 1},
            "b": {"seed": None, "sha256": "", "records": 1}}
    assert run.pin_for(pins, "a", 0) and not run.pin_for(pins, "a", 1)
    assert run.pin_for(pins, "b", 7) and not run.pin_for(pins, "c", 0)


def test_wrong_pin_fails_a_whole_run(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "consistency", TINY_CONSISTENCY)
    monkeypatch.setattr(run, "load_pins", lambda: {"consistency": {
        "seed": None, "sha256": "0" * 64, "records": 1}})
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "consistency", "--seconds", "0"])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert set(result["metrics"]) == set(run.E2E)


def test_traced_counts_repeat_exactly():
    def counts(workload):
        metrics = run.trace(workload, 3, {}).metrics
        return {k: v for k, (v, unit) in metrics.items() if unit != "s"}

    for workload in (TINY_SWEEP, TINY_CONSISTENCY):
        first = counts(workload)
        assert first == counts(workload)
        assert first["arith.PrimeCtx.hash_calls"] > 0
        assert first["binom.series.calls"] > 0


def test_tracer_restores_the_library():
    before = (theorems.sum_S, theorems.verify, arith.PrimeCtx.__hash__)
    with tracing.Tracer().installed():
        assert theorems.sum_S is not before[0]
    assert (theorems.sum_S, theorems.verify,
            arith.PrimeCtx.__hash__) == before


def test_consistency_digest_does_not_depend_on_the_seed():
    a, b = consistency.run(5, 80, 0), consistency.run(5, 80, 1)
    assert a == b and a["checks"] > 0 and a["failed"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "consistency",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
