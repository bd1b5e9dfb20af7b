"""Benchmark of the supercong verifier, driven from outside the program.

    python3 perfbench/run.py --workload proven-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload all --trace 1  # per-layer metrics

Workloads (why each was chosen is recorded in BENCHMARK.json):

    proven-sweep      supercong verify --theorems all-proven --primes 5..2500
    conjecture-sweep  supercong verify --theorems all-conjectures --primes 5..4000
    large-p-parallel  supercong verify --theorems all --primes 19900..20100 --workers 2
    consistency       perfbench/consistency.py over the primes 5..1000

The sweeps run `python3 -m supercong verify --format jsonl --seed <seed>` with
`src` on PYTHONPATH; `consistency` runs library calls in a child process.

With `--trace 0` a run repeats the full workload, one child at a time, until
the next repetition would overrun `--seconds`.  Before each repetition it
spawns the workload's command on the single prime 5 a few times, unbuffered,
to time set-up (spawn to the first line of output).  It reports the median
of each end-to-end metric: wall time, primes per second, CPU time of the
process tree and the peak RSS of its largest process (both from `wait4`,
which includes the pool workers the child reaped), and set-up time.

With `--trace 1` the workload runs three times in this process with one
worker: a warm-up, an untraced run and a traced run (see tracing.py), with
the module caches emptied before each.  It reports the per-layer metrics and
the tracing overhead (traced minus untraced wall time), and no end-to-end
metric.

Every execution is checked: exit status, the stderr summary line against the
records in the stream, and, where perfbench/pins.json pins the seed, the
sha256 and record count of the stream (for `consistency`, of its results,
pinned for every seed).  Runs with one seed must produce identical streams.
Failed records, counterexample candidates and whole failed streams count as
failed operations.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Exit status is 0 when every output
checks out, 1 when one does not, 2 when the benchmark cannot run at all
(for instance, when the library's source is missing).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
SPEC = ROOT / "BENCHMARK.json"

RUN_LIMIT_S = 170.0  # every child is killed past this; a run may take 180 s
# Set-up probes run before every timed run (after one uncounted warm-up),
# so that they sample the same stretch of time as the runs they go with.
PROBES_PER_RUN = 3
PROBE_PRIMES = "5..5"

# End-to-end metrics: name -> unit.  primes_per_s is the only one where
# higher is better.
E2E = {"wall_s": "s", "primes_per_s": "1/s", "cpu_s": "s",
       "peak_rss_mb": "MB", "setup_s": "s"}

SUMMARY = re.compile(r"checked (\d+) records: (\d+) failures, "
                     r"(\d+) counterexample-candidates")


class BenchError(RuntimeError):
    """The benchmark cannot run."""


@dataclass(frozen=True)
class Workload:
    name: str
    lo: int
    hi: int
    theorems: str | None = None  # None: the library-call consistency workload
    workers: int = 1

    def argv(self, seed: int, primes: str | None = None,
             workers: int | None = None) -> list[str]:
        """Interpreter arguments that run this workload."""
        primes = primes or f"{self.lo}..{self.hi}"
        if self.theorems is None:
            return [str(HERE / "consistency.py"), "--primes", primes,
                    "--seed", str(seed)]
        return ["-m", "supercong", "verify", "--theorems", self.theorems,
                "--primes", primes, "--format", "jsonl",
                "--workers", str(workers or self.workers), "--seed", str(seed)]


WORKLOADS = {w.name: w for w in (
    Workload("proven-sweep", 5, 2500, "all-proven"),
    Workload("conjecture-sweep", 5, 4000, "all-conjectures"),
    Workload("large-p-parallel", 19900, 20100, "all", workers=2),
    Workload("consistency", 5, 1000),
)}


# ---------------------------------------------------------------------------
# correctness gate

@dataclass(frozen=True)
class Outcome:
    """What one execution of a workload produced."""

    returncode: int
    sha256: str
    records: int
    bad: int  # failed proven records plus counterexample candidates
    summary: tuple[int, int] | None  # (records, bad) as the program reports


class StreamCheck:
    """Hashes a JSONL verdict stream and counts its records and bad ones."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self._lines = 0
        self._bad = 0

    def feed(self, line: bytes) -> None:
        self._hash.update(line)
        self._lines += 1
        if self._lines == 1:
            return  # the header record
        try:
            passed = json.loads(line).get("pass")
        except (ValueError, AttributeError):
            passed = None
        self._bad += passed is not True

    def outcome(self, returncode: int, stderr: str) -> Outcome:
        m = SUMMARY.search(stderr)
        summary = (int(m[1]), int(m[2]) + int(m[3])) if m else None
        return Outcome(returncode, self._hash.hexdigest(),
                       max(self._lines - 1, 0), self._bad, summary)


class ConsistencyCheck:
    """Reads the consistency child's `ready` line and its result line."""

    def __init__(self) -> None:
        self._last = b""

    def feed(self, line: bytes) -> None:
        self._last = line

    def outcome(self, returncode: int, stderr: str) -> Outcome:
        try:
            res = json.loads(self._last)
            return consistency_outcome(returncode, res)
        except (ValueError, KeyError, TypeError):
            return Outcome(returncode, "", 0, 0, None)


def consistency_outcome(returncode: int, res: dict) -> Outcome:
    return Outcome(returncode, res["sha256"], res["checks"], res["failed"],
                   (res["checks"], res["failed"]))


def load_pins() -> dict:
    return json.loads(PINS.read_text())


def pin_for(pins: dict, workload: str, seed: int) -> dict | None:
    """The pinned output for this workload and seed, if there is one.

    A pin whose seed is null holds for every seed."""
    pin = pins.get(workload)
    if pin is None or pin["seed"] not in (None, seed):
        return None
    return pin


def judge(out: Outcome, pin: dict | None,
          reference: str | None = None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one execution.

    A problem fails every record of the stream; otherwise the failed
    records are the stream's bad ones."""
    problems = []
    if out.returncode != 0:
        problems.append(f"exit status {out.returncode}")
    if out.summary is None:
        problems.append("no summary line")
    elif out.summary != (out.records, out.bad):
        problems.append(f"summary (records, failed) {out.summary} disagrees "
                        f"with the output {(out.records, out.bad)}")
    if pin is not None:
        if out.sha256 != pin["sha256"]:
            problems.append(f"sha256 {out.sha256[:16]} is not the pinned "
                            f"{pin['sha256'][:16]}")
        if out.records != pin["records"]:
            problems.append(f"{out.records} records, pinned {pin['records']}")
    if reference is not None and out.sha256 != reference:
        problems.append("output differs from an earlier run with this seed")
    attempted = max(out.records, pin["records"] if pin else 0, 1)
    return attempted, attempted if problems else out.bad, problems


# ---------------------------------------------------------------------------
# child processes

def child_env(unbuffered: bool = False) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _end_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
        for _ in range(500):
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        pass


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    first_line_s: float | None
    stderr: str


def run_child(args: list[str], feed, deadline: float,
              unbuffered: bool = False) -> ChildRun:
    """Run the interpreter on args in its own process group, passing each
    stdout line to feed, and reap the child with wait4 for its rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                            env=child_env(unbuffered), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()),
                             _end_group, (proc.pid,))
    killer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    first = None
    try:
        for line in proc.stdout:
            if first is None:
                first = time.perf_counter() - start
            feed(line)
    except BaseException:
        _end_group(proc.pid)
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
        reader.join()
        _end_group(proc.pid)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024, first,
                    b"".join(err).decode(errors="replace"))


def count_primes(lo: int, hi: int) -> int:
    """Primes in [lo, hi]; end-to-end runs never import the library here."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(hi) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, hi + 1, i)))
    return sum(sieve[max(lo, 0):])


# ---------------------------------------------------------------------------
# runs

@dataclass
class Result:
    workload: str
    seed: int
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def count(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def measure(workload: Workload, seed: int, seconds: float, pins: dict,
            deadline: float) -> Result:
    """End-to-end metrics: set-up probes, then timed runs for `seconds`."""
    result = Result(workload.name, seed)

    def probe() -> float:
        child = run_child(workload.argv(seed, PROBE_PRIMES),
                          lambda line: None, deadline, unbuffered=True)
        if child.returncode != 0 or child.first_line_s is None:
            raise BenchError(f"set-up probe failed with exit status "
                             f"{child.returncode}: {child.stderr.strip()}")
        return child.first_line_s

    probe()
    pin = pin_for(pins, workload.name, seed)
    primes = count_primes(workload.lo, workload.hi)
    setup, walls, cpus, rsss, repetitions = [], [], [], [], []
    reference = None
    began = time.monotonic()
    while True:
        repetition_began = time.monotonic()
        setup.extend(probe() for _ in range(PROBES_PER_RUN))
        check = StreamCheck() if workload.theorems else ConsistencyCheck()
        child = run_child(workload.argv(seed), check.feed, deadline)
        out = check.outcome(child.returncode, child.stderr)
        result.count(*judge(out, pin, reference))
        reference = reference or out.sha256
        walls.append(child.wall_s)
        cpus.append(child.cpu_s)
        rsss.append(child.peak_rss_mb)
        now = time.monotonic()
        repetitions.append(now - repetition_began)
        next_end = now + statistics.median(repetitions)
        if next_end - began > seconds or next_end > deadline:
            break
    result.samples = {"wall_s": walls,
                      "primes_per_s": [primes / w for w in walls],
                      "cpu_s": cpus, "peak_rss_mb": rsss, "setup_s": setup}
    result.metrics = {name: (statistics.median(result.samples[name]), unit)
                      for name, unit in E2E.items()}
    result.notes.append(f"{primes} primes, {len(walls)} runs, output sha256 "
                        f"{reference[:16]}"
                        + (" (pinned)" if pin else " (no pin for this seed)"))
    return result


def run_in_process(workload: Workload, seed: int) -> tuple[float, Outcome, int]:
    """(wall seconds, outcome, bytes written) of one run with one worker.

    An exception from the library counts as a nonzero exit."""
    if workload.theorems is None:
        import consistency

        start = time.perf_counter()
        try:
            out = consistency_outcome(0, consistency.run(
                workload.lo, workload.hi, seed))
        except Exception as exc:  # noqa: BLE001  (reported as a failure)
            out = Outcome(1, repr(exc), 0, 0, None)
        return time.perf_counter() - start, out, 0
    from supercong import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(workload.argv(seed, workers=1)[2:])
        except Exception as exc:  # noqa: BLE001  (reported as a failure)
            print(repr(exc), file=err)
            code = 1
    wall = time.perf_counter() - start
    data = out.getvalue().encode()
    check = StreamCheck()
    for line in data.splitlines(keepends=True):
        check.feed(line)
    return wall, check.outcome(code, err.getvalue()), len(data)


def trace(workload: Workload, seed: int, pins: dict) -> Result:
    """Per-layer metrics from a traced run, and the tracing overhead."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tracing
    from supercong import theorems

    result = Result(workload.name, seed)
    pin = pin_for(pins, workload.name, seed)
    # The first pass in a process runs slower (the allocator grows its
    # arenas), so it only warms up; the two measured passes follow it.
    for _ in range(2):
        tracing.clear_caches()
        plain_wall, out, _ = run_in_process(workload, seed)
        result.count(*judge(out, pin))
    tracing.clear_caches()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_wall, out, nbytes = run_in_process(workload, seed)
    result.count(*judge(out, pin))
    result.metrics = tracer.metrics(theorems.ALL_IDS)
    result.metrics["cli.bytes_out"] = (nbytes, "bytes")
    result.metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    result.metrics["trace.traced_wall_s"] = (traced_wall, "s")
    result.metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    if tracer.absent:
        result.notes.append("absent layers (reported as 0): "
                            + ", ".join(tracer.absent))
    result.notes.append(f"{len(tracer.spans)} spans")
    return result


# ---------------------------------------------------------------------------
# reporting

def tail(values: list[float], higher_is_better: bool):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 11
    ordered = sorted(values, reverse=higher_is_better)
    return math.floor(100 * (k + 1) / n), ordered[k]


def report(result: Result, declared: dict[str, str], traced: bool) -> dict:
    """Print the human-readable block; return the declared metrics."""
    share = result.failed / result.attempted if result.attempted else 1.0
    print(f"== {result.workload}  seed {result.seed}  "
          f"{'traced' if traced else 'end to end'}")
    for note in result.notes:
        print(f"   {note}")
    print(f"   failed_share {share:.6g} ({result.failed}/{result.attempted})")
    for problem in dict.fromkeys(result.problems):
        print(f"   FAILED: {problem}")
    metrics = {}
    if not traced:
        print(f"   {'metric':<14}{'unit':<6}{'median':>12}{'tail':>20}"
              f"{'n':>4}   range")
    for name, unit in declared.items():
        value, _ = result.metrics.get(name, (0, unit))
        metrics[name] = {"value": value, "unit": unit}
        if traced:
            calls = result.metrics.get(name.replace(".self_s", ".calls"))
            mean = (f"{1e3 * value / calls[0]:>12.4f} ms/call"
                    if name.endswith(".self_s") and calls and calls[0] else "")
            print(f"   {name:<44}{unit:<7}{value:>16.6g}{mean}")
            continue
        samples = result.samples[name]
        hi = tail(samples, name == "primes_per_s")
        hi_text = f"p{hi[0]} {hi[1]:.6g}" if hi else "- (n <= 10)"
        print(f"   {name:<14}{unit:<6}{value:>12.6g}{hi_text:>20}"
              f"{len(samples):>4}   {min(samples):.6g}..{max(samples):.6g}")
    for name in sorted(set(result.metrics) - set(declared)):
        print(f"   (not declared) {name} {result.metrics[name][0]:.6g}")
    return metrics


def declared_metrics(spec: dict, traced: bool) -> dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of the supercong verifier.")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if not (SRC / "supercong" / "__init__.py").is_file():
            raise BenchError(f"library source not found under {SRC}")
        declared = declared_metrics(json.loads(SPEC.read_text()), args.trace)
        if not args.trace and declared != E2E:
            raise BenchError("BENCHMARK.json end_to_end metrics are not "
                             f"the ones this benchmark measures: {E2E}")
        pins = load_pins()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        attempted = failed = 0
        metrics: dict = {}
        for name in names:
            workload = WORKLOADS[name]
            deadline = time.monotonic() + RUN_LIMIT_S
            result = (trace(workload, args.seed, pins) if args.trace else
                      measure(workload, args.seed, args.seconds, pins,
                              deadline))
            block = report(result, declared, bool(args.trace))
            attempted += result.attempted
            failed += result.failed
            if len(names) == 1:
                metrics = block
            else:
                metrics.update({f"{name}.{k}": v for k, v in block.items()})
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
