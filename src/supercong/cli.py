"""Command-line front end: batch verification sweeps, single-value sums,
and small number-theory utilities.

    supercong verify --theorems all-proven --primes 5..500 --format jsonl
    supercong sum --m 256 --p 11
    supercong tools charsum --cubic 1,21,112,0 --p 11
    supercong tools cornacchia --d 7 --p 11
    supercong tools jacobi --a 2 --n 7

verify exits 0 unless a proven statement fails (exit 1); bad arguments exit
2; an internal error (an exception raised inside the engine during the
sweep) exits 3, after the traceback and the summary line for the records
already written go to stderr; a stdout closed early (`| head`) exits 141,
as a shell reports SIGPIPE, with the summary and no traceback.  Conjecture
failures are flagged as counterexample candidates but do not change the
exit status.  For a fixed seed the report stream is byte-identical
regardless of --workers, which is capped at the machine's CPU count
(os.cpu_count()) and at the number of primes, since verify_range hands
every worker a block: asking for more starts no more processes.  A
negative leading coefficient is written --cubic=-3,5,-7, since argparse
reads a separate "-3,5,-7" as an option.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str

from .arith import PrimeCtx, jacobi
from .binom import sum_S
from .curves import char_sum
from .legendre import legendre_eval
from .quadform import cornacchia
from .theorems import (
    ALL_IDS,
    CONJECTURE_IDS,
    PROVEN_IDS,
    REGISTRY,
    t_roots,
    verify_range,
)

__all__ = ["main"]


def _parse_primes(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        pmin, pmax = int(lo), int(hi)
    else:
        pmin = pmax = int(text)
    if pmin <= 3 or pmin > pmax:
        raise ValueError(f"prime range must satisfy 3 < pmin <= pmax: {text}")
    return pmin, pmax


def _resolve_theorems(text: str) -> tuple[str, ...]:
    groups = {"all": ALL_IDS, "all-proven": PROVEN_IDS,
              "all-conjectures": CONJECTURE_IDS}
    ids: list[str] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part in groups:
            ids.extend(groups[part])
        elif part in REGISTRY:
            ids.append(part)
        else:
            raise ValueError(f"unknown theorem id {part!r} "
                             f"(known: {', '.join(ALL_IDS)})")
    if not ids:
        raise ValueError(f"no theorem ids in {text!r}")
    return tuple(sorted(set(ids)))


def _wit_str(witnesses: dict[str, int]) -> str:
    return ";".join(f"{k}={v}" for k, v in witnesses.items())


def _render_text(rec, out) -> None:
    if not rec.applicable:
        out.write(f'{rec.theorem} p={rec.p} SKIP branch="{rec.branch}"\n')
        return
    status = ("PASS" if rec.passed
              else "CANDIDATE" if rec.kind == "conjecture" else "FAIL")
    lhs = "-" if rec.lhs is None else rec.lhs
    rhs = "-" if rec.rhs is None else rec.rhs
    mod = "-" if rec.modulus is None else rec.modulus
    out.write(f'{rec.theorem} p={rec.p} {status} branch="{rec.branch}" '
              f"lhs={lhs} rhs={rhs} modulus={mod} "
              f"witnesses[{_wit_str(rec.witnesses)}]\n")


def _json_res(value) -> str:
    return "null" if value is None else f'"{value}"'


def _render_jsonl(rec, out) -> None:
    """One JSON object per line, written from the record's fields: the
    fields under their names (passed as "pass"), residues as decimal
    strings, in json.dumps's compact form."""
    wit = ",".join([f"{_json_str(k)}:{v}" for k, v in rec.witnesses.items()])
    out.write(f'{{"theorem":{_json_str(rec.theorem)},"p":{rec.p},'
              f'"applicable":{"true" if rec.applicable else "false"},'
              f'"branch":{_json_str(rec.branch)},"lhs":{_json_res(rec.lhs)},'
              f'"rhs":{_json_res(rec.rhs)},"modulus":{_json_res(rec.modulus)},'
              f'"witnesses":{{{wit}}},'
              f'"pass":{"true" if rec.passed else "false"},'
              f'"kind":{_json_str(rec.kind)}}}\n')


_CSV_FIELDS = ("theorem", "p", "applicable", "branch", "lhs", "rhs",
               "modulus", "witnesses", "pass", "kind")


def _render_csv(rec, writer) -> None:
    """The record's fields in _CSV_FIELDS order, None as an empty cell,
    witnesses joined by _wit_str."""
    writer.writerow([
        rec.theorem, rec.p, rec.applicable, rec.branch,
        "" if rec.lhs is None else rec.lhs,
        "" if rec.rhs is None else rec.rhs,
        "" if rec.modulus is None else rec.modulus,
        _wit_str(rec.witnesses), rec.passed, rec.kind,
    ])


def cmd_verify(theorems: tuple[str, ...], pmin: int, pmax: int,
               fmt: str = "text", workers: int = 1, seed: int = 0,
               fail_fast: bool = False, out=None) -> int:
    out = out or sys.stdout
    header = {
        "record": "header",
        "seed": seed,
        "theorems": list(theorems),
        "primes": f"{pmin}..{pmax}",
        "format": fmt,
    }
    render, sink = (_render_jsonl if fmt == "jsonl" else _render_text), out
    checked = failures = candidates = 0
    error = closed = False
    stream = verify_range(theorems, pmin, pmax, seed=seed, workers=workers)
    try:
        if fmt == "jsonl":
            out.write(json.dumps(header, separators=(",", ":")) + "\n")
        else:  # csv and text open with the same comment line
            out.write(f"# seed={seed} theorems={','.join(theorems)} "
                      f"primes={pmin}..{pmax}\n")
        if fmt == "csv":
            import csv  # imported for this format only: keeps start-up lean

            render, sink = _render_csv, csv.writer(out, lineterminator="\n")
            sink.writerow(_CSV_FIELDS)
        while not (fail_fast and failures):
            try:
                rec = next(stream, None)
            except Exception as exc:  # an engine fault, never a verdict
                import traceback  # imported on this path only

                traceback.print_exc()
                error = True
                print(f"internal error: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                break
            if rec is None:
                break
            checked += 1
            if not rec.passed:
                if rec.kind == "proven":
                    failures += 1
                else:
                    candidates += 1
            render(rec, sink)
    except BrokenPipeError:  # the reader has gone: stop, but not as a fault
        closed = True
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())  # so the last flush does not raise
        os.close(devnull)
    stream.close()  # stops a pool's workers
    print(f"checked {checked} records: {failures} failures, "
          f"{candidates} counterexample-candidates", file=sys.stderr)
    return 3 if error else 141 if closed else 1 if failures else 0


def cmd_sum(m: int, p: int, out=None) -> int:
    out = out or sys.stdout
    ctx = PrimeCtx(p)
    value = sum_S(m, ctx)
    out.write(f"sum_S(m={m}, p={p}) = {value} (mod {ctx.p2})\n")
    roots = t_roots(m, ctx)[0]
    if roots:
        for t in roots:
            val = legendre_eval(ctx.qcap, t, ctx)
            out.write(f"P_[{ctx.qcap}](t={t}) = {val} (mod {p})\n")
    else:
        out.write("t = sqrt(1 - 256/m) is not in F_p\n")
    return 0


def _parse_cubic(text: str) -> tuple[int, int, int]:
    parts = [int(v) for v in text.split(",")]
    if len(parts) == 4:
        if parts[0] != 1:
            raise ValueError("leading cubic coefficient must be 1")
        return parts[1], parts[2], parts[3]
    if len(parts) == 3:
        return parts[0], parts[1], parts[2]
    raise ValueError("cubic must be 'a,b,c' or '1,a,b,c'")


def cmd_tools(args, out=None) -> int:
    out = out or sys.stdout
    if args.tool == "charsum":
        a, b, c = _parse_cubic(args.cubic)
        out.write(f"{char_sum(a, b, c, PrimeCtx(args.p))}\n")
    elif args.tool == "cornacchia":
        rep = cornacchia(args.d, args.p)
        out.write(f"({rep[0]},{rep[1]})\n" if rep else "no representation\n")
    else:  # jacobi
        out.write(f"{jacobi(args.a, args.n)}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercong",
        description="Verify congruences for truncated central binomial "
                    "sums across ranges of primes.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="batch-verify statements over a "
                                       "range of primes")
    pv.add_argument("--theorems", required=True,
                    help="comma-separated ids, or all, all-proven, "
                         "all-conjectures")
    pv.add_argument("--primes", required=True, help="range, e.g. 5..2000")
    pv.add_argument("--format", choices=("text", "jsonl", "csv"),
                    default="text")
    pv.add_argument("--workers", type=int, default=1)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--fail-fast", action="store_true")

    ps = sub.add_parser("sum", help="print one truncated sum mod p**2")
    ps.add_argument("--m", type=int, required=True)
    ps.add_argument("--p", type=int, required=True)

    pt = sub.add_parser("tools", help="single-value utilities")
    tsub = pt.add_subparsers(dest="tool", required=True)
    tc = tsub.add_parser("charsum")
    tc.add_argument("--cubic", required=True,
                    help="coefficients 'a,b,c' or '1,a,b,c'; write "
                         "--cubic=-3,5,-7 when the first one is negative")
    tc.add_argument("--p", type=int, required=True)
    td = tsub.add_parser("cornacchia")
    td.add_argument("--d", type=int, required=True)
    td.add_argument("--p", type=int, required=True)
    tj = tsub.add_parser("jacobi")
    tj.add_argument("--a", type=int, required=True)
    tj.add_argument("--n", type=int, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            pmin, pmax = _parse_primes(args.primes)
            ids = _resolve_theorems(args.theorems)
            if args.workers < 1:
                raise ValueError("workers must be >= 1")
            return cmd_verify(ids, pmin, pmax, fmt=args.format,
                              workers=args.workers, seed=args.seed,
                              fail_fast=args.fail_fast)
        if args.command == "sum":
            return cmd_sum(args.m, args.p)
        return cmd_tools(args)
    except (ValueError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
