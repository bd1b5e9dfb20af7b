"""The `consistency` workload: the library's cross-checks between truncated
sums, Legendre polynomials and cubic character sums, called through its
public functions rather than the CLI.

For every prime in the range it runs `consistency_triangle` and
`shifted_cubic_leg` for each argument m in `SUM_ARGUMENTS`, and
`ishii_char_sum` for each square root of the two registered radicands.
The seed fixes the order in which primes are visited; results are keyed by
prime, so their digest does not depend on the seed.

Run as a program (with the library's `src` on PYTHONPATH) it prints `ready`
once the library is imported, then one JSON line with the prime count, the
check count, the failed checks and the sha256 of the results:

    PYTHONPATH=src python3 perfbench/consistency.py --primes 5..1000 --seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random


def run(lo: int, hi: int, seed: int) -> dict:
    """Run every check for the primes in [lo, hi] in a seeded order."""
    from supercong import arith, theorems

    primes = arith.primes_in(max(lo, 5), hi)
    random.Random(seed).shuffle(primes)
    lines = []
    failed = 0
    for p in primes:
        ctx = arith.PrimeCtx(p)
        for _, m in theorems.SUM_ARGUMENTS:
            if m % p == 0:
                continue
            tri = theorems.consistency_triangle(m, ctx)
            leg = theorems.shifted_cubic_leg(m, ctx)
            failed += (tri.get("mod_p") is False) + (tri.get("mod_p2") is False)
            failed += leg is False
            lines.append(f"triangle {p} {m} {json.dumps(tri, sort_keys=True)}")
            lines.append(f"cubic {p} {m} {json.dumps(leg)}")
        for tid, (radicand, _, _) in theorems.ISHII_CURVES.items():
            for root in arith.sqrt_mod_p(radicand % p, ctx):
                value = theorems.ishii_char_sum(tid, root, ctx)
                lines.append(f"ishii {p} {tid} {root} {value}")
    lines.sort()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return {"primes": len(primes), "checks": len(lines), "failed": failed,
            "sha256": digest}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--primes", required=True, help="range, e.g. 5..1000")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    lo, _, hi = args.primes.partition("..")
    import supercong.theorems  # noqa: F401  (import time is set-up time)

    print("ready", flush=True)
    print(json.dumps(run(int(lo), int(hi), args.seed)), flush=True)


if __name__ == "__main__":
    main()
