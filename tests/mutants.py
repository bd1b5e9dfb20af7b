"""Source mutants that the tests must kill.

    python tests/mutants.py [name ...]

Each mutant replaces one text in one file under src/ -- a text that must
occur there exactly once -- in a temporary copy of the repository, and runs
a named subset of the tests against that copy.  The mutant is killed when
the subset fails (pytest exit status 1).  The subsets are first run on the
unmutated copy, where they must pass.  Exit status: 0 when every mutant is
killed, 1 when one survives, 2 when a target text does not occur exactly
once or a subset does not run cleanly.  Not part of tier-1: it runs pytest
once per mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CURVES = ("tests/test_curves.py",)
CHAR_SUM = ("tests/test_curves.py::test_char_sum_matches_loop_on_every_cubic",)
JACOBI = ("tests/test_arith.py::test_quad_char_agrees_with_jacobi",)
SQRT = ("tests/test_arith.py::test_sqrt_consistency_with_character",)
CERTIFICATE = (
    "tests/test_theorems.py::test_branch_tables_partition_every_residue_class",
)
CONSISTENCY = ("tests/test_theorems.py::test_consistency_checks_can_fail",)
WITNESSES = (
    "tests/test_theorems.py::test_witnesses_follow_the_parents_rules",)
TREE = ("tests/test_sumtree.py::test_tree_matches_packed_series",)
BLOCKS = (
    "tests/test_theorems.py::test_blocks_cover_the_primes_in_valid_runs",)
READS = ("tests/test_sumtree.py::test_each_statement_reads_what_it_declares",)
C23 = ("tests/test_sumtree.py::test_c23_reads_t_from_the_tables",)
LANES = ("tests/test_binom.py::test_packed_lane_width_is_needed",
         "tests/test_binom.py::test_packed_layout_boundaries")
T_ROOTS = (
    "tests/test_theorems.py::test_t_roots_are_square_roots_of_a",
    "tests/test_cli.py::test_sum_names_the_roots_of_one_minus_256_over_m",
)

#: (name, file, text, replacement, tests that must fail)
MUTANTS = (
    ("power_sum: W's upper index one lower", "src/supercong/curves.py",
     "lo, hi = (h + 1) // 2, 2 * h // 3",
     "lo, hi = (h + 1) // 2, 2 * h // 3 - 1", CURVES),
    ("power_sum: W's upper index one higher", "src/supercong/curves.py",
     "lo, hi = (h + 1) // 2, 2 * h // 3",
     "lo, hi = (h + 1) // 2, 2 * h // 3 + 1", CURVES),
    ("power_sum: W's lower index floor(h/2)", "src/supercong/curves.py",
     "lo, hi = (h + 1) // 2, 2 * h // 3",
     "lo, hi = h // 2, 2 * h // 3", CURVES),
    ("power_sum: the shift to x^3 + Bx + C dropped",
     "src/supercong/curves.py", "s = a * pow(3, -1, p) % p", "s = 0",
     CURVES),
    ("power_sum: final sign dropped", "src/supercong/curves.py",
     "return -coeff % p", "return coeff % p", CURVES),
    ("char_sum: the lift of power_sum from p = 13 up",
     "src/supercong/curves.py", "if p < 17:", "if p < 13:", CHAR_SUM),
    ("char_sum: power_sum not lifted to (-p/2, p/2)",
     "src/supercong/curves.py", "return s - p if 2 * s > p else s",
     "return s", CHAR_SUM),
    ("jacobi: (2/n) = -1 for n = 3, 7 mod 8", "src/supercong/arith.py",
     "n % 8 in (3, 5)", "n % 8 in (3, 7)", JACOBI),
    ("jacobi: the reciprocity sign flip dropped", "src/supercong/arith.py",
     "if a % 4 == 3 and n % 4 == 3:\n            result = -result",
     "if a % 4 == 3 and n % 4 == 3:\n            pass", JACOBI),
    ("Tonelli-Shanks: c not squared", "src/supercong/arith.py",
     "c = b * b % p", "c = b % p", SQRT),
    ("Tonelli-Shanks: a residue taken as the generator",
     "src/supercong/arith.py", "quad_char(z, ctx) != -1",
     "quad_char(z, ctx) != 1", SQRT),
    ("verify: the right side left unreduced", "src/supercong/theorems.py",
     "lhs, rhs = lhs % mod, rhs % mod", "lhs, rhs = lhs % mod, rhs",
     ("tests/test_theorems.py::test_verify_spot_records",)),
    ("JSONL: lhs written from rhs", "src/supercong/cli.py",
     '"lhs":{_json_res(rec.lhs)}', '"lhs":{_json_res(rec.rhs)}',
     ("tests/test_cli.py::test_jsonl_lines_equal_json_dumps",)),
    ("csv: the modulus cell always empty", "src/supercong/cli.py",
     '"" if rec.modulus is None else rec.modulus,', '"",',
     ("tests/test_cli.py::test_csv_rows_equal_to_record_rows",)),
    ("_block: the factorial walk read upward",
     "src/supercong/binom.py",
     "zip(series.numerators(0, last), reversed(down))",
     "zip(series.numerators(0, last), down)",
     ("tests/test_binom.py::test_sum_s_spot_values",)),
    ("s's record: r = 3, t's cut-off", "src/supercong/binom.py",
     "e=3, r=2)", "e=3, r=3)",
     ("tests/test_binom.py::test_records_state_the_cut_offs",)),
    ("t's record: e = 1", "src/supercong/binom.py",
     "e=2, r=3)", "e=1, r=3)",
     ("tests/test_binom.py::test_sum_t_spot_values",)),
    ("shares_block: t's cut-off may reach lo", "src/supercong/binom.py",
     "return _T.last(hi) < lo", "return _T.last(hi) <= lo",
     ("tests/test_binom.py::test_shares_block_is_t_cut_off_below_lo",)),
    ("_prefix: p past 2**32 left to the packer, after the build",
     "src/supercong/binom.py", "if ctx.p >= 2**32:", "if False:",
     ("tests/test_cli.py::test_sum_past_the_limb_bound_is_a_bad_argument",)),
    ("sumtree: t's e in place of s's", "src/supercong/sumtree.py",
     "k ** series.e for k", "k ** 2 for k", TREE),
    ("RV256: a class removed from the zero branch",
     "src/supercong/theorems.py",
     '_register("RV256", "proven", m=256, rows=(\n'
     "    _classes(8, (1, 3), 2, _form_wit(2), _quad(4, -2)),\n"
     "    _classes(8, (5, 7)),",
     '_register("RV256", "proven", m=256, rows=(\n'
     "    _classes(8, (1, 3), 2, _form_wit(2), _quad(4, -2)),\n"
     "    _classes(8, (5,)),", CERTIFICATE),
    ("Conj-A24: a class added to the second branch",
     "src/supercong/theorems.py",
     "_classes(12, (5,), 2, _gauss_wit, _rhs_minus_4xy_char3)",
     "_classes(12, (5, 7), 2, _gauss_wit, _rhs_minus_4xy_char3)",
     CERTIFICATE),
    ("eq35: 'neither form' overlaps the second form",
     "src/supercong/theorems.py",
     '("neither form", n, set(range(n)) - one - two)',
     '("neither form", n, set(range(n)) - one)', CERTIFICATE),
    ("T3.7: a class left uncovered, labels unchanged",
     "src/supercong/theorems.py",
     '("(p/11) = -1", 11, _char_classes(11, -1))',
     '("(p/11) = -1", 11, _char_classes(11, -1) - {2})', CERTIFICATE),
    ("theorems imports multiprocessing at the top",
     "src/supercong/theorems.py",
     "import os\n", "import multiprocessing\nimport os\n",
     ("tests/test_cli.py::test_a_verify_run_imports_only_what_it_uses",)),
    ("consistency: the mod-p leg always holds", "src/supercong/theorems.py",
     "legendre_eval(ctx.qcap, r, ctx) ** 2 % p == s_val % p", "True",
     CONSISTENCY),
    ("consistency: the mod-p**2 leg always holds",
     "src/supercong/theorems.py",
     "_t_at(t, ctx) ** 2 % p2 == s_val", "True",
     CONSISTENCY),
    ("consistency: the cubic leg always holds", "src/supercong/theorems.py",
     "power_sum(4, 2 - 2 * t, 0, ctx) ** 2 % p == s_val % p", "True",
     CONSISTENCY),
    ("_series cached on a ctx, which compares by p alone",
     "src/supercong/binom.py", "def _series(",
     "@lru_cache(maxsize=1)\ndef _series(",
     ("tests/test_binom.py::test_series_follow_the_block_of_the_same_prime",)),
    ("workers: the window of blocks unbounded", "src/supercong/theorems.py",
     "range(len(blocks) + 2 * workers):\n"
     "            end = ends[j % workers]  # block j's worker, and j - 2 * "
     "workers'\n            if j >= 2 * workers:",
     "range(len(blocks) * (workers + 1)):\n"
     "            end = ends[j % workers]\n"
     "            if j >= len(blocks) * workers:",
     ("tests/test_theorems.py::test_workers_hold_a_bounded_window_of_blocks",
      )),
    ("workers: the reader keeps each worker's pipe end open",
     "src/supercong/theorems.py", "            theirs.close()",
     "            pass",
     ("tests/test_theorems.py::test_a_dead_worker_is_an_engine_error",)),
    ("workers: a worker keeps the reader's ends that it inherited",
     "src/supercong/theorems.py", "        copy.close()", "        pass",
     ("tests/test_theorems.py::test_a_killed_reader_leaves_no_worker",)),
    ("workers: an exception in a worker not sent back",
     "src/supercong/theorems.py", "                end.send(exc)",
     "                raise",
     ("tests/test_cli.py::test_engine_error_exits_three",)),
    ("workers: the teardown joins without killing",
     "src/supercong/theorems.py", "            proc.kill()\n", "",
     ("tests/test_theorems.py::test_a_closed_sweep_leaves_no_worker",)),
    ("segmented sieve: first multiple off by one", "src/supercong/arith.py",
     "(lo + q - 1) // q * q", "(lo + q) // q * q",
     ("tests/test_arith.py::test_segmented_sieve_matches_whole_sieve",)),
    ("t_roots: a = 1 + 256/m", "src/supercong/theorems.py",
     "a = (m - 256) * pow(m, -1, p2)", "a = (m + 256) * pow(m, -1, p2)",
     T_ROOTS),
    ("witnesses: the d = 1 swap dropped", "src/supercong/theorems.py",
     "orders = (rep, rep[::-1]) if d == 1 else (rep,)", "orders = (rep,)",
     WITNESSES),
    ("C2.3: c = 3 mod 4", "src/supercong/theorems.py",
     "c % 4 == 1", "c % 4 == 3", WITNESSES),
    ("Conj-A25: 5 | x + y", "src/supercong/theorems.py",
     "(x - y) % 5", "(x + y) % 5", WITNESSES),
    ("cornacchia: p = d + 2 at small p", "src/supercong/quadform.py",
     "p == d + 1", "p == d + 2",
     ("tests/test_quadform.py::test_cornacchia_agrees_with_exhaustive_search",
      "tests/test_cli.py::test_tools_cornacchia")),
    ("cornacchia: the smaller of x and y first", "src/supercong/quadform.py",
     "return b, y", "return y, b",
     ("tests/test_quadform.py::test_sum_of_two_squares_comes_larger_first",)),
    ("PackedPoly: a tight lane one byte short", "src/supercong/arith.py",
     ".bit_length() // 8 + 1", ".bit_length() // 8", LANES),
    ("PackedPoly: the one-limb cap dropped", "src/supercong/arith.py",
     "if 4 * cap >= b:", "if False:", LANES),
    ("PackedPoly: a wide lane read as its low 8 bytes",
     "src/supercong/arith.py", 'unpack(f"{width}s" * self.g, raw)',
     'unpack(f"8s{width - 8}x" * self.g, raw)', LANES),
    ("PackedPoly: a coefficient's top byte left out of its wide lane",
     "src/supercong/arith.py", "for r in range(8):", "for r in range(7):",
     ("tests/test_binom.py::test_packed_columns_match_to_bytes_packer",)),
    ("factorials: the inverse of (k-1)!", "src/supercong/arith.py",
     "pow(fac[k], -1, p)", "pow(fac[k - 1], -1, p)",
     ("tests/test_arith.py::test_factorials_match_math_factorial",)),
    ("right sides: u x^2 - v p", "src/supercong/theorems.py",
     "+ v * ctx.p", "- v * ctx.p",
     ("tests/test_theorems.py::test_verify_spot_records",)),
    ("Murphy point: T((1 + t)/128)", "src/supercong/theorems.py",
     "(1 - t)", "(1 + t)",
     ("tests/test_theorems.py::test_p_claim_robust_under_root_choice",)),
    ("sumtree: each leaf one k short", "src/supercong/sumtree.py",
     "_span(series, lo, hi, ms) for lo, hi",
     "_span(series, lo + 1, hi, ms) for lo, hi",
     TREE),
    ("sumtree: a scan step that drops its leaf", "src/supercong/sumtree.py",
     "x = _mul(x, leaf)", "x = x", TREE),
    ("sumtree: each scan step reduced mod its own prime's p**2 alone",
     "src/supercong/sumtree.py",
     "ahead = list(accumulate((p * p for p in reversed(primes)), mul))[::-1]",
     "ahead = [p * p for p in primes]", TREE),
    ("sumtree: the carry's product leaves out the window's first leaf",
     "src/supercong/sumtree.py", "    while len(leaves) > 1:\n",
     "    leaves[0] = _span(series, 0, 0, ms)\n    while len(leaves) > 1:\n",
     TREE),
    ("sumtree: first prefix reduced mod the first window's moduli alone",
     "src/supercong/sumtree.py", "ms, rest)\n", "ms, moduli[0])\n", TREE),
    ("tables: one window for the whole range", "src/supercong/theorems.py",
     "_WINDOW = 64", "_WINDOW = 10 ** 9",
     ("tests/test_sumtree.py::test_tables_memory_does_not_grow_with_the_range",
      )),
    ("a tabulated sweep handed to the pool", "src/supercong/theorems.py",
     "        workers = 1\n", "        pass\n",
     ("tests/test_sumtree.py::test_a_tabulated_sweep_starts_no_worker",)),
    ("a tabulated sweep that reads T kept in one process",
     "src/supercong/theorems.py",
     "if None not in points.values():", "if any(points.values()):",
     ("tests/test_sumtree.py::test_a_tabulated_sweep_starts_no_worker",)),
    ("tables: C2.1's sampled points taken as fixed",
     "src/supercong/theorems.py",
     "claims=_c21_claims, reads=((_S, None), (_T, None)))",
     "claims=_c21_claims)", ("tests/test_sumtree.py::test_dense_rule",)),
    ("T3.1 declared without its T reads", "src/supercong/theorems.py",
     'jacobi(w["C"], 7) * 2 * w["C"]),\n    reads=((_T, None),),',
     'jacobi(w["C"], 7) * 2 * w["C"]),', READS),
    ("a declared read drops its m", "src/supercong/theorems.py",
     'fields["reads"] = ((_S, fields["m"]), *fields.get("reads", ()))',
     'fields.setdefault("reads", ((_S, fields["m"]),))', READS),
    ("T3.11 declared without its first sum argument",
     "src/supercong/theorems.py", "for m, _, _ in _T311_PARTS))",
     "for m, _, _ in _T311_PARTS[1:]))", READS),
    ("sum_S: the tables never read", "src/supercong/binom.py",
     "if (key := (_S.name, m)) in ctx.sums:", "if False:",
     ("tests/test_sumtree.py::test_routes_agree_through_the_engine",)),
    ("sum_T: the tables never read", "src/supercong/binom.py",
     "if key in ctx.sums else t_poly", "if False else t_poly", C23),
    ("C2.3 declared (_T, None)", "src/supercong/theorems.py",
     "reads=((_T, 128),)", "reads=((_T, None),)", C23),
    ("T tables keyed at n instead of 1/n mod p**2",
     "src/supercong/theorems.py", "n if s is _S else pow(n, -1, p * p)", "n",
     C23),
    ("blocks: a run that cannot share kept whole",
     "src/supercong/theorems.py",
     "if shares_block(run[0], run[-1])", "if True", BLOCKS),
    ("blocks: count not rounded to the worker count",
     "src/supercong/theorems.py",
     "-(-runs // parts) * parts", "-(-runs // parts)", BLOCKS),
    ("theorems imports sumtree at the top", "src/supercong/theorems.py",
     "import os\n", "import os\nimport supercong.sumtree\n",
     ("tests/test_cli.py::test_a_verify_run_imports_only_what_it_uses",)),
)


def _pytest(tree: Path, tests: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    counts = [(name, path, (ROOT / path).read_text().count(old))
              for name, path, old, _, _ in chosen]
    for name, path, count in counts:
        if count != 1:
            print(f"ERROR {name}: target occurs {count} times in {path}")
    if any(count != 1 for _, _, count in counts):
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        for tests in dict.fromkeys(m[4] for m in chosen):
            if _pytest(tree, tests) != 0:
                print(f"ERROR unmutated tree fails {' '.join(tests)}")
                return 2
        survived = errors = 0
        for name, path, old, new, tests in chosen:
            source = (tree / path).read_text()
            (tree / path).write_text(source.replace(old, new))
            try:
                code = _pytest(tree, tests)
            finally:
                (tree / path).write_text(source)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")
            survived += code == 0
            errors += code not in (0, 1)
            print(f"{verdict:9} {name}  ({' '.join(tests)})")
    print(f"{len(chosen)} mutants: {len(chosen) - survived - errors} killed, "
          f"{survived} survived, {errors} errors")
    return 2 if errors else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
