#!/usr/bin/env bash
# Every pinned output of the program against its pin: the `verify` streams,
# the consistency digests and the in-process CLI loops.  Run from the
# repository root, with no options:
#
#     bash tests/pins.sh
#
# Prints one `ok` line per check.  Exits 1 at the first output that differs
# from its pin, or the first command that fails, and names its check.  Not
# part of tier-1: it runs about 25 sweeps.  A re-pin is a one-row edit.
set -euo pipefail
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

fail() { echo "FAIL $1: $2"; exit 1; }
pin() {  # name, got, want
    [ "$2" = "$3" ] || fail "$1" "got $2, pin $3"
    echo "ok   $1"
}
sha() { sha256sum | cut -d' ' -f1; }
verify() {  # theorems, primes, seed, format, workers
    python3 -m supercong verify --theorems "$1" --primes "$2" --seed "$3" \
        --format "$4" --workers "$5"
}
row() {  # theorems, primes, seed, format, workers, sha256 of the stream
    local name="verify $1 $2 seed $3 $4 workers $5" got
    got=$(verify "$@" | sha) || fail "$name" "exit $?"
    pin "$name" "$got" "$6"
}

# Tabulated sweep that packs t (T3.1 and T3.5 read T at points that depend
# on p; S from the remainder-tree tables, t series in the workers), on 3
# workers and on 1.
mixed=all-conjectures,C2.3,T3.1,T3.5
row $mixed 5..4000 0 jsonl 3 f547afc1e6d66ea1a10cf97131b99701a8dd59cbc68d334c7544e020b18b380d
row $mixed 5..4000 0 jsonl 1 f547afc1e6d66ea1a10cf97131b99701a8dd59cbc68d334c7544e020b18b380d

# The proven statements that declare S at fixed m only give the same records
# from the tables as from the packed series (T2.1 added vetoes the tables;
# 2 workers, less the header and T2.1's lines).
ids=RV256,C2.2,T3.3,T3.4,T3.6,T3.7,T3.8,T3.9,T3.10,T3.11
name="tables against packed: $ids over 5..10000"
tables=$(verify $ids 5..10000 0 jsonl 1 | tail -n +2 | sha) || fail "$name" "exit $?"
packed=$(verify $ids,T2.1 5..10000 0 jsonl 2 | tail -n +2 \
    | grep -v '^{"theorem":"T2.1",' | sha) || fail "$name" "exit $?"
pin "$name" "$tables" "$packed"

# Proven sweep on 3 workers (an uneven block/worker split) against the
# proven-sweep pin of the benchmark.
proven=$(python3 -c "import json; print(json.load(open('perfbench/pins.json'))['proven-sweep']['sha256'])")
row all-proven 5..2500 0 jsonl 3 "$proven"

# Every JSONL line of a whole-registry sweep is json.dumps of its own parse:
# the lines re-dumped hash to the stream's pin.
name="every JSONL line of all 5..3000 seed 7 is json.dumps of its parse"
got=$(verify all 5..3000 7 jsonl 1 | python3 -c '
import json, sys
for line in sys.stdin:
    print(json.dumps(json.loads(line), separators=(",", ":")))' | sha) || fail "$name" "exit $?"
pin "$name" "$got" 182cc332dcbeafba293d778ab6014de36c914b56efccb0966937a204b1c8e2aa

# Whole-registry text, csv and JSONL streams, and the JSONL stream on 2
# workers (the lazily imported workers, through python -m supercong).
row all 5..3000 7 text 1 b800262bab0822fcf508d9d8084f0782d787f51217947df2be2160eccfdb4b31
row all 5..3000 7 csv 1 2791f8c149029a926fd0633f5ef545d3fcbd1329ace6660d7bc7bb7bbd2f87d7
row all 5..3000 7 jsonl 1 182cc332dcbeafba293d778ab6014de36c914b56efccb0966937a204b1c8e2aa
row all 5..3000 7 jsonl 2 182cc332dcbeafba293d778ab6014de36c914b56efccb0966937a204b1c8e2aa

# All-proven and all-conjectures, which reach every class of the widest
# periods (232, 148, 88); all-conjectures reads S from the remainder-tree
# tables across many windows, asked for 1 worker and for 2 (a tabulated
# sweep runs in one process either way).
row all-proven 5..10000 0 jsonl 2 644f0d71ee3ae7f922e3042f09e5ec76108dd8549348875c3730ba92f1181151
row all-conjectures 5..10000 0 jsonl 2 f529ade35b53aaf000a796ede71072fd9512b36df7124b4d74a6de7d07c88a38
row all-conjectures 5..10000 0 jsonl 1 f529ade35b53aaf000a796ede71072fd9512b36df7124b4d74a6de7d07c88a38

# All-conjectures from a high start: a first prefix of 50 000 terms carried
# across two windows of tables.
row all-conjectures 100000..101000 0 jsonl 1 ae94f243eb27d4a0b20b0581969a3e91376719691415d0615b098aa4504b924c

# All-conjectures with C2.3, asked for 2 workers: S at the conjectures' m and
# T at 1/128 both from the tables, so no series is packed and the sweep runs
# in one process, from p = 5 and from a high start (t's first prefix then
# has 75 000 terms).
row all-conjectures,C2.3 5..10000 0 jsonl 2 20ff6b2d6677a4ce6e6acb6db3fb86fea9554ede77e3039a477f9b46c30d4d72
row all-conjectures,C2.3 100000..101000 0 jsonl 2 59899ad153cd206c2c0eda272c92ef03b6541adfcaa00d506d18fbdf2bf40a7e

# Whole registry through wide packed lanes: S and T in 9-byte lanes over
# 30000..30100 and in 10-byte lanes over 100000..100060, on 2 workers and on 1.
row all 30000..30100 0 jsonl 2 06bc99e63e96d04742e7ad1f72d294fc72e15227e091a59185b053d907651dc2
row all 30000..30100 0 jsonl 1 06bc99e63e96d04742e7ad1f72d294fc72e15227e091a59185b053d907651dc2
row all 100000..100060 0 jsonl 2 0fe698220dca1d84deb3e8e7791da19de4eef2e23ea2f0a3e7ba09748771f04b
row all 100000..100060 0 jsonl 1 0fe698220dca1d84deb3e8e7791da19de4eef2e23ea2f0a3e7ba09748771f04b

# Longer sweeps, as measured in ROADMAP's State: the whole registry past
# 3000, the tables past 10000 from p = 5, and the mixed sweep on 2 workers.
row all 5..10000 0 jsonl 1 14b17116a5a84f236bcf830bf5ffb47b09a18340623d0b0f52439ef32a23b95f
row all-conjectures 5..20000 0 jsonl 1 fcc94895dad3aaad6b298dded1ba0fa0907b03688580fd1d2a6bb096b742983c
row $mixed 5..20000 0 jsonl 2 4f08953b9d5f5fe649111f05c2c5841057f2d27246b51a637e4ac0e527d2537e

# Consistency checks, none failed, against their digests: power_sum's
# coefficient route against S(m) beyond tier-1 (1000..4000), and a
# many-column packed W for power_sum and the Legendre route near p = 20000.
consistency() {  # primes, check count, sha256 of the results
    local name="consistency $1" got
    got=$(python3 perfbench/consistency.py --primes "$1" --seed 0 | tail -n 1 | python3 -c '
import json, sys
res = json.load(sys.stdin)
assert res["failed"] == 0 and res["checks"] == int(sys.argv[1]), res
print(res["sha256"])' "$2") || fail "$name" "exit $?"
    pin "$name" "$got" "$3"
}
consistency 1000..4000 11456 bc3f22ca0e6e2a64a583d2bb9af40f27f118498b4c681467f3d28efb0a840c3e
consistency 19900..20100 628 1355bb4a955160a46aded9fc9206f14958edc19d931e4849659740013fc82e39

# tools charsum on both sides of p = 17, where char_sum turns from a sum over
# F_p to power_sum lifted to (-p/2, p/2): 9 primes, 6 cubics, one process.
name="tools charsum, 9 primes and 6 cubics"
got=$(python3 -c '
from supercong.cli import main
for p in (5, 7, 11, 13, 17, 19, 23, 10007, 1000003):
    for c in ("1,21,112,0", "-3,5,-7", "0,0,1", "0,0,0", "4,2,0", "0,-35,-98"):
        main(["tools", "charsum", f"--cubic={c}", "--p", str(p)])' | sha) || fail "$name" "exit $?"
pin "$name" "$got" 1eb7f760db7cb9377b3a3765ff756a409ad2b1ef2d0d33d44135eb32c756a943

# supercong sum at every sum argument, 256 and 256 + p for every prime
# 5..400: one-prime blocks through the CLI's sum route, one process; stderr,
# which names the m that p divides, discarded.
name="sum at every sum argument, 256 and 256 + p, primes 5..400"
got=$(python3 -c '
from supercong.arith import primes_in
from supercong.cli import main
from supercong.theorems import SUM_ARGUMENTS
ms = sorted({m for _, m in SUM_ARGUMENTS} | {256})
for p in primes_in(5, 400):
    for m in ms + [256 + p]:
        main(["sum", "--m", str(m), "--p", str(p)])' 2>/dev/null | sha) || fail "$name" "exit $?"
pin "$name" "$got" 686b864acc7f89831ad13e1e95f319db1122ab62e79ad6d9c31c2769b16f995f
