#!/usr/bin/env bash
# Compares two builds of the end-to-end benchmark (zbbench) in interleaved
# pairs and prints, for every end-to-end metric, each side's median and
# interquartile range: the scaled figures (the benchmark's "end-to-end"
# table) and the host costs before scaling.
#
#   scripts/e2e_pairs.sh <parent-build> <change-build> <workload> <pairs> <seconds>
#
# Each build is a zbbench binary or a directory holding one (for example
# the e2ebench build directory of each checkout). Pair i runs both sides
# one after the other with seed 1 and no tracing, parent first on odd
# pairs and change first on even ones, so a drift in host load lands on
# both sides alike. The "better" column counts the pairs in which the
# change read lower (every end-to-end metric is lower-is-better).
#
# Scaled host metrics follow the code alignment of the benchmark's
# reference kernel (ReferenceNs), which any change to src/ can shift, so
# the script also prints each binary's ReferenceNs address modulo 64:
# when they differ, trust the unscaled table first.
set -euo pipefail

if [[ $# -ne 5 ]]; then
  echo "usage: $0 <parent-build> <change-build> <workload> <pairs> <seconds>" >&2
  exit 2
fi

binary() {
  if [[ -d "$1" ]]; then echo "$1/zbbench"; else echo "$1"; fi
}
parent=$(binary "$1")
change=$(binary "$2")
workload=$3
pairs=$4
seconds=$5
for bin in "$parent" "$change"; do
  if [[ ! -x "$bin" ]]; then
    echo "e2e_pairs: no zbbench binary at $bin" >&2
    exit 2
  fi
done

out=$(mktemp -d "${TMPDIR:-/tmp}/e2e_pairs.XXXXXX")
trap 'rm -rf "$out"' EXIT

for side in parent change; do
  bin=$parent
  [[ $side == change ]] && bin=$change
  addr=$(nm -C "$bin" | awk '$2 == "t" && /ReferenceNs\(\)$/ && !a {a = $1} END {print a}')
  if [[ -n "$addr" ]]; then
    echo "$side ReferenceNs at 0x$addr, mod 64 = $((16#$addr % 64))"
  else
    echo "$side ReferenceNs not found by nm"
  fi
done

run() {  # run <side> <pair>
  local bin=$parent
  [[ $1 == change ]] && bin=$change
  "$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 \
    > "$out/$1.$2.txt" 2> "$out/$1.$2.err"
}
for ((i = 1; i <= pairs; ++i)); do
  if ((i % 2 == 1)); then run parent "$i"; run change "$i"; else
    run change "$i"; run parent "$i"; fi
  echo "pair $i/$pairs done" >&2
done

python3 - "$out" "$pairs" <<'EOF'
import statistics
import sys

out, pairs = sys.argv[1], int(sys.argv[2])
SECTIONS = {"end-to-end": "scaled", "host costs before scaling": "raw"}


def parse(path):
    """Returns {(table, metric): value} from one zbbench stdout."""
    values, table = {}, None
    for line in open(path):
        if not line.startswith("  "):
            table = next((t for h, t in SECTIONS.items()
                          if line.startswith(h)), None)
            continue
        fields = line.split()
        if table is None or not fields:
            continue
        # The value is the first number after the name.
        for field in fields[1:]:
            try:
                values[(table, fields[0])] = float(field)
                break
            except ValueError:
                pass
    return values


def spread(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[1], q[0], q[2]


runs = {s: [parse(f"{out}/{s}.{i}.txt") for i in range(1, pairs + 1)]
        for s in ("parent", "change")}
keys = [k for k in runs["parent"][0] if all(k in r for r in
                                            runs["parent"] + runs["change"])]
print(f"{'table':6} {'metric':26} {'parent median [IQR]':>32} "
      f"{'change median [IQR]':>32} {'delta':>8} {'better':>7}")
for table in ("scaled", "raw"):
    for key in (k for k in keys if k[0] == table):
        p = [r[key] for r in runs["parent"]]
        c = [r[key] for r in runs["change"]]
        pm, pq1, pq3 = spread(p)
        cm, cq1, cq3 = spread(c)
        delta = (cm / pm - 1) * 100 if pm else 0.0
        better = sum(1 for a, b in zip(p, c) if b < a)
        print(f"{table:6} {key[1]:26} {pm:12.4g} [{pq1:8.4g}, {pq3:8.4g}] "
              f"{cm:12.4g} [{cq1:8.4g}, {cq3:8.4g}] {delta:7.1f}% "
              f"{better:3d}/{pairs}")
EOF
