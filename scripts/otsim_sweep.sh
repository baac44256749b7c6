#!/usr/bin/env bash
# Cost-parity sweep of otsim's algorithm commands.
#
#   scripts/otsim_sweep.sh record OTSIM OUT.tsv
#   scripts/otsim_sweep.sh compare OLD.tsv NEW.tsv
#
# `record` runs sort|cc|mst|matmul|sssp on every net below at
# N in {8, 16, 64} under the log and const delay models, one row per
# run: algo, net, n, model, exit status ("abort" for a signal) and the
# `<algo>: model time ..., area ..., AT^2 ...` cost line.  `compare`
# checks two recordings, e.g. of a parent and a changed build:
#
#   - every run that exits 0 in OLD exits 0 in NEW with the same cost
#     line;
#   - no run aborts in NEW;
#
# and prints a summary, including the runs whose exit status changed.
# It exits 1 when either check fails.
set -euo pipefail

algos=(sort cc mst matmul sssp)
nets=(otn otc otc-emu mesh psn ccc tree hex fattree mot d2d-mot mot3d)
sizes=(8 16 64)
models=(log const)

record() {
    local otsim=$1 out=$2
    : > "$out"
    for algo in "${algos[@]}"; do
        for net in "${nets[@]}"; do
            for n in "${sizes[@]}"; do
                for model in "${models[@]}"; do
                    local text rc=0
                    text=$("$otsim" "$algo" --net "$net" --n "$n" \
                           --model "$model" 2>/dev/null) || rc=$?
                    ((rc > 128)) && rc=abort
                    local cost
                    cost=$(grep -m1 "^$algo: model time" <<< "$text" || true)
                    printf '%s\t%s\t%s\t%s\t%s\t%s\n' "$algo" "$net" "$n" \
                        "$model" "$rc" "$cost" >> "$out"
                done
            done
        done
    done
}

compare() {
    python3 - "$1" "$2" <<'EOF'
import sys

def load(path):
    rows = {}
    with open(path) as f:
        for line in f:
            algo, net, n, model, rc, cost = line.rstrip("\n").split("\t")
            rows[(algo, net, n, model)] = (rc, cost)
    return rows

old, new = load(sys.argv[1]), load(sys.argv[2])
ok_old = [k for k, (rc, _) in old.items() if rc == "0"]
kept = [k for k in ok_old if new.get(k, ("", ""))[0] == "0"]
same = [k for k in kept if new[k][1] == old[k][1]]
aborts = [k for k, (rc, _) in new.items() if rc == "abort"]
changed = sorted(k for k in old if k in new and old[k][0] != new[k][0])
print(f"combinations:              {len(old)}")
print(f"exit 0 before:             {len(ok_old)}")
print(f"  still exit 0:            {len(kept)}")
print(f"  identical cost line:     {len(same)}")
print(f"aborts after:              {len(aborts)}")
print(f"exit status changed:       {len(changed)}")
for k in changed:
    print(f"  {' '.join(k)}: {old[k][0]} -> {new[k][0]}")
for k in ok_old:
    if k not in same:
        print(f"COST DRIFT {' '.join(k)}: {old[k][1]!r} -> "
              f"{new.get(k, ('', ''))[1]!r}")
for k in aborts:
    print(f"ABORT {' '.join(k)}")
sys.exit(0 if len(same) == len(ok_old) and not aborts else 1)
EOF
}

case ${1:-} in
  record) record "$2" "$3" ;;
  compare) compare "$2" "$3" ;;
  *) sed -n '2,5p' "$0" >&2; exit 2 ;;
esac
