#!/usr/bin/env bash
# Alternating end-to-end pairs for a performance claim: the repo benchmark
# (`benchmark/run.sh`) at <base-rev> against the working tree, on one
# workload, each pair running both sides back to back with the first side
# switching from pair to pair. Prints each side's median and quartiles per
# end-to-end metric, the change's median over the base's, and the pairs the
# change won (all three metrics are lower-is-better); a claimed gain needs 9
# of 10 and a median gap wider than the base's interquartile range.
#
#   scripts/bench_pairs.sh <base-rev> <workload> [pairs=10] [seed=1]
#
# Both sides are `git worktree`s under a fresh `mktemp -d`, removed on exit,
# each built into its own CARGO_TARGET_DIR, so nothing in this checkout moves.
# The change side is the tracked files as they stand, staged or not
# (`git stash create`); `git add` a new file for it to count. A pair takes
# about twice `--seconds 22`, so ten take eight minutes or so.
set -euo pipefail
usage="usage: scripts/bench_pairs.sh <base-rev> <workload> [pairs=10] [seed=1]"
base_rev="${1:?$usage}"
workload="${2:?$usage}"
pairs="${3:-10}"
seed="${4:-1}"
cd "$(dirname "$0")/.."

base=$(git rev-parse --verify --quiet "$base_rev^{commit}") || {
    echo "error: '$base_rev' names no commit" >&2
    exit 2
}
change=$(git stash create)
change="${change:-$(git rev-parse HEAD)}"

tmp=$(mktemp -d)
cleanup() {
    for side in base change; do
        git worktree remove --force "$tmp/$side" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$tmp/base" "$base"
git worktree add --quiet --detach "$tmp/change" "$change"

# Build both sides before the first timed run: `run.sh` builds too, but then
# finds nothing to do.
for side in base change; do
    CARGO_TARGET_DIR="$tmp/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$tmp/$side/benchmark/Cargo.toml" --bin bench
done

# One run of `side`; appends `<pair> <side> <metric> <value>` rows to
# $tmp/rows and the run's stderr to $tmp/<side>.err.
run() {
    local pair=$1 side=$2 line
    line=$(CARGO_TARGET_DIR="$tmp/target-$side" bash "$tmp/$side/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds 22 --trace 0 \
        2>>"$tmp/$side.err" | tail -n 1)
    if ! grep -Eq '"correct": ?true' <<<"$line"; then
        echo "pair $pair: $side had failed runs: $line" >&2
    fi
    for metric in wall_s peak_rss_mb setup_s; do
        local value
        value=$(sed -n "s/.*\"$metric\": *{ *\"value\": *\([-0-9.e+]*\).*/\1/p" <<<"$line")
        echo "$pair $side $metric ${value:?no $metric in: $line}" >>"$tmp/rows"
    done
}

for pair in $(seq "$pairs"); do
    if ((pair % 2)); then order="base change"; else order="change base"; fi
    for side in $order; do run "$pair" "$side"; done
    echo "pair $pair/$pairs done ($order)" >&2
done

for side in base change; do
    if grep -q "FINGERPRINT CHANGED" "$tmp/$side.err"; then
        echo "!!! $side: FINGERPRINT CHANGED (simulated quantities moved)"
    fi
done

echo "$workload, seed $seed, $pairs pairs: base $(git rev-parse --short "$base"), change $(git rev-parse --short "$change")"
awk '
    # Quantile q of the sorted values v[1..n], interpolated between ranks.
    function quantile(v, n, q,    h, lo) {
        h = (n - 1) * q + 1
        lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function sort(v, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    }
    { value[$3, $2, $1] = $4; pairs[$1]; if (!($3 in seen)) { seen[$3]; order[++metrics] = $3 } }
    END {
        printf "pair"
        for (m = 1; m <= metrics; m++) printf "  %s base / change", order[m]
        printf "\n"
        for (p = 1; p in pairs; p++) {
            printf "%4d", p
            for (m = 1; m <= metrics; m++)
                printf "  %.4f / %.4f", value[order[m], "base", p], value[order[m], "change", p]
            printf "\n"
        }
        for (m = 1; m <= metrics; m++) {
            metric = order[m]
            wins = total = 0
            for (p in pairs) {
                total++
                if (value[metric, "change", p] < value[metric, "base", p]) wins++
            }
            for (s = 1; s <= 2; s++) {
                side = s == 1 ? "base" : "change"
                n = 0
                delete v
                for (p in pairs) v[++n] = value[metric, side, p]
                sort(v, n)
                q1[side] = quantile(v, n, 0.25)
                med[side] = quantile(v, n, 0.5)
                q3[side] = quantile(v, n, 0.75)
            }
            printf "%-12s base %.4f [%.4f, %.4f]  change %.4f [%.4f, %.4f]  x%.3f  change won %d/%d",
                metric, med["base"], q1["base"], q3["base"],
                med["change"], q1["change"], q3["change"],
                med["base"] ? med["change"] / med["base"] : 0, wins, total
            gap = med["base"] - med["change"]
            printf "  (median gap %+.4f, base IQR %.4f)\n", gap, q3["base"] - q1["base"]
        }
    }
' "$tmp/rows"
