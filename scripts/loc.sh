#!/usr/bin/env bash
# ROADMAP item 9's metric: lines before the first column-0 `#[cfg(test)]`
# (the unit-test module) of every Rust file under crates/*/src and src, one
# row per file and a total. An indented `#[cfg(test)]` (a test-only item
# inside an `impl`) does not end the count.
# With `--diff <rev>`: one row `old -> new (±d)` per file whose count differs
# from `git show <rev>:<file>` (a file absent on either side counts 0), and
# the total delta.
# Informational: run from anywhere, gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

# Non-test lines of the Rust source on stdin. Reads to the end: leaving at
# the marker would SIGPIPE `git show`, which `pipefail` turns into an exit.
count() { awk '/^#\[cfg\(test\)\]/ { seen = 1 } !seen { n++ } END { print n + 0 }'; }

if [[ "${1:-}" == "--diff" ]]; then
    rev="${2:?usage: scripts/loc.sh [--diff <rev>]}"
    {
        find crates/*/src src -name '*.rs'
        git ls-tree -r --name-only "$rev" -- crates src | grep -E '^(crates/[^/]+/)?src/.*\.rs$'
    } | LC_ALL=C sort -u | while read -r file; do
        old=$(git show "$rev:$file" 2>/dev/null | count || true) # absent at $rev: 0
        new=$([[ -f "$file" ]] && count < "$file" || echo 0)
        echo "$old $new $file"
    done | awk '{ total += $2 - $1 }
        $1 != $2 { printf "%6d -> %6d (%+d) %s\n", $1, $2, $2 - $1, $3 }
        END { printf "%+6d total\n", total }'
    exit
fi

find crates/*/src src -name '*.rs' | LC_ALL=C sort | while read -r file; do
    printf '%6d %s\n' "$(count < "$file")" "$file"
done | awk '{ total += $1; print } END { printf "%6d total\n", total }'
