#!/usr/bin/env bash
# ROADMAP item 6's metric: lines before the first `#[cfg(test)]` of every
# Rust file under crates/*/src and src, one row per file and a total.
# Informational: run from anywhere, gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src src -name '*.rs' | LC_ALL=C sort | while read -r file; do
    awk -v file="$file" '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d %s\n", n, file }' "$file"
done | awk '{ total += $1; print } END { printf "%6d total\n", total }'
