#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the one binary the request needs
# (`bench` for --trace 0, `tracer` for --trace 1, so a tracer that no longer
# compiles cannot take the end-to-end gate down with it) and hands it the
# driver's arguments unchanged.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bin=bench
prev=
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then bin=tracer; fi
    prev="$arg"
done
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$bin" >&2
exec "$target/release/$bin" "$@"
