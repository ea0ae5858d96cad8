#!/usr/bin/env bash
# Non-test Rust lines per crate: every *.rs outside tests/ directories
# (src, benches, examples; in-file unit-test modules count with their
# file), vendored shims (rand, proptest, parking_lot) left out.
# This is the figure ROADMAP item 7 tracks (33.4k before benchmark/
# existed).
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -print0 |
        xargs -0 cat | wc -l
}

total=0
for crate in crates/*/ benchmark/; do
    case "$(basename "$crate")" in
    rand | proptest | parking_lot) continue ;;
    esac
    lines=$(count "$crate")
    printf '%8d  %s\n' "$lines" "${crate%/}"
    total=$((total + lines))
done
lines=$(count src examples)
printf '%8d  %s\n' "$lines" "root package (src, examples)"
printf '%8d  total\n' $((total + lines))
