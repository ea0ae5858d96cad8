#!/usr/bin/env bash
# Fails when TEST_INTENT.md names a witness test that does not exist.
#
# A witness position is a bullet item (with its continuation lines) or the
# last column of a table whose header's first cell says "deleted"; the
# other columns of those tables name removed tests on purpose and are
# skipped.
# Every backticked snake_case name there must be declared as `fn <name>`
# somewhere under crates/, tests/ or benchmark/. Three kinds of name are
# not tests and are told apart by what they name, not by a list: the stem
# of an existing .rs file, a workload or metric named in BENCHMARK.json,
# and a struct field (`<name>:` at the start of a line).
# Usage: scripts/intent_names.sh
set -euo pipefail
cd "$(dirname "$0")/.."

names=$(awk '
    function emit(text,   name) {
        while (match(text, /`[a-z0-9_]+`/)) {
            name = substr(text, RSTART + 1, RLENGTH - 2)
            if (name ~ /_/) print name
            text = substr(text, RSTART + RLENGTH)
        }
    }
    /^\|/ {
        n = split($0, cells, "|")
        if (!table) deleted = tolower(cells[2]) ~ /deleted/
        else if (deleted && $0 !~ /^\|[-| ]*\|$/) emit(cells[n - 1])
        table = 1
        next
    }
    { table = 0 }
    /^- / { bullet = 1 }
    /^[^ ]/ && !/^- / || /^$/ { bullet = 0 }
    bullet { emit($0) }
' TEST_INTENT.md | sort -u)

sources=(crates tests benchmark/src benchmark/tests)
missing=0
for name in $names; do
    if grep -rqE "fn ${name}\b" --include='*.rs' "${sources[@]}" ||
        [ -n "$(find "${sources[@]}" -name "${name}.rs" -print -quit)" ] ||
        grep -q "\"${name}\"" BENCHMARK.json ||
        grep -rqE "^\s*(pub(\([a-z]+\))? )?${name}:" --include='*.rs' "${sources[@]}"; then
        continue
    fi
    echo "TEST_INTENT.md names \`${name}\`, which no fn under crates/, tests/ or benchmark/ declares"
    missing=1
done
exit "$missing"
