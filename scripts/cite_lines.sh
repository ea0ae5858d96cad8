#!/usr/bin/env bash
# Fails when ROADMAP.md, DESIGN.md or TEST_INTENT.md cites a line of a
# source file that does not exist: a missing file, or one shorter than
# the line cited.
#
# A citation is `<path>.rs:<lines>`. <path> is a whole path or its tail
# (`manager.rs`, `core/src/check.rs`); <lines> is a number, a range
# (`437–474`) or a comma list of them (`1857,910`). The path stands for
# every .rs file under crates/, src/, tests/, examples/ or benchmark/ whose
# path ends in it, and the citation holds when one of them has at least as
# many lines as the largest number cited. A bare `:NN` that leans on an
# earlier citation's file is not checked.
#
# A citation that names a symbol in the same backtick span,
# `manager.rs:1839 with_retries`, is also checked for aim: it fails when
# no cited line (every line of a range) of any file the path stands for
# contains the symbol.
# Usage: scripts/cite_lines.sh
set -euo pipefail
cd "$(dirname "$0")/.."

sources=$(find crates src tests examples benchmark -name '*.rs' -not -path '*/target/*')
bad=0
while IFS= read -r hit; do
    doc=${hit%%:*}
    cite=${hit#*:}
    path=${cite%%:*}
    last=$(grep -oE '[0-9]+' <<<"${cite#*:}" | sort -n | tail -1)
    longest=0
    for file in $(grep -E "(^|/)${path//./\\.}\$" <<<"$sources" || true); do
        lines=$(wc -l <"$file")
        [ "$lines" -gt "$longest" ] && longest=$lines
    done
    if [ "$longest" -eq 0 ]; then
        echo "$doc cites \`$cite\`: no file under the source roots ends in $path"
        bad=1
    elif [ "$longest" -lt "$last" ]; then
        echo "$doc cites \`$cite\`: $path has $longest lines"
        bad=1
    fi
done < <(grep -oE '[A-Za-z0-9_./-]+\.rs:[0-9][0-9,–-]*' ROADMAP.md DESIGN.md TEST_INTENT.md)

while IFS= read -r hit; do
    doc=${hit%%:*}
    span=${hit#*:}
    span=${span//\`/}
    cite=${span%% *}
    symbol=${span#* }
    path=${cite%%:*}
    found=0
    for file in $(grep -E "(^|/)${path//./\\.}\$" <<<"$sources" || true); do
        for item in $(sed 's/–/-/g; s/,/ /g' <<<"${cite#*:}"); do
            if sed -n "${item%%-*},${item##*-}p" "$file" | grep -qF -- "$symbol"; then
                found=1
            fi
        done
    done
    if [ "$found" -eq 0 ]; then
        echo "$doc cites \`$span\`: no cited line of $path contains $symbol"
        bad=1
    fi
done < <(grep -oE '`[A-Za-z0-9_./-]+\.rs:[0-9][0-9,–-]* [A-Za-z_][A-Za-z0-9_:]*`' ROADMAP.md DESIGN.md TEST_INTENT.md)
exit "$bad"
