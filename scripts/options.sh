#!/bin/sh
# Public options, counted the way loc.sh counts lines: every `pub fn with_*`
# / `pub fn set_*` in an impl of a `*Policy`, `*Config`, `Serve` or
# `StreamExec` type, plus every `SCL_*` environment variable named in
# non-test code under crates/ and src/ — one per line with its file, then
# the total. A simplification PR quotes the total before → after.
#
# usage: scripts/options.sh [max]   with `max`, exit 1 when the total
#                                   exceeds it (the CI guard)
set -eu
cd "$(dirname "$0")/.."
max="${1:-}"

find src crates -name '*.rs' -not -path '*/tests/*' -not -name 'tests.rs' | sort | xargs awk '
    FNR == 1 { in_tests = 0; on = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    /^impl/ { on = ($0 ~ /(Policy|Config|Serve|StreamExec)[ <{]/) }
    on && match($0, /pub fn (with|set)_[a-z0-9_]+/) { print FILENAME ": " substr($0, RSTART + 7, RLENGTH - 7) }
    match($0, /"SCL_[A-Z_]+"/) { print FILENAME ": " substr($0, RSTART + 1, RLENGTH - 2) }
' | sort -u | awk -v max="$max" '
    { print }
    END {
        printf "total: %d\n", NR
        if (max != "" && NR > max + 0) {
            printf "error: %d public options exceed the limit of %d\n", NR, max
            exit 1
        }
    }
'
