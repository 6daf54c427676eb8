#!/bin/sh
# Lines of code per Rust source file: blank lines, comment-only lines
# (`//`, `///`, `//!`) and everything from a top-level `#[cfg(test)]` to
# the end of the file (the unit-test module, by this repo's convention
# always last) are not counted. Test, bench and example targets and the
# benchmark package are left out of the table altogether.
#
# usage: scripts/loc.sh            the whole workspace, markdown table
#        scripts/loc.sh FILE...    just those files
set -eu
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- $(find src crates -name '*.rs' \
        -not -path '*/tests/*' -not -path '*/benches/*' -not -path '*/examples/*' \
        -not -name 'tests.rs' | sort)
fi

echo "| file | code lines |"
echo "|---|---:|"
awk '
    FNR == 1 { if (file != "") emit(); file = FILENAME; n = 0; in_tests = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { n++ }
    END { emit(); printf "| **total** | **%d** |\n", total }
    function emit() { printf "| `%s` | %d |\n", file, n; total += n }
' "$@"
