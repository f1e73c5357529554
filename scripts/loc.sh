#!/bin/sh
# Prints the workspace's non-test line count: for every .rs file under
# crates/, src/ and examples/ outside a tests/ directory, the lines before
# its first `#[cfg(test)]`. One line per crate (and for src/, examples/),
# then the total. Run from anywhere: scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."
find crates src examples -name '*.rs' -not -path '*/tests/*' | sort | xargs awk '
    FNR == 1 { counting = 1 }
    /#\[cfg\(test\)\]/ { counting = 0 }
    counting {
        split(FILENAME, part, "/")
        unit = part[1] == "crates" ? "crates/" part[2] : part[1]
        lines[unit]++
        total++
    }
    END {
        for (unit in lines) printf "%7d %s\n", lines[unit], unit | "sort -k2"
        close("sort -k2")
        printf "%7d total\n", total
    }'
