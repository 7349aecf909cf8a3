#!/bin/sh
# Non-test, non-comment code lines per crate: in every `src/**/*.rs`, the
# lines before the file's first `#[cfg(test)]` that are neither blank nor
# start with `//` (doc comments included). `benchmark/` counts as a crate.
# Usage: tools/loc.sh [crate ...]   (default: every crate)
set -eu
cd "$(dirname "$0")/.."
count() {
    find "$1" -name '*.rs' -exec awk '
        FNR == 1 { test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
        test { next }
        { l = $0; sub(/^[[:space:]]+/, "", l); if (l != "" && substr(l, 1, 2) != "//") c++ }
        END { print c + 0 }' {} +
}
[ $# -gt 0 ] || set -- $(ls crates) benchmark
total=0
for crate in "$@"; do
    dir="crates/$crate/src"
    [ "$crate" = benchmark ] && dir=benchmark/src
    n=$(count "$dir")
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
