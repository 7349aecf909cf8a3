#!/bin/sh
# Non-test, non-comment code lines per crate: in every `src/**/*.rs` and
# `benches/**/*.rs` (a bench target is code like any other), the lines
# before the file's first `#[cfg(test)]` that are neither blank nor
# start with `//` (doc comments included). A file another file pulls in
# as `#[cfg(test)] mod <name>;` is test code from its first line. (So keep
# `#[cfg(test)]` items below the product code: the count stops at the
# first one.) `benchmark/` counts as a crate.
# Usage: tools/loc.sh [crate ...]   (default: every crate)
set -eu
cd "$(dirname "$0")/.."
# Paths of the files declared `#[cfg(test)] mod <name>;` under the dirs.
test_modules() {
    find "$@" -name '*.rs' -exec awk '
        FNR == 1 { armed = 0 }
        armed && /^[[:space:]]*mod [A-Za-z0-9_]+;/ {
            dir = FILENAME; sub(/[^\/]*$/, "", dir)
            stem = FILENAME; sub(/.*\//, "", stem); sub(/\.rs$/, "", stem)
            if (stem != "lib" && stem != "main" && stem != "mod") dir = dir stem "/"
            name = $0; sub(/^[[:space:]]*mod /, "", name); sub(/;.*/, "", name)
            print dir name ".rs"
        }
        { armed = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/) }' {} +
}
count() {
    find "$@" -name '*.rs' -exec awk -v skip="$(test_modules "$@" | tr '\n' ' ')" '
        BEGIN { n = split(skip, files, " "); for (i = 1; i <= n; i++) tests[files[i]] }
        FNR == 1 { test = (FILENAME in tests) }
        /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
        test { next }
        { l = $0; sub(/^[[:space:]]+/, "", l); if (l != "" && substr(l, 1, 2) != "//") c++ }
        END { print c + 0 }' {} +
}
[ $# -gt 0 ] || set -- $(ls crates) benchmark
total=0
for crate in "$@"; do
    dirs="crates/$crate/src"
    [ -d "crates/$crate/benches" ] && dirs="$dirs crates/$crate/benches"
    [ "$crate" = benchmark ] && dirs=benchmark/src
    n=$(count $dirs)
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
