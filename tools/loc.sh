#!/bin/sh
# Non-test, non-comment code lines per crate: in every `src/**/*.rs` and
# `benches/**/*.rs` (a bench target is code like any other), the lines
# before the file's first `#[cfg(test)]` that are neither blank nor
# start with `//` (doc comments included). A file another file pulls in
# as `#[cfg(test)] mod <name>;` is test code from its first line. The
# count stops at a file's first `#[cfg(test)]`, so a test-only item that
# is not a `mod` (a helper, an accessor, a `#[cfg(test)] impl` block)
# must come after all product code: when product code follows one, the
# script names the file and line and exits nonzero. Indentation is read
# as rustfmt writes it. `benchmark/` counts as a crate.
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
# After a non-`mod` `#[cfg(test)]` item (state 1: before its first
# line, 2: inside it, 3: past it) only blank lines, comments, braces
# closing an enclosing block and further `#[cfg(test)]` items may follow.
count() {
    find "$@" -name '*.rs' -exec awk -v skip="$(test_modules "$@" | tr '\n' ' ')" '
        BEGIN { n = split(skip, files, " "); for (i = 1; i <= n; i++) tests[files[i]] }
        FNR == 1 { test = (FILENAME in tests); state = 0 }
        { l = $0; sub(/^[[:space:]]+/, "", l); indent = length($0) - length(l) }
        state == 4 || l == "" || substr(l, 1, 2) == "//" { next }
        /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1; state = 1; at = indent; next }
        state == 1 && substr(l, 1, 2) == "#[" { next }
        state == 1 && l ~ /^(pub(\([a-z]+\))? )?mod / { state = 4; next }
        state == 1 { state = (l ~ /;$/) ? 3 : 2; next }
        state == 2 { if (indent == at && substr(l, 1, 1) == "}") state = 3; next }
        state == 3 && indent < at && substr(l, 1, 1) == "}" { at = indent; next }
        state == 3 {
            printf "%s:%d: product code after a #[cfg(test)] item; move the item below it\n", FILENAME, FNR > "/dev/stderr"
            bad = 1; state = 4; next
        }
        test { next }
        { c++ }
        END { print c + 0; exit bad }' {} +
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
