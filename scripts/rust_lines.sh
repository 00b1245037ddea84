#!/usr/bin/env bash
# Prints the Rust line counts a simplicity change quotes: the total over
# every tracked `.rs` file, then each crate's non-test lines (the lines of
# each `src/` file before its first `#[cfg(test)]`). Informational only:
# it never fails on a number.
set -euo pipefail
cd "$(dirname "$0")/.."

printf 'rust total %d\n' "$(git ls-files '*.rs' | xargs cat | wc -l)"

non_test() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' "$@"
}

for dir in crates/*/ bench/; do
    # A pathspec `*` also matches `/`, so this takes subdirectories too.
    mapfile -t files < <(git ls-files "${dir}src/*.rs")
    [[ ${#files[@]} -eq 0 ]] && continue
    printf '%-22s %6d\n' "${dir%/}" "$(non_test "${files[@]}")"
done
