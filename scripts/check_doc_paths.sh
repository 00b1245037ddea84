#!/usr/bin/env bash
# Fails when DESIGN.md, README.md or EXPERIMENTS.md names a `results/...`
# path that is not in the tree. A path whose file was deleted on purpose
# stays citable if "retired" stands on the same line or the next one
# (`results/foo.txt` (retired, PR n)). `{a,b}` and `*` expand as in a shell
# and every expansion must exist; `<pr>`-style placeholders name no file.
set -euo pipefail
cd "$(dirname "$0")/.."

expand() {
    if [[ $1 =~ ^(.*)\{([^{}]*)\}(.*)$ ]]; then
        local pre=${BASH_REMATCH[1]} post=${BASH_REMATCH[3]} alt
        local -a alts
        IFS=, read -ra alts <<<"${BASH_REMATCH[2]}"
        for alt in "${alts[@]}"; do expand "$pre$alt$post"; done
    else
        printf '%s\n' "$1"
    fi
}

status=0
for doc in DESIGN.md README.md EXPERIMENTS.md; do
    while IFS=: read -r line path; do
        path=${path%[.,]}
        [[ $path == *'<'* ]] && continue
        missing=
        while read -r one; do
            compgen -G "$one" >/dev/null || missing+=" $one"
        done < <(expand "$path")
        [[ -z $missing ]] && continue
        sed -n "${line},$((line + 1))p" "$doc" | grep -qi retired && continue
        echo "$doc:$line: names$missing, which does not exist and is not marked retired" >&2
        status=1
    done < <(grep -on 'results/[A-Za-z0-9_.*{},<>-]*' "$doc" || true)
done
exit $status
