#!/usr/bin/env bash
# Lines added and removed in program files, working tree against a
# revision:
#
#   scripts/loc.sh <base-rev>
#
# The working tree includes staged, unstaged and untracked files.
# Program files are every file except tests (any `tests/` directory,
# `tests/corpus/` included, and the `#[cfg(test)]` tail of a Rust source
# file), `vendor/`, `perfbench/`, Markdown and `Cargo.lock`. Prints one
# line per changed program file, then the totals. Informational only:
# no CI step runs it.
set -euo pipefail

base=${1:?usage: scripts/loc.sh <base-rev>}
cd "$(git rev-parse --show-toplevel)"
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
    echo "unknown revision: $base" >&2
    exit 2
fi
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

is_program() {
    case "$1" in
    vendor/* | perfbench/* | *.md | Cargo.lock | tests/* | */tests/*) return 1 ;;
    esac
}

# The program part of a file read from stdin: a Rust source ends at its
# first top-level `#[cfg(test)]` line.
program_part() {
    case "$1" in
    *.rs) awk '/^#\[cfg\(test\)\]/ { exit } { print }' ;;
    *) cat ;;
    esac
}

added=0
removed=0
while IFS= read -r path; do
    is_program "$path" || continue
    { git show "$base:$path" 2>/dev/null || true; } | program_part "$path" >"$scratch/old"
    { cat "$path" 2>/dev/null || true; } | program_part "$path" >"$scratch/new"
    stat=$(git diff --no-index --numstat "$scratch/old" "$scratch/new" || true)
    [ -n "$stat" ] || continue
    read -r plus minus _ <<<"$stat"
    [ "$plus" != "-" ] || continue # binary
    printf '%6s %6s  %s\n' "+$plus" "-$minus" "$path"
    added=$((added + plus))
    removed=$((removed + minus))
done < <({
    git diff --name-only "$base"
    git ls-files --others --exclude-standard
} | sort -u)

printf 'program files against %s: +%d / -%d (net %+d)\n' \
    "$base" "$added" "$removed" "$((added - removed))"
