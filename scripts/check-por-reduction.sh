#!/usr/bin/env bash
# CI smoke for the partial-order reduction: runs `ezrt schedule --json`
# at por=off and por=stubborn on every spec of the checked-in corpus
# (tests/corpus/), and asserts (a) the verdicts agree and (b) stubborn
# never visits more states than off.
# Uses the real binary so the
# whole CLI → core → scheduler plumbing of the `--por` knob is on the
# hook, not just the library API.
#
#   scripts/check-por-reduction.sh [path/to/ezrt]
set -eu

bin="${1:-target/release/ezrt}"
if [ ! -x "$bin" ]; then
    echo "check-por-reduction: $bin not found — run 'cargo build --release' first" >&2
    exit 1
fi

json_field() {
    # Pretty rendering is one "key": value field per line.
    sed -n "s/^ *\"$2\": \([^,]*\),\{0,1\}\$/\1/p" <<<"$1" | head -n 1
}

fail=0
check() {
    spec="$1"
    # Infeasible verdicts exit nonzero but still print the JSON object.
    off=$("$bin" --por off schedule "$spec" --json 2>/dev/null || true)
    stubborn=$("$bin" --por stubborn schedule "$spec" --json 2>/dev/null || true)
    off_verdict=$(json_field "$off" feasible)
    stubborn_verdict=$(json_field "$stubborn" feasible)
    off_states=$(json_field "$off" states_visited)
    stubborn_states=$(json_field "$stubborn" states_visited)
    if [ -z "$off_verdict" ] || [ -z "$stubborn_verdict" ]; then
        echo "FAIL $spec: missing feasible field (off='$off_verdict' stubborn='$stubborn_verdict')" >&2
        fail=1
        return
    fi
    if [ "$off_verdict" != "$stubborn_verdict" ]; then
        echo "FAIL $spec: verdicts diverge (off=$off_verdict stubborn=$stubborn_verdict)" >&2
        fail=1
        return
    fi
    if [ "$stubborn_states" -gt "$off_states" ]; then
        echo "FAIL $spec: stubborn visited $stubborn_states > off $off_states" >&2
        fail=1
        return
    fi
    echo "ok   $spec: verdict=$off_verdict states off=$off_states stubborn=$stubborn_states"
}

for spec in tests/corpus/*.xml; do
    check "$spec"
done

exit "$fail"
