#!/usr/bin/env bash
# samework.sh — whether two commits do the same work.
#
#   scripts/samework.sh PARENT CHANGE
#
# Builds cmd/u1 from the committed files of PARENT and of CHANGE (any git
# revision; `$(git stash create)` names uncommitted work once it is staged),
# each extracted with git archive into a fresh directory, as pairs.sh does.
# Then, for seeds 5 and 42 at -workers 1, it runs `u1 sim -report` and
# `u1 sim -out DIR` (the simulator refuses both in one run) from each, and
# `u1 chaos -smoke` from each. It diffs the trace trees byte for byte, and the
# reports without what times the run or weighs its heap: sim's generation
# time and rate, its events/s line and its steady-state line, and chaos's
# mean_ms, a histogram sum whose stripes fold in an order set by the binary.
# It prints `same work`, or the diffs and exits 1.
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: $0 PARENT CHANGE" >&2
	exit 2
fi
parent=$1 change=$2

work=$(mktemp -d "${TMPDIR:-/tmp}/samework.XXXXXX")
trap 'rm -rf "$work"' EXIT

for side in parent change; do
	mkdir "$work/$side"
	git archive "${!side}" | tar -x -C "$work/$side"
	(cd "$work/$side" && go build -o "$work/$side.bin" ./cmd/u1)
done

# untimed drops what varies from run to run of the same code.
untimed() {
	sed -E -e 's/ \(generated in [^)]*\)//' -e 's/, [0-9.]+ ops\/s of generation//' -e '/^events: /d' -e '/^steady state: /d' -e '/"mean_ms"/d' "$1"
}

same=true
# compare NAME compares the parent's and the change's NAME under $work.
compare() {
	if ! diff -r "$work/parent/$1" "$work/change/$1"; then
		same=false
	fi
}

for seed in 5 42; do
	for side in parent change; do
		(cd "$work/$side" && "$work/$side.bin" sim -report -seed "$seed" -workers 1 >report.raw &&
			"$work/$side.bin" sim -out "trace-$seed" -seed "$seed" -workers 1 >/dev/null)
		untimed "$work/$side/report.raw" >"$work/$side/report-$seed.txt"
	done
	compare "report-$seed.txt"
	compare "trace-$seed"
	rm -rf "$work"/{parent,change}/"trace-$seed"
done

for side in parent change; do
	(cd "$work/$side" && "$work/$side.bin" chaos -smoke -out chaos.raw >/dev/null)
	untimed "$work/$side/chaos.raw" >"$work/$side/chaos.json"
done
compare chaos.json

if $same; then
	echo "same work"
else
	exit 1
fi
