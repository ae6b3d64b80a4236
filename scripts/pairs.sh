#!/usr/bin/env bash
# pairs.sh — the pair protocol between two commits, on one workload metric.
#
#   scripts/pairs.sh PARENT CHANGE WORKLOAD METRIC N SEED...
#
# Builds ./benchmark from the committed files of PARENT and of CHANGE (any
# git revision; `$(git stash create)` names uncommitted work once it is
# staged), each extracted with git archive into a fresh directory, so
# neither build sees the other's untracked files and nothing is left in the
# repository. Then runs N pairs of single repetitions,
# `<bin> rep -workload WORKLOAD -seed S`, pair i on seed SEED[i mod count],
# in ABBA order (parent first in even pairs, change first in odd ones), each
# from its own checkout. It prints every pair and, computed with jq, how
# many pairs the change wins (by the metric's "better" in BENCHMARK.json),
# the ratio of medians change/parent, the difference of medians and the
# parent's interquartile range. A gain counts when the change wins nearly
# every pair and the medians differ by more than the parent's IQR.
set -euo pipefail

if [ $# -lt 6 ]; then
	echo "usage: $0 PARENT CHANGE WORKLOAD METRIC N SEED..." >&2
	exit 2
fi
parent=$1 change=$2 workload=$3 metric=$4 n=$5
shift 5
seeds=("$@")

work=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT

for side in parent change; do
	mkdir "$work/$side" "$work/$side.scratch"
	git archive "${!side}" | tar -x -C "$work/$side"
	(cd "$work/$side" && go build -o "$work/$side.bin" ./benchmark)
done
better=$(jq -r --arg m "$metric" '[(.end_to_end + .per_layer)[] | select(.name == $m) | .better][0] // "higher"' "$work/change/BENCHMARK.json")

# rep SIDE SEED prints SIDE's value of the metric in one repetition.
rep() {
	sync # what earlier repetitions left dirty must not queue behind this one's fsyncs
	(cd "$work/$1" && "$work/$1.bin" rep -workload "$workload" -seed "$2" -scratch "$work/$1.scratch") |
		jq --arg m "$metric" '.metrics[$m] // .layers[$m] // error("no metric \($m)")'
}

for ((i = 0; i < n; i++)); do
	seed=${seeds[i % ${#seeds[@]}]}
	if ((i % 2 == 0)); then
		a=$(rep parent "$seed")
		b=$(rep change "$seed")
	else
		b=$(rep change "$seed")
		a=$(rep parent "$seed")
	fi
	echo "{\"seed\": $seed, \"parent\": $a, \"change\": $b}" | tee -a "$work/pairs.jsonl" | jq -c .
done

jq -rs --arg better "$better" --arg w "$workload" --arg m "$metric" '
	def q($p): sort as $s | (($s | length - 1) * $p) as $h | ($h | floor) as $lo |
		$s[$lo] + ($h - $lo) * ($s[[$lo + 1, ($s | length - 1)] | min] - $s[$lo]);
	(map(.parent) | q(0.5)) as $pm | (map(.change) | q(0.5)) as $cm |
	(map(.parent) | q(0.75) - q(0.25)) as $iqr |
	(map(select(if $better == "lower" then .change < .parent else .change > .parent end)) | length) as $wins |
	"\($w) \($m) (\($better) is better): change wins \($wins)/\(length) pairs",
	"  median parent \($pm)  change \($cm)  ratio \($cm / $pm)",
	"  median difference \($cm - $pm)  parent IQR \($iqr)"
' "$work/pairs.jsonl"
