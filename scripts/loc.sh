#!/usr/bin/env bash
# loc.sh — the repository's line count by ROADMAP's counting rule: every
# line of non-test Go outside benchmark/, leaving out internal/lint/testdata
# (the lint passes' fixtures).
#
#   scripts/loc.sh [REV]
#
# With no argument it counts the working tree, untracked files included and
# ignored ones not; with a git revision, the files committed there. It prints
# one number. A change's delta is `scripts/loc.sh` minus `scripts/loc.sh
# PARENT`.
set -euo pipefail

cd "$(dirname "$0")/.."
spec=('*.go' ':!:*_test.go' ':!:benchmark/' ':!:internal/lint/testdata/')
if [ $# -gt 0 ]; then
	git grep -c '' "$1" -- "${spec[@]}"
else
	git grep -c --untracked '' -- "${spec[@]}"
fi | awk -F: '{ n += $NF } END { print n + 0 }'
