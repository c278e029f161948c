#!/usr/bin/env bash
# Runs `go test` with the given arguments and fails when the -run pattern
# matches no test in one of the named packages, or the -fuzz pattern no
# fuzz target: a CI step that names a gate must not pass vacuously once the
# test it names is renamed or deleted (plain `go test -run=NoSuchTest`
# prints "[no tests to run]" and `go test -fuzz=NoSuchFuzz` prints "no fuzz
# tests to fuzz", and both exit 0).
#
# Usage: .github/named-test.sh -run='TestShardedMatchesMonolithic' -count=1 ./internal/shard
#        .github/named-test.sh -run='^$' -fuzz='FuzzBandKernels' -fuzztime=20s ./internal/core
set -euo pipefail
out=$(go test "$@" 2>&1) || {
	printf '%s\n' "$out"
	exit 1
}
printf '%s\n' "$out"
if grep -q 'no tests to run' <<<"$out"; then
	echo "named-test: the -run pattern matched no test in a package above: go test $*" >&2
	exit 1
fi
if grep -q 'no fuzz tests to fuzz' <<<"$out"; then
	echo "named-test: the -fuzz pattern matched no fuzz target: go test $*" >&2
	exit 1
fi
