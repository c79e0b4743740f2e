#!/usr/bin/env bash
# Builds loopschedd and the e2ebench load generator from the checkout this
# is run in, then runs one workload. Run from the repository root:
#
#   bash e2ebench/run.sh --workload serve-tiny --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ of the
# checkout, the Go build cache included.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/loopschedd" ]]; then
	echo "e2ebench: run from the root of a repository checkout (no go.mod or cmd/loopschedd here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

go build -o "$build/loopschedd" ./cmd/loopschedd
go -C e2ebench build -o "$build/e2ebench" .
exec "$build/e2ebench" -daemon "$build/loopschedd" -workdir "$build" "$@"
