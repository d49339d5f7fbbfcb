#!/usr/bin/env bash
# Builds recmechd and the e2ebench command from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload sql-join --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, Go cache and scratch
# file stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/recmechd" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
mkdir -p "$build/bin"
go build -o "$build/bin/recmechd" ./cmd/recmechd
(cd e2ebench && go build -o "$build/bin/e2ebench" .)
commit=unknown
if top=$(git rev-parse --show-toplevel 2>/dev/null) && [[ "$top" == "$root" ]]; then
	commit=$(git rev-parse --short HEAD)
	git diff --quiet HEAD 2>/dev/null || commit="$commit+dirty"
fi
exec "$build/bin/e2ebench" -recmechd "$build/bin/recmechd" -work "$build/runs" -commit "$commit" "$@"
