#!/usr/bin/env bash
# Builds ctlogd, ctfront and ctrise from this checkout, builds the
# benchmark driver, and runs one workload. Run from the repository root:
#
#	bash perfbench/run.sh --workload issue --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout (Go build cache included).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/ctlogd ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ctlogd and perfbench/ must be present)" >&2
	exit 2
fi

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home" "$out/bin"
# The Go command's cache, module path, temporary files and user config
# (telemetry) all go under $out.
gobuild() {
	env GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
		HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
		GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0 go build "$@"
}

gobuild -o "$out/bin/" ./cmd/ctlogd ./cmd/ctfront ./cmd/ctrise
(cd perfbench && gobuild -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -bin "$out/bin" -shape perfbench/shape.json -work "$out/work" "$@"
