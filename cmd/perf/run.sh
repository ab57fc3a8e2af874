#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the root of a checkout:
#
#   bash cmd/perf/run.sh --workload rmat-agglom --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (compiler cache, binary, scratch
# files) stays under .bench_build at the checkout root. The build needs the
# repository's root module next to this one, so outside a full checkout it
# fails and the script exits non-zero without running anything.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/cmd/perf" && go build -buildvcs=false -o "$out/perf" .)
cd "$root"
exec "$out/perf" "$@"
