#!/usr/bin/env bash
# Builds the xkwperf benchmark from this checkout and runs it, passing the
# arguments through, e.g.
#
#   bash xkwperf/run.sh --workload topk --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files,
# the binary, the benchmark's index files and its span files all stay
# under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/xkwperf" && go build -o "$out/bin/xkwperf" .)
exec "$out/bin/xkwperf" -out "$out/xkwperf" "$@"
