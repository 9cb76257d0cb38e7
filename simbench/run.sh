#!/usr/bin/env bash
# Builds simbench from this checkout's sources and runs one
# workload. Run it from the repository root:
#
#   bash simbench/run.sh --workload load --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the Go tool's own config (telemetry
# counters) live in .bench_build/ at the root, so the benchmark writes
# nothing outside the checkout. Outside a full checkout the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/simbench" .) >&2
exec "$out/simbench" "$@"
