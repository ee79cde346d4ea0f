#!/usr/bin/env bash
# Builds the closed-loop benchmark from source and runs it. Run from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache) lands under
# .bench_build/ in the checkout. The benchmark links the repository's
# own packages, so outside a full checkout the build fails and the run
# exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/fleet" ]]; then
	echo "perfbench: run from the root of a full checkout (no go.mod or internal/fleet here)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
# No toolchain download, no module proxy, no user Go settings: the build
# needs nothing outside the checkout and the installed Go toolchain.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
