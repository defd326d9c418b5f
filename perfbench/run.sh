#!/usr/bin/env bash
# Builds jsrevealer and the benchmark driver from this checkout, then runs
# one workload. Every build and run artifact stays under .bench_build/ at the
# checkout root.
#
#   bash perfbench/run.sh --workload bulk-cold|serve-repeat \
#       --seed N --seconds S --trace 0|1
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"

# Keep the Go toolchain's caches and config inside the checkout, never
# fetch anything, and ignore the caller's Go environment.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off \
    GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
    HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
    TMPDIR="$build/tmp" CGO_ENABLED=0

(cd "$root" && go build -o "$build/bin/jsrevealer" ./cmd/jsrevealer)
(cd "$here" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -bin "$build/bin/jsrevealer" -rules "$here/rules" \
    -work "$build/work" "$@"
