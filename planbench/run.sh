#!/usr/bin/env bash
# Builds the planning-service benchmark from the sources of this checkout and
# runs it with the given arguments, e.g.
#
#   bash planbench/run.sh --workload hit-heavy --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, module cache) stays
# under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
(cd "$root/planbench" && go build -o "$out/planbench" .)
cd "$root"
exec "$out/planbench" "$@"
