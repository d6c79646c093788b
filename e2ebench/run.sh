#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root, for example:
#
#   bash e2ebench/run.sh --workload serve-direct --seed 42 --seconds 15 --trace 0
#
# Everything the go command and the benchmark write — build cache, module
# path, Go's config directory (telemetry), the binary and the scratch
# files — lives under $CARGO_TARGET_DIR (default .bench_build) in the
# current directory.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --work "$out/work" "$@"
