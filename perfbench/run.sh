#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload clr-bsp --seed 1 --seconds 32 --trace 0
#
# Everything the build and the run write (binary, Go build cache, the Go
# tool's own config and temporary files, trace spans) goes under
# $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans "$out/spans" "$@"
