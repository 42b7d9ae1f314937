#!/usr/bin/env bash
# Builds the benchmark runner from source and runs it with the given
# arguments, from the root of the repository (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload dense-inproc --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and every file the toolchain would
# otherwise write under $HOME or /tmp stay in .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
