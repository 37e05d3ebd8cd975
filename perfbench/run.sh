#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash perfbench/run.sh --workload replay-churn --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root: the Go build cache, temporary build files, the
# binary, and the generated input files.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/work"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The go command keeps its env file and telemetry counters under the
# user config directory; point that inside the build directory too.
export XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --workdir "$out/work" "$@"
