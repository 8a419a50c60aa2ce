#!/usr/bin/env bash
# Builds and runs minshare's benchmark from the repository root:
#
#   bash perfbench/run.sh --workload cold-intersect --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache, temporary files and the binary all
# live under .bench_build/ so a run reads and writes nothing outside the
# checkout.  The first run fills the build cache; later runs relink in
# about a second.  No network is used: the only module dependency is the
# enclosing repository, replaced by its directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
