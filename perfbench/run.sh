#!/usr/bin/env bash
# run.sh builds cmd/reproduce and the perfbench command from source, then
# runs perfbench with the arguments given. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload accuracy-cold --seed 1 --seconds 45 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory: the binaries, the Go build cache and the temporary stores.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go build -o "$out/reproduce" ./cmd/reproduce
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -reproduce "$out/reproduce" -work "$out/tmp" "$@"
