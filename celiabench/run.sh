#!/usr/bin/env bash
# Builds celiabench and cmd/celia-server from the checkout this script
# sits in, then runs the benchmark with the given arguments, e.g.
#
#   bash celiabench/run.sh --workload interactive --seed 1 --seconds 10 --trace 0
#
# Binaries, the Go build cache, snapshots and span files stay under
# .bench_build/ at the checkout root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/celia-server" || ! -d "$root/internal" ]]; then
	echo "celiabench: $root is not a celia checkout (no go.mod, cmd/celia-server or internal/)" >&2
	exit 2
fi

out="$root/.bench_build/celiabench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/celiabench" .)
(cd "$root" && go build -o "$out/celia-server" ./cmd/celia-server)
exec "$out/celiabench" --root "$root" --server "$out/celia-server" --work "$out" "$@"
