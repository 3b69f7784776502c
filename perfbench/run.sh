#!/usr/bin/env bash
# Builds uwm-serve, uwm-gateway and the perfbench program from this
# checkout's sources, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload gate-mix --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR when set, else .bench_build) inside the
# checkout: Go's build cache, the binaries, logs, span files and the
# per-seed determinism records.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/uwm-serve || ! -d cmd/uwm-gateway ]]; then
	echo "perfbench: $root is not a uwm source checkout (go.mod and cmd/ are missing)" >&2
	exit 2
fi
if ! command -v go >/dev/null; then
	echo "perfbench: the go toolchain is not on PATH" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/tmp" "$build/config" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" HOME="$build/home" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off

go build -o "$build/bin/" ./cmd/uwm-serve ./cmd/uwm-gateway >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" -out "$build/perfbench" "$@"
