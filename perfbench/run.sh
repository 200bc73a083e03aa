#!/usr/bin/env bash
# Builds the perfbench program from the checkout's sources and runs it.
# Run from the repository root; every argument is passed through:
#
#   bash perfbench/run.sh --workload litmus --seed 1 --seconds 20 --trace 0
#
# Build caches, the binary, traces and scratch files all live under
# .bench_build/ in the checkout, so nothing is written outside it.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
  exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
# A fault-injection plan in the environment would turn the service
# workload into a chaos test.
unset SPECTRED_FAULTS

bin="$out/perfbench.bin"
tmpbin="$bin.$$"
if ! go -C "$root/perfbench" build -trimpath -o "$tmpbin" . 1>&2; then
  rm -f "$tmpbin"
  echo "perfbench: build failed" >&2
  exit 1
fi
mv -f "$tmpbin" "$bin"

commit=""
if [[ -e "$root/.git" ]] && command -v git >/dev/null 2>&1 && git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
  commit="$(git -C "$root" rev-parse HEAD)"
fi
export PERFBENCH_COMMIT="${commit:-unknown}"
exec "$bin" "$@"
