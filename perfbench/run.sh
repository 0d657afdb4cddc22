#!/usr/bin/env bash
# Builds perfbench from source, prepares the dataset cache once (untimed:
# graph generation and TransE training), then runs one workload. Run it
# from the repository root; everything it writes stays in .bench_build:
#
#   bash perfbench/run.sh --workload topk-amazon-warm --seed 1 --seconds 15 --trace 0
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C perfbench -o "$out/perfbench" .
"$out/perfbench" prepare >&2
exec "$out/perfbench" "$@"
