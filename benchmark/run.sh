#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout.
# The driver's form runs one workload in one process:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# and without --workload the arguments are the benchmark's own (README.md):
#
#   bash benchmark/run.sh [-seed N] [-trace 1] [-repeat N] [-smoke] [-reverse]
#
# The benchmark is a module of its own (benchmark/go.mod) that replaces the
# module "repro" with the checkout around it. Everything the build writes
# stays inside the checkout, under .bench_build/ (the Go build cache and the
# go command's scratch space included; the go command reads no configuration
# from outside), and the run writes only to benchmark/out/. In a directory
# without the repository's go.mod and internal/ packages the build fails and
# no result is printed.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
