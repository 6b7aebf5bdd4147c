#!/bin/sh
# Build the benchmark and the vuvuzela-server daemon from this checkout's
# sources, then run the benchmark with the given arguments:
#
#   sh benchmark/run.sh --workload conv-steady --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the benchmark's result line stays the
# last line of stdout.
set -eu
dune build --root . bin/server_main.exe benchmark/run.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
