#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one measuring process (the BENCHMARK.json contract): end-to-end
#       metrics with --trace 0, per-layer metrics with --trace 1; the last
#       stdout line is the result object.
#   benchmark/run.sh [--seed N]   every workload, untraced then traced
#   benchmark/run.sh --check      every workload twice at 1/32 size; every
#                                 exact metric must be bit-equal (<30 s)
#   benchmark/run.sh --aa         two full untraced sets back to back
#
# Builds the benchmark package (release, offline) first. Build output goes
# to stderr so stdout carries only results.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2
bin="$CARGO_TARGET_DIR/release"

workload=0
trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
    --workload) workload=1 ;;
    --trace) trace="${args[i + 1]:-0}" ;;
    esac
done

if [[ $workload == 1 ]]; then
    if [[ $trace == 1 ]]; then
        exec "$bin/vgasbench-trace" "$@"
    fi
    exec "$bin/vgasbench" "$@"
fi
exec "$bin/vgasbench" suite "$@"
