#!/usr/bin/env bash
# The benchmark's one command: builds the server and the harness from
# source (compile time is outside every metric), then runs the harness.
#
#   bash benchmark/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]
#
# Both builds go to $CARGO_TARGET_DIR when it is set (relative paths are
# taken from the repository root); otherwise the server builds into the
# root `target/` and the harness into `benchmark/target/`.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    case "$CARGO_TARGET_DIR" in
        /*) ;;
        *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
    esac
    export CARGO_TARGET_DIR
    server_target="$CARGO_TARGET_DIR"
    harness_target="$CARGO_TARGET_DIR"
else
    server_target="$PWD/target"
    harness_target="$PWD/benchmark/target"
fi

# Build chatter goes to stderr: stdout's last line is the result.
cargo build --release --quiet -p malthus-pool --bin kv_server 1>&2
cargo build --release --quiet --manifest-path benchmark/Cargo.toml 1>&2

exec "$harness_target/release/e2e" --server-bin "$server_target/release/kv_server" "$@"
