#!/usr/bin/env bash
# Tier-1 verification, exactly what CI runs. Fully offline: the
# workspace has no external dependencies (see the workspace Cargo.toml
# for how to restore the optional proptest/criterion extras).
#
#   scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo build --release"
cargo build --workspace --release --offline

echo "== cargo test"
cargo test --workspace --offline -q

# `cargo test --workspace` above already runs every suite in the
# default SIMD dispatch: evented framing + soak, snapshot and mmap
# round trips and corruption batteries, WAL recovery, replication and
# compaction e2e, untagged routing, the embed crate, and the batched /
# bucketed verification differentials with the zero-alloc pins.

echo "== verification differentials on the forced-scalar dispatch"
# The batched and bucketed kernels must return bit-identical verdicts
# to the scalar Verifier on every backend. This pass re-runs them in a
# fresh process with the runtime dispatch pinned to the scalar DP
# column (the OnceLock caches the level per process, so the override
# needs its own invocation).
LEXEQUAL_FORCE_SCALAR=1 cargo test -p lexequal --offline -q \
    --test verify_batch_equiv --test bucketed_scan_equiv

echo "== embedding prefilter A/B smoke"
# Must report embed rejections without changing a single answer (the
# bench asserts ids-identical internally).
cargo run --release -p lexequal-service --offline --bin loadgen -- \
    --prefilter-bench --size 2000 --pool 16 \
    --prefilter-out results/prefilter_bench_ci.json
rm -f results/prefilter_bench_ci.json

echo "== replication bench (small run; full size via --size/--repl-ops)"
cargo run --release -p lexequal-service --offline --bin loadgen -- \
    --repl-bench --size 2000 --repl-ops 200 --repl-out results/repl_bench_ci.json
rm -f results/repl_bench_ci.json

echo "== snapshot cold-start timing (small run; full size via --size)"
# Scratch dir: --snapshot-bench also writes a sibling mmap_bench.json,
# and the CI smoke run must not clobber the full-size artifacts.
mkdir -p results/ci_scratch
cargo run --release -p lexequal-service --offline --bin loadgen -- \
    --snapshot-bench --size 5000 --snapshot-out results/ci_scratch/snapshot_bench_ci.json
rm -rf results/ci_scratch

echo "== compaction soak (small run; full size via --size/--compaction-ops)"
# Self-checking: the bench exits non-zero if the replica ends lagged or
# any battery answer differs between primary and replica.
cargo run --release -p lexequal-service --offline --bin loadgen -- \
    --compaction-bench --size 1500 --compaction-ops 600 --wal-max-bytes 16384 \
    --compaction-out results/compaction_bench_ci.json
rm -f results/compaction_bench_ci.json

echo "== untagged bench (small run; full size via --size/--ops)"
cargo run --release -p lexequal-service --offline --bin loadgen -- \
    --untagged-bench --size 2000 --ops 100 \
    --untagged-out results/untagged_bench_ci.json
rm -f results/untagged_bench_ci.json

echo "== cargo bench --no-run"
# Compile-checks the bench harnesses. The criterion micro-benchmarks are
# behind required-features = ["criterion-benches"], so without the
# restored criterion dependency this covers the bench *binaries* only.
cargo bench --workspace --offline --no-run

echo "ci: all green"
