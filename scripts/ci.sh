#!/usr/bin/env bash
# CI gate for the AutoExecutor workspace.
#
# Runs the tier-1 verification (release build + tests), a release build of
# the perfbench benchmark package (its own workspace, so it breaks CI when
# it still uses a removed ae-serve API), lint/format gates
# over every workspace crate (including ae-serve), a rustdoc gate (no-deps
# docs must build with zero warnings), a quick criterion smoke over the two
# benches most sensitive to scheduler/training regressions, a serving smoke
# (short fixed-duration bench_serving run that must sustain qps > 0 with
# zero dropped requests), an inference smoke (compiled-forest output must
# be bit-identical to the interpreted forest and its batched throughput at
# least the interpreted baseline's), a QoS smoke (tagged open-loop phases: finite
# miss/shed rates, the Interactive deadline budget holding at moderate
# load, Interactive p99 < BestEffort p99 under overload, and no tenant
# starvation), a cross-family
# generalization smoke (train on the TPC-DS-like family, score the
# TPC-H-like and skew-adversarial ones, assert the accuracy matrix is
# complete and finite), and a fault smoke (zero-fault injection is
# bit-identical to the fault-unaware scheduler, >= 99% of queries complete
# via retry at moderate preemption, and the serving circuit breaker trips
# to the heuristic fallback and recovers), and an observability smoke
# (serving-trace render/parse roundtrip bit-identical, capture→replay
# determinism gate reports zero mismatches, and the measured overhead of
# attaching metrics + event tracing to the runtime stays under the smoke
# bound), and a fleet smoke (sharded serving under the shard-=-node
# measurement model: 4-shard aggregate qps at least 2x single-shard,
# finite per-shard p99 skew, zero dropped/errored requests, and a live
# work-steal drill), and a resilience smoke (one full shard failure
# lifecycle per fleet size: zero lost tickets, surviving goodput >= 60%
# of pre-kill through a 1-of-4 shard crash, and probationary recovery
# re-admitting the revived shard). Every driver smoke also writes its JSON
# report to a temporary file and checks that it parses. Pass --full to
# also run the full bench suite (slow).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> perfbench build (a separate workspace: plain cargo build skips it)"
CARGO_TARGET_DIR=.bench_build cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q --offline

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo doc --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --quiet

echo "==> bench smoke (quick samples)"
cargo bench --offline -p ae-bench --bench bench_simulation -- --quick
cargo bench --offline -p ae-bench --bench bench_training -- --quick forest_fit

# Runs one bench driver's --smoke gate with a JSON report, then checks that
# the report parses as JSON.
smoke() {
    local json
    json="$(mktemp -t "${1#bench_}-smoke.XXXXXX.json")"
    cargo run --offline --release -p ae-bench --bin "$1" -- --smoke --json "$json"
    python3 -m json.tool "$json" > /dev/null
}

echo "==> inference smoke (compiled forest ≡ interpreter bit-for-bit; compiled batched throughput >= interpreted)"
smoke bench_inference

echo "==> serving smoke (fixed-duration run; asserts qps > 0, zero dropped)"
smoke bench_serving

echo "==> qos smoke (moderate + overload phases; asserts finite rates, Interactive budget holds at moderate load, Interactive p99 < BestEffort p99 under overload, no tenant starvation)"
smoke bench_qos

echo "==> generalization smoke (train tpcds, score tpch + skew; asserts a full finite matrix)"
smoke bench_generalization

echo "==> fault smoke (zero-fault pin bit-identical, >= 99% completion via retry at moderate preemption, breaker trips to the heuristic fallback and recovers)"
smoke bench_faults

echo "==> obs smoke (trace roundtrip bit-identical, capture→replay determinism gate clean, obs overhead under bound)"
smoke bench_obs

echo "==> fleet smoke (4-shard aggregate qps >= 2x single-shard, finite per-shard p99 skew, zero dropped/errors)"
smoke bench_fleet

echo "==> resilience smoke (1-of-4 shard kill: zero lost tickets, >= 60% goodput retained, probation re-admits)"
smoke bench_resilience

if [[ "${1:-}" == "--full" ]]; then
    echo "==> full bench suite"
    cargo bench --offline -p ae-bench
fi

echo "CI OK"
