#!/usr/bin/env bash
# CI entry point: tier-1 verify plus a smoke pass of every benchmark
# binary at --quick scale. Fails fast on the first error.
set -euo pipefail
cd "$(dirname "$0")"

# pin <label> <expected text> <output>: fails unless a run's output
# carries the expected text. Digests are pinned by tests, not here:
# tests/chaos_pins.rs (chaos soak, par_regions) and tests/integration.rs
# (trace hashes, service books).
pin() {
    if ! grep -qF -- "$2" <<<"$3"; then
        echo "ci.sh: $1 drifted: expected '$2' in its output" >&2
        exit 1
    fi
}

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== workspace tests (every crate but the root package) =="
# tier-1 above ran the root package. This one step runs every other
# crate's suites, among them:
# - snapshot round-trip and corrupt-input rejection, the doctored-books
#   sanitize gate and the field-log byte sweep (region-core lib
#   `snapshot`, tests/snapshot_props, bench-harness lib `diff`;
#   DESIGN §14);
# - shard parity: W=1 bit-parity and the canonical W>1 merge
#   (region-core tests/shard_props; DESIGN §15);
# - world snapshots: v1/v2 streams reject each other with typed errors
#   and a restored world re-captures byte-identically (region-core lib
#   `world`);
# - the sameregion inference pass (cq-lang; vm-chaos in
#   tests/chaos_pins.rs runs every random C@ program with and without it);
# - scan-batching parity: the GC/malloc range conversions (DESIGN §11)
#   change golden-trace record counts but never the word-level stream,
#   the charge counters or a cache statistic (simheap tests/props,
#   conservative-gc tests/scan_parity).
cargo test --workspace --exclude explicit-regions -q

echo "== bench binaries, --quick smoke =="
# --quick runs write their results under target/quick-results/, never
# over the committed full-scale results/*.json. chaos and par_regions
# assert their own determinism and floors; tests/chaos_pins.rs pins
# their digests.
cargo build --release -p bench-harness
for bin in table1 table2_3 fig8 fig9 fig10 fig11 ablations cq_bench chaos par_regions; do
    echo "-- $bin --quick"
    ./target/release/"$bin" --quick >/dev/null
done

echo "== golden access traces =="
# Committed goldens: tile is format v1 (recorded before batching — its
# passing proves the canonicalizing expander's compatibility path),
# cfrac is format v2 (range records).
./target/release/fig10 --quick --check-golden tile
./target/release/fig10 --quick --check-golden cfrac
# The other four workloads have no committed trace file; tier-1's
# fresh_trace_recordings_keep_their_pinned_hashes pins their streams.

echo "== golden end-states (RSNP snapshots, field-level diff on drift) =="
# Committed full runtime snapshots of the safe-region end state for tile
# and cfrac; a byte mismatch is reported by the first drifted field
# (region id / heap page / counter name), named by the restore decode's
# field log (region_core::snapshot_fields, compared in bench::diff).
./target/release/fig10 --quick --check-golden-state tile
./target/release/fig10 --quick --check-golden-state cfrac

echo "== shard A/B (records BENCH_shard quick variant) =="
# Private SimHeap vs W=1 shard books bit-identical; the 4-shard shared
# world digest thread-count-independent. The committed BENCH_shard.json
# is the default-scale record; the quick rerun goes to
# target/quick-results/.
./target/release/par_regions --shard-ab --quick >/dev/null

echo "== region service: unknown arguments are refused =="
# Bad input fails with a message and exit 2, never a panic or a silent
# default: the removed --open-loop flag must be refused, not ignored.
rc=0
out=$(./target/release/server --quick --open-loop 5000 2>&1) || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "ci.sh: server --open-loop exited $rc, want 2" >&2
    exit 1
fi
pin "server --open-loop refusal" "unknown argument: --open-loop" "$out"

echo "== region service under adversity: deleteregion budget sweep (inf vs 64 vs 1, DESIGN §17) =="
# Quick soaks of the long-lived region service: the binary asserts its
# books byte-identical at 1/2/4 OS threads, across a same-seed rerun and
# against one opposite-budget arm, the ledger conserved and every region
# a crash stranded reclaimed by its retry. Its first arm runs on a fresh
# host and the others on the warm host the arm before left (DESIGN
# §16.2). This sweep additionally proves the results-v3 envelope
# (checksums, allocs, pages) identical across an unbounded, a 64-unit
# (the default) and a 1-unit deletion budget — only the wall-clock and
# pause columns may drift (--ignore-time). The committed
# BENCH_server.json is the full-scale record; quick runs write under
# target/quick-results/.
for b in inf 64 1; do
    REGION_SANITIZE=1 ./target/release/server --quick --delete-budget "$b" >/dev/null
    cp target/quick-results/server.json "target/server_b$b.json"
done
./target/release/compare_results target/server_binf.json target/server_b64.json --ignore-time >/dev/null
./target/release/compare_results target/server_b64.json target/server_b1.json --ignore-time >/dev/null

echo "== elision A/B on the workload suite (records BENCH_elision.json) =="
# Interleaved min-of-N with the hand-annotated sameregion stores off/on;
# asserts identical checksums, a conserved barrier split, deterministic
# counters across reps, and a reduction on grobner/tile/mudlle. The
# committed BENCH_elision.json is the default-scale record; the quick
# rerun goes to target/quick-results/ so it can't clobber it.
./target/release/fig11 --elision-ab --quick >/dev/null

echo "== REGION_SANITIZE=1 smoke (one fig8 row, audited after the run) =="
REGION_SANITIZE=1 ./target/release/fig8 --quick --only tile >/dev/null

echo "== quick results against their committed baselines =="
# Every deterministic counter of the quick smoke runs (footprint, cache
# stalls, safety-cost and VM counts, allocation totals, checksums) must
# equal the committed quick-scale baseline in results/quick/; only
# wall-clock fields are ignored. fig9 carries the parallel-pass column.
for bench in fig8 fig9 fig10 fig11 table2_3 cq_bench; do
    ./target/release/compare_results "results/quick/$bench.json" \
        "target/quick-results/$bench.json" --ignore-time >/dev/null
done
# (tier-1's service_books_match_their_quick_pin pins server's quick books.)

echo "== perfbench correctness gate (paper-safe, service) =="
# A short run of each benchmark workload. perfbench exits 1 without a
# result when a checksum, AllocStats, SafetyCosts, os_pages or the
# service books drift (perfbench/README.md), so a SimHeap change that
# shifts any of them fails here.
for wl in paper-safe service; do
    out=$(CARGO_TARGET_DIR=.bench_build cargo run --release --offline --quiet \
        --manifest-path perfbench/Cargo.toml -- \
        --workload "$wl" --seed 1 --seconds 2 --trace 0 | tail -n 1)
    pin "perfbench $wl" '"correct": true' "$out"
done

echo "== criterion benches, quick mode =="
BENCH_QUICK=1 cargo bench -p bench-harness >/dev/null

echo "ci.sh: all green"
