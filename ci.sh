#!/usr/bin/env bash
# CI entry point: tier-1 verify plus a smoke pass of every benchmark
# binary at --quick scale. Fails fast on the first error.
set -euo pipefail
cd "$(dirname "$0")"

# pin <label> <expected text> <output>: fails unless a run's output
# carries its committed quick-scale digest. The binaries already check
# that a run agrees with itself across threads and reruns; a pin also
# catches a change that shifts the books consistently everywhere.
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

echo "== workspace tests (all crates) =="
cargo test --workspace -q

echo "== bench binaries, --quick smoke =="
cargo build --release -p bench-harness
for bin in table1 table2_3 fig8 fig9 fig10 fig11 ablations cq_bench; do
    echo "-- $bin --quick"
    ./target/release/"$bin" --quick >/dev/null
done

echo "== golden access traces =="
# Committed goldens: tile is format v1 (recorded before batching — its
# passing proves the canonicalizing expander's compatibility path),
# cfrac is format v2 (range records).
./target/release/fig10 --quick --check-golden tile
./target/release/fig10 --quick --check-golden cfrac
# Remaining workloads: record fresh, then immediately re-check, so every
# access stream is exercised through the golden writer+reader round trip
# and any in-run nondeterminism fails CI.
for wl in grobner mudlle lcc moss; do
    ./target/release/fig10 --quick --record-golden "$wl" >/dev/null
    ./target/release/fig10 --quick --check-golden "$wl"
done

echo "== golden end-states (RSNP snapshots, field-level diff on drift) =="
# Committed full runtime snapshots of the safe-region end state for tile
# and cfrac; a byte mismatch is reported by the first drifted field
# (region id / heap page / counter name) via bench::diff.
./target/release/fig10 --quick --check-golden-state tile
./target/release/fig10 --quick --check-golden-state cfrac

echo "== snapshot round-trip + corrupt-input rejection (DESIGN §14) =="
# Every-prefix replay equality, truncation/bit-flip/bad-header typed
# rejection, and the doctored-books sanitize gate live in the core lib
# and property suites.
cargo test -q -p region-core --lib snapshot
cargo test -q -p region-core --test snapshot_props

echo "== kill-and-restore chaos (>=20 seeded kill points), sanitize on =="
# Quick pass replays 25 kill-restores to digest equality and feeds the
# corrupt-snapshot battery; the 100-seed sweep runs in the full (non
# --quick) chaos invocation.
REGION_SANITIZE=1 ./target/release/chaos --quick --scenario kill-restore >/dev/null

echo "== parallel region pool smoke (digest + audit, sanitize on) =="
# Also covers the shared-space shard mode: four logical shards of one
# address space at 1/2/N threads must land on one digest.
out=$(REGION_SANITIZE=1 BENCH_WORKERS="${BENCH_WORKERS:-4}" ./target/release/par_regions --quick)
pin par_regions "digest 471f331a38ddbab5;" "$out"
pin "par_regions shared" "digest c1ba0be64bacbe0d identical" "$out"

echo "== shard parity suite (W=1 bit-parity + canonical merge), sanitize on =="
# A runtime on the single shard of a one-worker SharedSpace must be
# observationally identical to one on a private SimHeap; W>1 merges must
# be bit-identical across seeded and real-thread schedules (DESIGN §15).
REGION_SANITIZE=1 cargo test -q -p region-core --test shard_props

echo "== world snapshots: v1 still reads, v2 round-trips =="
# RSNP v1 single-runtime snapshots (checked above) and the v2 sharded
# world format live side by side; v1/v2 streams must reject each other
# with typed errors, and a restored world re-captures byte-identically.
cargo test -q -p region-core --lib world

echo "== shard A/B (records BENCH_shard quick variant) =="
# Private SimHeap vs W=1 shard books bit-identical; the 4-shard shared
# world digest thread-count-independent. The committed BENCH_shard.json
# is the default-scale record; the quick rerun goes to target/.
BENCH_SHARD_OUT=target/BENCH_shard_quick.json \
    ./target/release/par_regions --shard-ab --quick >/dev/null

echo "== chaos soak (fault injection + sanitizer + VM), --quick =="
./target/release/chaos --quick >/dev/null

echo "== par-chaos: contained worker faults, quarantine + reap, sanitize on =="
# Phase 2 reruns the panic chaos on one shared address space: abandoned
# shard runtimes sanitize clean, the mirror audit passes, and every
# round's world snapshot capture->restore->recapture is byte-equal.
out=$(REGION_SANITIZE=1 ./target/release/chaos --quick --scenario par-chaos)
pin par-chaos "digest 3840349d876ec331 (bit-identical re-run)" "$out"

echo "== region service under adversity (deadlines, backpressure, quarantine) =="
# Quick soak of the long-lived region service: books asserted
# byte-identical at 1/2/4 OS threads and across a same-seed rerun,
# ledger conserved, every quarantined region reaped. The committed
# BENCH_server.json is the full-scale record; the quick rerun goes to
# target/ so it can't clobber it. The quick books are pinned.
out=$(REGION_SANITIZE=1 BENCH_SERVER_OUT=target/BENCH_server_quick.json \
    ./target/release/server --quick)
pin "server books" "books 4d44ec2fd9b9b10a identical" "$out"

echo "== deleteregion budget sweep (inf vs 64 vs 1, DESIGN §17) =="
# The server binary already asserts the encoded books byte-identical
# against one opposite-budget arm internally; this sweep additionally
# proves the results-v3 envelope (checksums, allocs, pages) identical
# across an unbounded, a 64-unit and a 1-unit deletion budget — only
# the wall-clock and pause columns may drift (--ignore-time).
for b in inf 64 1; do
    out=$(REGION_SANITIZE=1 BENCH_SERVER_OUT="target/BENCH_server_b$b.json" \
        ./target/release/server --quick --delete-budget "$b")
    pin "server books at budget $b" "books 4d44ec2fd9b9b10a identical" "$out"
    cp results/server.json "target/server_b$b.json"
done
./target/release/compare_results target/server_binf.json target/server_b64.json --ignore-time >/dev/null
./target/release/compare_results target/server_b64.json target/server_b1.json --ignore-time >/dev/null
# Full-adversity service chaos (now including the incremental-deletion
# budget arms at 64 and 1): injected faults + panics + watermark
# pressure, conservation and clean sanitize/audit every round.
out=$(REGION_SANITIZE=1 ./target/release/chaos --quick --scenario server-chaos)
pin server-chaos "digest 78a897ddcbc7eabc (bit-identical re-run)" "$out"

echo "== elision differential (vm-chaos A/B, sanitize on) =="
# Every random C@ program runs twice — paper-faithful codegen vs the
# sameregion inference pass — and must be bit-identical in output, VM
# instruction count, and final-heap digest, with a conserved barrier
# split and zero ElisionUnsound violations, under the region sanitizer.
REGION_SANITIZE=1 ./target/release/chaos --quick --scenario vm-chaos >/dev/null
REGION_SANITIZE=1 cargo test -q -p cq-lang

echo "== elision A/B on the workload suite (records BENCH_elision.json) =="
# Interleaved min-of-N with the hand-annotated sameregion stores off/on;
# asserts identical checksums, a conserved barrier split, deterministic
# counters across reps, and a reduction on grobner/tile/mudlle. The
# committed BENCH_elision.json is the default-scale record; the quick
# rerun goes to target/ so it can't clobber it.
BENCH_ELISION_OUT=target/BENCH_elision_quick.json \
    ./target/release/fig11 --elision-ab --quick >/dev/null

echo "== REGION_SANITIZE=1 smoke (one fig8 row, audited after the run) =="
REGION_SANITIZE=1 ./target/release/fig8 --quick --only tile >/dev/null

echo "== scan-batching parity under the sanitizer =="
# The GC/malloc range conversions (DESIGN §11 producer table) changed
# golden-trace *record counts* but must never change the word-level
# stream, the charge counters, or any cache statistic. These suites
# prove it property-by-property and for a full collect cycle.
REGION_SANITIZE=1 cargo test -q -p simheap --test props
REGION_SANITIZE=1 cargo test -q -p conservative-gc --test scan_parity

echo "== results schema self-compare =="
./target/release/compare_results results/fig8.json results/fig8.json --ignore-time >/dev/null
# fig10 was re-recorded after the range conversions; the quick run above
# rewrote it, so this checks the committed counters survived the rewrite.
./target/release/compare_results results/fig10.json results/fig10.json --ignore-time >/dev/null
# fig11/cq_bench now carry the barriers_elided column (missing-as-zero
# for documents recorded before it existed); the quick runs above wrote
# them with elision off/on respectively.
./target/release/compare_results results/fig11.json results/fig11.json --ignore-time >/dev/null
./target/release/compare_results results/cq_bench.json results/cq_bench.json --ignore-time >/dev/null
# (server's quick books are pinned at the service step above.)

echo "== criterion benches, quick mode =="
BENCH_QUICK=1 cargo bench -p bench-harness >/dev/null

echo "ci.sh: all green"
