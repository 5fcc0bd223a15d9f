#!/usr/bin/env bash
# Repository gate: formatting, one workspace-wide lint pass, the full test
# suite, a quick chronos-bench smoke run, and a build + unit-test run + quick
# end-to-end run of the repo benchmark (benchmark/ is its own workspace, so
# nothing else compiles, tests or runs it).
# Usage: scripts/check.sh [--bench] [--chaos] [--cluster]
#   --bench    also regenerate, at full scale, the BENCH_*.json of every
#              experiment `chronos-bench --list` names a report file for.
#              This overwrites the committed files, which also hold rows no
#              commit can regenerate any more (E9 baselines, E11
#              unbounded, E12 threaded — see EXPERIMENTS.md).
#   --chaos    also run the fault-injection suites (torture + chaos) with
#              --features failpoints under a fixed seed, and verify that the
#              default release build carries zero failpoint overhead
#   --cluster  also lint + run the replicated-control-plane suite: the
#              cluster storms (leader death mid-evaluation: exactly-once, and
#              mid-adaptive-evaluation: identical pruning decisions) at three
#              pinned seeds
#
# Every cargo build, lint, test and run passes --locked, for the root
# workspace and for benchmark/ alike: a change that would rewrite either
# Cargo.lock fails the gate instead of rewriting it. benchmark/Cargo.lock is
# tracked and lists the dependency edges of every crate it builds, so a
# dependency dropped from one of those crates needs that lock regenerated
# on purpose.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
# Enforces crates/core/clippy.toml too: only Tx (ChronosControl::write) writes the store
# (MetadataStore::{put, put_all, install_replication}), and only ChronosControl::apply,
# fed what a commit, an install or the open put into memory, writes the columnar tables
# (AnalyticsStore::{ingest, mark_fresh}) and the job membership and state counters
# (Derived::fold). And crates/agent/clippy.toml: no
# std::thread::sleep in the agent, whose per-job threads wait on a StopSignal instead.
# And crates/core/clippy.toml with the root clippy.toml: no workspace caller of
# chronos_api::v1::{JobDto, EvaluationDto}::to_json, kept only for benchmark/.
cargo clippy --locked --workspace --all-targets --offline -- -D warnings

echo "== cargo test =="
cargo test --locked -q --workspace --offline

echo "== wire compatibility: golden fixtures, encoders, decoders and the decoder fuzz wall =="
# Byte-for-byte check of every frozen request/response body against the
# typed chronos-api encoders, and of every entity fixture read back through
# the decoder the control plane stores and fetches it with, then encoded
# again. A diff here means the wire contract moved; if that is
# intentional, re-bless with CHRONOS_BLESS=1 and say so in the changelog.
# The same run holds the decoder fuzz wall
# (decoders_survive_mutated_fixtures): a fixed seed and budget of byte
# mutants of every fixture, which no decoder may panic on and which must
# re-encode byte-stably wherever they decode.
if ! cargo test --locked -q --offline --test wire_compat; then
    echo "FAIL: wire contract drifted from tests/fixtures/api_v1/, or a decoder panicked on or re-encoded unstably a fuzz-wall mutant (see above)" >&2
    exit 1
fi

echo "== generator determinism: golden op streams, draw sequences, SuE bytes and scan counters; a clone must match a load; scans, finds and index builds must match the model =="
# FNV-1a digests of every YCSB op stream (workloads a-f, threads 1 and 2,
# four field lengths, four record counts, three seeds, plus the load phase)
# and the first draws of every gen_range shape the generators use. A
# benchmark run is comparable with another commit's only while the same
# seed produces the same operations; a diff here means it no longer does.
# The same holds for what minidoc writes for those operations: the
# compressed blocks, log frames and CRCs (minidoc golden_blocks), the
# durable engines' log and checkpoint files, and the engine_stats of a
# seeded job per engine x workload (chronos-agent docstore_engine_stats),
# its operation counters included: a YCSB scan counts exactly once.
# A client hands repeated loads a copy of a kept image, so a clone must
# match a load: docstore_engine_stats runs the same jobs on copies against
# the same table, and minidoc engine_equivalence holds a copy of either
# engine to the model of everything written before and after the copy,
# its scans included. Finds and index builds run on the same engine scan:
# minidoc pushdown holds a full-scan find to the decoded filter, and
# index_build_race holds an index built during writes to the documents.
# And the durable files those pins cover must hold every acknowledged
# write: minidoc checkpoint_contract checkpoints each engine beside an
# inserter and an updater, within a time bound, and finds every
# acknowledged write after a reopen.
if ! cargo test --locked -q --offline -p chronos-workload --test golden_streams \
    || ! cargo test --locked -q --offline -p rand --test golden_sequences \
    || ! cargo test --locked -q --offline -p minidoc --test golden_blocks \
    || ! cargo test --locked -q --offline -p minidoc --test engine_equivalence \
    || ! cargo test --locked -q --offline -p minidoc --test pushdown \
    || ! cargo test --locked -q --offline -p minidoc --test index_build_race \
    || ! cargo test --locked -q --offline -p minidoc --test checkpoint_contract \
    || ! cargo test --locked -q --offline -p chronos-agent --test docstore_engine_stats; then
    echo "FAIL: generator output or scan counters moved, a clone no longer matches a load, a scan, find or index build no longer matches the model, or a checkpoint lost a write or hung: results across commits are no longer comparable" >&2
    exit 1
fi

cargo build --locked --release -p chronos-bench --offline
bench_bin="$PWD/target/release/chronos-bench"
# The experiments that write a report, straight from the binary's own
# table (`--list` prints "<id> [<report file>]" per experiment).
report_ids="$("$bench_bin" --list | awk 'NF == 2 { print $1 }' | xargs)"
report_files="$("$bench_bin" --list | awk 'NF == 2 { print $2 }' | xargs)"

echo "== chronos-bench smoke ($report_ids, quick sizes) =="
# Runs in a temp directory so the quick-size numbers don't clobber the
# committed full-scale BENCH_*.json files. E9 times the shipped read
# path only (no baseline arm, no ratio to assert); an unknown id or flag
# (E8 and E13 are retired) exits 2. E14 asserts failover within two leases and
# exactly-once results across it, E15 the adaptive invariants (budget
# <= 30% of the grid, deterministic replay, survivor == sampled argmax),
# and E16 the budget-watchdog invariants (<=2% overhead on compliant work,
# typed kills on runaway work), so the smoke doubles as a cluster +
# scheduling + isolation gate.
smoke_dir="$(mktemp -d)"
# shellcheck disable=SC2086  # word-split the id list on purpose
(cd "$smoke_dir" && "$bench_bin" $report_ids --quick --json)
for file in $report_files; do
    test -s "$smoke_dir/$file"
done
rm -rf "$smoke_dir"

echo "== overload protection gate (tests/overload.rs, accept_without_descriptors) =="
# One admission rule: every connection is admitted, and requests are
# bounded (workers in handlers, queue_depth waiting, the rest a typed 429
# on a connection that stays open); a request's deadline is checked once,
# when it gets its handler slot. Typed shed envelopes, the pinned 504,
# graceful drain, Retry-After cooperation, and a server out of descriptors
# that neither spins nor loses the pending connection — pinned explicitly,
# not just via the workspace run.
cargo test --locked -q --offline --test overload
cargo test --locked -q --offline -p chronos-http --test accept_without_descriptors

echo "== budget + quarantine gate (tests/quarantine.rs) =="
# Per-job resource budgets end to end: the watchdog kills a runaway with a
# typed budget_exceeded failure, max_attempts breaches land in Quarantined
# (never rescheduled, never re-claimed), compliant siblings finish exactly
# once, and unbudgeted experiments never arm the watchdog. Pinned
# explicitly like the overload gate — this is the containment contract.
cargo test --locked -q --offline --test quarantine

echo "== repo benchmark builds (benchmark/, its own workspace) =="
# chronos-benchmark links the crates' public API from outside the
# workspace; without this stage a deletion under crates/ could break the
# BENCHMARK.json command and no other gate would notice.
cargo build --locked --release --offline --manifest-path benchmark/Cargo.toml

echo "== repo benchmark unit tests =="
# The harness's own arithmetic: percentile rule, span self-time, stamp
# comparison, and BENCHMARK.json <-> metric-table agreement.
cargo test --locked -q --offline --manifest-path benchmark/Cargo.toml

echo "== repo benchmark, quick sizes: all four workloads and their output checks =="
# Under 15 s. The numbers are not comparable and nobody reads them here;
# the exit code is the gate. A run is incorrect (non-zero exit) when a
# repeated read is not byte-identical, summary rows / CSV lines / the job
# list disagree with the finished jobs, the restarted store serves another
# summary, or any operation failed — every one of which a wrong answer from
# the response cache would trip.
cargo run --locked --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --quick

for arg in "$@"; do
    case "$arg" in
    --bench)
        echo "== full-scale $report_ids -> BENCH_*.json =="
        # shellcheck disable=SC2086
        ./target/release/chronos-bench $report_ids --json
        ;;
    --chaos)
        echo "== fault injection: torture + chaos (--features failpoints) =="
        # A fixed seed keeps the fault schedule reproducible in CI; any
        # failure message carries the seed for local replay.
        CHRONOS_FAIL_SEED="${CHRONOS_FAIL_SEED:-20260807}" \
            cargo test --locked -q --offline --features failpoints --test torture --test chaos
        echo "== zero-overhead check: default build has no failpoint sites =="
        # The fail_eval! macro compiles to a constant None without the
        # feature, so site-name literals must not survive in the release
        # binary. Finding one means a call site bypassed the macro gate.
        if grep -qa "core.store.wal.append" "$bench_bin"; then
            echo "FAIL: failpoint site strings found in release binary" >&2
            exit 1
        fi
        ;;
    --cluster)
        echo "== clippy with failpoints (deny warnings) =="
        # The storm module and every fail_eval! site only compile under
        # the feature; hold them to the same bar as the default build.
        cargo clippy --locked --workspace --all-targets --offline --features failpoints -- -D warnings
        echo "== cluster storms: leader death mid-evaluation, 3 pinned seeds =="
        # Replicated control plane under a seeded fault storm: new leader
        # within the lease budget, every job finished exactly once,
        # follower reads inside the staleness bound — and for the adaptive
        # storm, the successive-halving decision log assembled across the
        # failover must equal a fresh single-node replay. The default seed
        # (0xBADCAB) plus two more; a failure prints its replay seed.
        cargo test --locked -q --offline --features failpoints --test cluster
        for seed in 7 20260809; do
            CHRONOS_FAIL_SEED="$seed" \
                cargo test --locked -q --offline --features failpoints --test cluster
        done
        ;;
    esac
done

echo "OK"
