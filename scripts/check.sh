#!/usr/bin/env bash
# Repository gate: formatting, one workspace-wide lint pass, the full test
# suite, a quick chronos-bench smoke run, and a build + unit-test run + quick
# end-to-end run of the repo benchmark (benchmark/ is its own workspace, so
# nothing else compiles, tests or runs it).
# Usage: scripts/check.sh [--bench] [--chaos] [--cluster]
#   --bench    also regenerate, at full scale, the BENCH_*.json of every
#              experiment `chronos-bench --list` names a report file for.
#              This overwrites the committed files, which also hold rows no
#              commit can regenerate any more (E8/E9 baselines, E11
#              unbounded, E12 threaded — see EXPERIMENTS.md).
#   --chaos    also run the fault-injection suites (torture + chaos) with
#              --features failpoints under a fixed seed, and verify that the
#              default release build carries zero failpoint overhead
#   --cluster  also lint + run the replicated-control-plane suite: the
#              cluster storms (leader death mid-evaluation: exactly-once, and
#              mid-adaptive-evaluation: identical pruning decisions) at three
#              pinned seeds
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test =="
cargo test -q --workspace --offline

echo "== wire compatibility: golden fixtures =="
# Byte-for-byte check of every frozen request/response body against the
# typed chronos-api encoders. A diff here means the wire contract moved;
# if that is intentional, re-bless with CHRONOS_BLESS=1 and say so in the
# changelog.
if ! cargo test -q --offline --test wire_compat; then
    echo "FAIL: wire contract drifted from tests/fixtures/api_v1/ (see above)" >&2
    exit 1
fi

cargo build --release -p chronos-bench --offline
bench_bin="$PWD/target/release/chronos-bench"
# The experiments that write a report, straight from the binary's own
# table (`--list` prints "<id> [<report file>]" per experiment).
report_ids="$("$bench_bin" --list | awk 'NF == 2 { print $1 }' | xargs)"
report_files="$("$bench_bin" --list | awk 'NF == 2 { print $2 }' | xargs)"

echo "== chronos-bench smoke ($report_ids, quick sizes) =="
# Runs in a temp directory so the quick-size numbers don't clobber the
# committed full-scale BENCH_*.json files. E8 and E9 time the shipped
# store and read path only (no baseline arm, no ratio to assert); an
# unknown id or flag exits 2. E14 asserts failover within two leases and
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

echo "== overload protection gate (tests/overload.rs) =="
# Typed shed envelopes, deadline refusal, graceful drain, Retry-After
# cooperation — pinned explicitly, not just via the workspace run.
cargo test -q --offline --test overload

echo "== budget + quarantine gate (tests/quarantine.rs) =="
# Per-job resource budgets end to end: the watchdog kills a runaway with a
# typed budget_exceeded failure, max_attempts breaches land in Quarantined
# (never rescheduled, never re-claimed), compliant siblings finish exactly
# once, and unbudgeted experiments never arm the watchdog. Pinned
# explicitly like the overload gate — this is the containment contract.
cargo test -q --offline --test quarantine

echo "== repo benchmark builds (benchmark/, its own workspace) =="
# chronos-benchmark links the crates' public API from outside the
# workspace; without this stage a deletion under crates/ could break the
# BENCHMARK.json command and no other gate would notice.
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "== repo benchmark unit tests =="
# The harness's own arithmetic: percentile rule, span self-time, stamp
# comparison, and BENCHMARK.json <-> metric-table agreement.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== repo benchmark, quick sizes: all four workloads and their output checks =="
# Under 15 s. The numbers are not comparable and nobody reads them here;
# the exit code is the gate. A run is incorrect (non-zero exit) when a
# repeated read is not byte-identical, summary rows / CSV lines / the job
# list disagree with the finished jobs, the restarted store serves another
# summary, or any operation failed — every one of which a wrong answer from
# the response cache would trip.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --quick

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
            cargo test -q --offline --features failpoints --test torture --test chaos
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
        cargo clippy --workspace --all-targets --offline --features failpoints -- -D warnings
        echo "== cluster storms: leader death mid-evaluation, 3 pinned seeds =="
        # Replicated control plane under a seeded fault storm: new leader
        # within the lease budget, every job finished exactly once,
        # follower reads inside the staleness bound — and for the adaptive
        # storm, the successive-halving decision log assembled across the
        # failover must equal a fresh single-node replay. The default seed
        # (0xBADCAB) plus two more; a failure prints its replay seed.
        cargo test -q --offline --features failpoints --test cluster
        for seed in 7 20260809; do
            CHRONOS_FAIL_SEED="$seed" \
                cargo test -q --offline --features failpoints --test cluster
        done
        ;;
    esac
done

echo "OK"
