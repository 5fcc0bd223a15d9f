//! Mixed put/get/list contention harness for the E8 experiment in
//! `chronos-bench`.
//!
//! The workload models the control plane under a fleet of agents: mostly
//! document rewrites (heartbeats, log appends, state transitions) with a
//! steady diet of reads and the occasional full listing, spread over a
//! handful of kinds exactly as real traffic spreads over jobs,
//! evaluations, and deployments.

use std::time::Instant;

use chronos_core::store::MetadataStore;
use chronos_json::{obj, Value};
use rand::{Rng, SeedableRng};

/// Kinds the workload spreads over (jobs dominate real traffic, but all
/// kinds see writes).
pub const KINDS: [&str; 4] = ["job", "evaluation", "deployment", "result"];

/// Distinct ids per kind.
pub const IDS_PER_KIND: u64 = 128;

/// A job-shaped document of realistic size.
pub fn sample_doc(i: u64) -> Value {
    obj! {
        "state" => "running",
        "progress" => (i % 100) as i64,
        "attempts" => 1,
        "system_id" => "0123456789abcdefghjkmnpqrstvwxyz",
        "timeline" => "scheduled; claimed by deployment bench-1; heartbeat ok",
        "heartbeat_at" => 1_700_000_000_000i64 + i as i64,
    }
}

/// Outcome of one contended run.
pub struct MixReport {
    /// Operations completed across all threads.
    pub total_ops: u64,
    /// Wall time of the measured phase.
    pub elapsed_secs: f64,
}

impl MixReport {
    /// Aggregate throughput.
    pub fn ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.elapsed_secs.max(1e-9)
    }
}

/// Pre-populates every `(kind, id)` pair so reads hit and listings have a
/// fixed size, then runs `threads` workers, each performing
/// `ops_per_thread` operations: 50% put, 40% get, 10% list.
pub fn run_mixed(store: &MetadataStore, threads: u64, ops_per_thread: u64) -> MixReport {
    for (k, kind) in KINDS.iter().enumerate() {
        for i in 0..IDS_PER_KIND {
            store.put(kind, &id_name(i), sample_doc(k as u64 * IDS_PER_KIND + i)).unwrap();
        }
    }
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xE8_000 + t);
                for i in 0..ops_per_thread {
                    let kind = KINDS[rng.gen_range(0..KINDS.len() as u64) as usize];
                    let id = id_name(rng.gen_range(0..IDS_PER_KIND));
                    match rng.gen_range(0..10u64) {
                        0..=4 => store.put(kind, &id, sample_doc(i)).unwrap(),
                        5..=8 => {
                            assert!(store.get(kind, &id).is_some(), "pre-populated read must hit");
                        }
                        _ => {
                            assert!(store.list(kind).len() >= IDS_PER_KIND as usize);
                        }
                    }
                }
            });
        }
    });
    MixReport { total_ops: threads * ops_per_thread, elapsed_secs: start.elapsed().as_secs_f64() }
}

fn id_name(i: u64) -> String {
    format!("id{i:05}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_drives_the_store() {
        let report = run_mixed(&MetadataStore::in_memory(), 2, 200);
        assert_eq!(report.total_ops, 400);
        assert!(report.ops_per_sec() > 0.0);
    }
}
