//! Which state a derived read was computed from.
//!
//! Every cached or conditional read (`chronos-server`'s response cache,
//! `ETag`s) is tagged with a version loaded *before* the state it reads.
//! Versions move in one place: the commit of `ChronosControl::write`,
//! after its closure — the write's last mutation — returned. A body
//! computed across a concurrent write is then at worst tagged too old and
//! recomputed by the next reader — never served stale.
//!
//! One sequence numbers every committed write. An evaluation's version is
//! the number of the last write whose record touched it — on a leader and
//! on a follower installing the same records alike. Versions restart at 0
//! with the process; whoever hands them to a client pairs them with a boot
//! nonce.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

#[derive(Default)]
pub(crate) struct Versions {
    /// Number of the last committed write.
    seq: AtomicU64,
    /// Evaluation → number of the last write that touched it.
    evaluations: RwLock<HashMap<u128, u64>>,
}

impl Versions {
    /// Numbers one committed write: every evaluation in `touched` moves to
    /// the new number. Call after the write's last mutation is visible.
    pub(crate) fn commit(&self, touched: &[u128]) {
        // Numbered under the map lock, so two commits cannot store their
        // numbers out of order.
        let mut evaluations = self.evaluations.write();
        let next = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        for &evaluation in touched {
            evaluations.insert(evaluation, next);
        }
    }

    /// The version of one evaluation. Load before reading its state.
    pub(crate) fn evaluation(&self, evaluation: u128) -> u64 {
        self.evaluations.read().get(&evaluation).copied().unwrap_or(0)
    }

    /// Number of the last committed write: moves with every write.
    pub(crate) fn last(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bumps_are_per_evaluation() {
        let versions = Versions::default();
        assert_eq!((versions.evaluation(1), versions.evaluation(2), versions.last()), (0, 0, 0));
        versions.commit(&[1]);
        assert_eq!((versions.evaluation(1), versions.evaluation(2)), (1, 0), "touched ones only");
        versions.commit(&[2, 2]);
        assert_eq!((versions.evaluation(1), versions.evaluation(2)), (1, 2));
        versions.commit(&[]);
        assert_eq!(versions.evaluation(2), 2, "a write touching nothing moves no evaluation");
        assert_eq!(versions.evaluation(3), 0, "an untouched evaluation sits at 0");
        assert_eq!(versions.last(), 3, "one number per write, however much it touched");
    }

    #[test]
    fn concurrent_bumps_never_move_a_version_backwards() {
        let versions = Versions::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut last = 0;
                    for _ in 0..2_000 {
                        versions.commit(&[7]);
                        let seen = versions.evaluation(7);
                        assert!(seen > last, "version went from {last} to {seen}");
                        last = seen;
                    }
                });
            }
        });
        assert_eq!(versions.last(), 8_000);
        assert_eq!(versions.evaluation(7), 8_000);
    }
}
