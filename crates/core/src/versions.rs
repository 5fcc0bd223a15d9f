//! Which state a derived read was computed from.
//!
//! Every cached or conditional read (`chronos-server`'s response cache,
//! `ETag`s) is tagged with a version loaded *before* the state it reads,
//! and every writer bumps *after* its last mutation is visible. A body
//! computed across a concurrent write is then at worst tagged too old and
//! recomputed by the next reader — never served stale.
//!
//! One sequence numbers every bump. An evaluation's version is the
//! sequence number of its last bump, or of the last replication install
//! (the *epoch*) when that is newer: an install bypasses the lifecycle
//! code, so it cannot say which evaluations it touched and advances all
//! of them at once. Versions restart at 0 with the process; whoever hands
//! them to a client pairs them with a boot nonce.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

#[derive(Default)]
pub(crate) struct Versions {
    /// Bumps and epochs so far.
    seq: AtomicU64,
    /// Sequence number of the last replication install.
    epoch: AtomicU64,
    /// Evaluation → sequence number of its last bump.
    evaluations: RwLock<HashMap<u128, u64>>,
}

impl Versions {
    /// Advances one evaluation. Call after the mutation is visible.
    pub(crate) fn bump(&self, evaluation: u128) {
        // Numbered under the map lock, so two bumps of one evaluation
        // cannot store their numbers out of order.
        let mut evaluations = self.evaluations.write();
        let next = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        evaluations.insert(evaluation, next);
    }

    /// Advances every evaluation at once. Call after the install (and the
    /// reset of everything derived from the installed rows) is visible.
    pub(crate) fn advance_epoch(&self) {
        let next = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        self.epoch.fetch_max(next, Ordering::SeqCst);
    }

    /// The version of one evaluation. Load before reading its state.
    pub(crate) fn evaluation(&self, evaluation: u128) -> u64 {
        let bumped = self.evaluations.read().get(&evaluation).copied().unwrap_or(0);
        bumped.max(self.epoch.load(Ordering::SeqCst))
    }

    /// Bumps and epochs so far: moves whenever any evaluation's version does.
    pub(crate) fn total(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bumps_are_per_evaluation_and_epochs_are_not() {
        let versions = Versions::default();
        assert_eq!((versions.evaluation(1), versions.evaluation(2), versions.total()), (0, 0, 0));
        versions.bump(1);
        let (one, two) = (versions.evaluation(1), versions.evaluation(2));
        assert!(one > 0 && two == 0, "a bump moves its evaluation only");
        versions.advance_epoch();
        assert!(versions.evaluation(1) > one && versions.evaluation(2) > two);
        assert_eq!(versions.evaluation(1), versions.evaluation(3), "unknown ones sit at the epoch");
        let epoch = versions.evaluation(2);
        versions.bump(2);
        assert!(versions.evaluation(2) > epoch && versions.evaluation(1) == epoch);
        assert_eq!(versions.total(), 3);
    }

    #[test]
    fn concurrent_bumps_never_move_a_version_backwards() {
        let versions = Versions::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut last = 0;
                    for _ in 0..2_000 {
                        versions.bump(7);
                        let seen = versions.evaluation(7);
                        assert!(seen > last, "version went from {last} to {seen}");
                        last = seen;
                    }
                });
            }
        });
        assert_eq!(versions.total(), 8_000);
        assert_eq!(versions.evaluation(7), 8_000);
    }
}
