//! Incremental job sources: lazy, deterministic iteration over an
//! evaluation's parameter space.
//!
//! The paper's scheduler expanded an experiment into a static grid of jobs
//! at evaluation-creation time. A [`JobSourceState`] replaces that: the
//! evaluation document carries a resumable cursor over its
//! [`PointSpace`](crate::params::PointSpace) and the claim path materializes
//! points on demand — a 10^5-point space costs O(in-flight) job documents,
//! and because the cursor is persisted with the evaluation (and therefore
//! rides the WAL replication feed), a new leader resumes iteration exactly
//! where the old one stopped.
//!
//! Two strategies:
//!
//! * **grid** — issue every point, index order. Byte-identical job sets and
//!   wire bodies to the historic eager expansion (oracle-tested).
//! * **adaptive** — successive halving over a seeded candidate sample:
//!   rung 0 draws `initial` points from the space; when a rung's jobs have
//!   all settled, candidates are scored from their uploaded results (via
//!   the columnar analytics kernels) and the top `1/eta` fraction is
//!   promoted to the next rung, until one survivor remains. Every pruning
//!   decision is a pure function of `(seed, stored results)` and is
//!   appended to a decision log, so replaying the same seed — on one node
//!   or across a leader failover — yields identical decisions.

use chronos_json::{obj, Value};
use chronos_util::SplitMix64;

/// The live frontier of an adaptive evaluation: the current rung.
pub use chronos_api::v1::FrontierDto as Frontier;
/// How an experiment explores its parameter space, the tunables of its
/// adaptive strategy, and the evaluation's persisted cursor over the
/// space (with the rung plan its remainder is counted from):
/// `chronos-api` types, re-exported.
pub use chronos_api::v1::{rung_sizes, AdaptiveConfig, JobSourceState, Strategy};

/// Plans the source of a space of `total_points`. Adaptive strategies draw
/// their rung-0 candidate sample here (seeded, deterministic).
pub fn plan(strategy: Strategy, total_points: u64) -> JobSourceState {
    let frontier = match &strategy {
        Strategy::Grid => None,
        Strategy::Adaptive(cfg) => {
            let k0 = cfg.rung0_size(total_points);
            Some(Frontier {
                rung: 0,
                candidates: sample_distinct(cfg.seed, total_points, k0),
                issued: 0,
                job_ids: Vec::new(),
                decisions: Vec::new(),
            })
        }
    };
    JobSourceState { strategy, total_points, materialized: 0, frontier }
}

/// The outcome of scoring one rung: records the decision and installs the
/// survivors as the next rung's candidates.
///
/// `scored` pairs each candidate index with its metric value (`None` for
/// candidates whose job failed or was aborted — they always rank last).
/// Survivors are the best `ceil(k/eta)`; ties and all-missing groups break
/// toward the lower point index, so the ordering is total and seed-stable.
pub fn prune_rung(frontier: &mut Frontier, scored: &[(u64, Option<f64>)], cfg: &AdaptiveConfig) {
    use std::cmp::Ordering;
    let keep = (scored.len() as u64).div_ceil(cfg.eta).max(1) as usize;
    let mut order: Vec<usize> = (0..scored.len()).collect();
    order.sort_by(|&a, &b| {
        let by_index = scored[a].0.cmp(&scored[b].0);
        match (scored[a].1, scored[b].1) {
            (Some(x), Some(y)) => {
                let best_first = if cfg.maximize { y.partial_cmp(&x) } else { x.partial_cmp(&y) };
                best_first.unwrap_or(Ordering::Equal).then(by_index)
            }
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => by_index,
        }
    });
    let mut survivors: Vec<u64> = order[..keep].iter().map(|&i| scored[i].0).collect();
    survivors.sort_unstable();
    let decision = obj! {
        "rung" => frontier.rung as u64,
        "candidates" => Value::Array(scored.iter().map(|(c, _)| Value::from(*c)).collect()),
        "scores" => Value::Array(
            scored.iter().map(|(_, s)| s.map(Value::from).unwrap_or(Value::Null)).collect()
        ),
        "promoted" => Value::Array(survivors.iter().map(|&c| Value::from(c)).collect()),
    };
    frontier.decisions.push(decision);
    frontier.rung += 1;
    frontier.candidates = survivors;
    frontier.issued = 0;
    frontier.job_ids.clear();
}

/// `k` distinct indices from `0..total`, ascending, fully determined by
/// `seed`. Partial Fisher–Yates for small spaces; seeded rejection sampling
/// for huge ones (where `k ≪ total` by construction of the default rung-0
/// size).
pub fn sample_distinct(seed: u64, total: u64, k: u64) -> Vec<u64> {
    let k = k.min(total);
    if k == total {
        return (0..total).collect();
    }
    let mut rng = SplitMix64::new(seed);
    let mut picked: Vec<u64>;
    if total <= 1 << 20 {
        let mut pool: Vec<u64> = (0..total).collect();
        for i in 0..k {
            let j = i + rng.next_below(total - i);
            pool.swap(i as usize, j as usize);
        }
        picked = pool[..k as usize].to_vec();
    } else {
        let mut seen = std::collections::HashSet::with_capacity(k as usize);
        picked = Vec::with_capacity(k as usize);
        while (picked.len() as u64) < k {
            let candidate = rng.next_below(total);
            if seen.insert(candidate) {
                picked.push(candidate);
            }
        }
    }
    picked.sort_unstable();
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_util::Id;

    #[test]
    fn rung_sizes_sum_under_budget() {
        // Defaults: initial = ceil(total/5), eta = 4 ⇒ total jobs ≈ 26.7 %
        // of the grid — inside the ≤ 30 % acceptance budget.
        for total in [64u64, 128, 512, 4096, 100_000] {
            let cfg = AdaptiveConfig::default();
            let k0 = cfg.rung0_size(total);
            let planned: u64 = rung_sizes(k0, cfg.eta).iter().sum();
            assert!(planned * 10 <= total * 3, "planned {planned} jobs exceeds 30% of {total}");
        }
        assert_eq!(rung_sizes(103, 4), vec![103, 26, 7, 2, 1]);
        assert_eq!(rung_sizes(1, 4), vec![1]);
        assert_eq!(rung_sizes(0, 4), vec![1], "empty rung clamps to one survivor");
    }

    #[test]
    fn sampling_is_deterministic_distinct_and_in_range() {
        for (total, k) in [(100u64, 20u64), (100, 100), (5_000_000, 64), (7, 7), (10, 1)] {
            let a = sample_distinct(42, total, k);
            let b = sample_distinct(42, total, k);
            assert_eq!(a, b, "same seed must sample identically");
            assert_eq!(a.len() as u64, k.min(total));
            assert!(a.windows(2).all(|w| w[0] < w[1]), "ascending & distinct");
            assert!(a.iter().all(|&i| i < total));
            let c = sample_distinct(43, total, k);
            if k < total {
                assert_ne!(a, c, "different seeds should differ (total={total}, k={k})");
            }
        }
    }

    #[test]
    fn grid_source_issues_every_index_in_order() {
        let mut source = plan(Strategy::Grid, 4);
        let mut issued = Vec::new();
        while let Some(i) = source.peek() {
            issued.push(i);
            source.advance();
        }
        assert_eq!(issued, vec![0, 1, 2, 3]);
        assert_eq!(source.remaining(), 0);
        assert_eq!(source.peek(), None);
    }

    #[test]
    fn adaptive_source_plans_rung0_and_blocks_until_settled() {
        let cfg = AdaptiveConfig { seed: 7, initial: Some(4), ..Default::default() };
        let mut source = plan(Strategy::Adaptive(cfg.clone()), 100);
        let frontier = source.frontier.clone().unwrap();
        assert_eq!(frontier.candidates.len(), 4);
        // remaining = current rung + planned future rungs (4 → 1).
        assert_eq!(source.remaining(), 4 + 1);
        for _ in 0..4 {
            assert!(source.peek().is_some());
            source.advance();
        }
        // Rung fully issued: nothing more until results settle the rung.
        assert_eq!(source.peek(), None);
        assert_eq!(source.remaining(), 1);
    }

    #[test]
    fn prune_rung_promotes_best_and_logs_decision() {
        let cfg = AdaptiveConfig { eta: 2, maximize: true, ..Default::default() };
        let mut frontier = Frontier {
            rung: 0,
            candidates: vec![3, 8, 15, 20],
            issued: 4,
            job_ids: vec![Id::from_u128(1), Id::from_u128(2), Id::from_u128(3), Id::from_u128(4)],
            decisions: Vec::new(),
        };
        // Candidate 15 failed (no score) and must rank last.
        let scored = vec![(3u64, Some(10.0)), (8, Some(30.0)), (15, None), (20, Some(20.0))];
        prune_rung(&mut frontier, &scored, &cfg);
        assert_eq!(frontier.rung, 1);
        assert_eq!(frontier.candidates, vec![8, 20]);
        assert_eq!(frontier.issued, 0);
        assert!(frontier.job_ids.is_empty());
        let decision = &frontier.decisions[0];
        assert_eq!(decision.pointer("/rung").and_then(Value::as_u64), Some(0));
        assert_eq!(decision.pointer("/promoted").and_then(Value::as_array).map(Vec::len), Some(2));
        // Minimizing flips the ranking.
        let cfg_min = AdaptiveConfig { eta: 2, maximize: false, ..Default::default() };
        let mut f2 =
            Frontier { rung: 0, candidates: vec![], issued: 0, job_ids: vec![], decisions: vec![] };
        prune_rung(&mut f2, &scored, &cfg_min);
        assert_eq!(f2.candidates, vec![3, 20]);
    }

    #[test]
    fn strategy_validation() {
        assert!(Strategy::Grid.validate().is_ok());
        assert!(Strategy::Adaptive(AdaptiveConfig::default()).validate().is_ok());
        assert!(Strategy::Adaptive(AdaptiveConfig { eta: 1, ..Default::default() })
            .validate()
            .is_err());
        assert!(Strategy::Adaptive(AdaptiveConfig { initial: Some(0), ..Default::default() })
            .validate()
            .is_err());
        assert!(Strategy::Adaptive(AdaptiveConfig {
            metric: "no-pointer".into(),
            ..Default::default()
        })
        .validate()
        .is_err());
    }
}
