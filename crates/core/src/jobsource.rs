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

use chronos_api::v1 as dto;
use chronos_json::{obj, Value};
use chronos_util::{Id, SplitMix64};

use crate::error::{CoreError, CoreResult};

/// How an experiment explores its parameter space.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// Every point of the space, in index order (the paper's behavior).
    Grid,
    /// Successive-halving exploration driven by uploaded results.
    Adaptive(AdaptiveConfig),
}

impl Strategy {
    /// Validates strategy parameters at experiment creation.
    pub fn validate(&self) -> CoreResult<()> {
        match self {
            Strategy::Grid => Ok(()),
            Strategy::Adaptive(cfg) => {
                if cfg.eta < 2 {
                    return Err(CoreError::Invalid("adaptive eta must be ≥ 2".into()));
                }
                if cfg.initial == Some(0) {
                    return Err(CoreError::Invalid("adaptive initial must be ≥ 1".into()));
                }
                if !cfg.metric.starts_with('/') {
                    return Err(CoreError::Invalid(format!(
                        "adaptive metric must be a JSON pointer (got {:?})",
                        cfg.metric
                    )));
                }
                Ok(())
            }
        }
    }

    /// The wire DTO.
    pub fn dto(&self) -> dto::StrategyDto {
        match self {
            Strategy::Grid => dto::StrategyDto::Grid,
            Strategy::Adaptive(cfg) => dto::StrategyDto::Adaptive {
                seed: cfg.seed,
                initial: cfg.initial,
                eta: cfg.eta,
                metric: cfg.metric.clone(),
                maximize: cfg.maximize,
            },
        }
    }

    /// From the wire DTO.
    pub fn from_dto(value: &dto::StrategyDto) -> Strategy {
        match value {
            dto::StrategyDto::Grid => Strategy::Grid,
            dto::StrategyDto::Adaptive { seed, initial, eta, metric, maximize } => {
                Strategy::Adaptive(AdaptiveConfig {
                    seed: *seed,
                    initial: *initial,
                    eta: *eta,
                    metric: metric.clone(),
                    maximize: *maximize,
                })
            }
        }
    }
}

/// Tunables of the adaptive (successive-halving) strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveConfig {
    /// Seed of the rung-0 candidate sample. Same seed ⇒ same candidates ⇒
    /// same pruning decisions (given the same uploaded results).
    pub seed: u64,
    /// Rung-0 size. `None` ⇒ `ceil(total / 5)` — with the default `eta` of
    /// 4 the whole run then spends ≈ 26.7 % of a full grid.
    pub initial: Option<u64>,
    /// Fraction kept per rung: `ceil(k / eta)` candidates are promoted.
    pub eta: u64,
    /// JSON pointer into the uploaded result document that scores a
    /// candidate (must be one of the columnar standard metric paths to be
    /// served from the analytics store).
    pub metric: String,
    /// Whether a higher metric is better.
    pub maximize: bool,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            seed: 0,
            initial: None,
            eta: 4,
            metric: "/throughput_ops_per_sec".into(),
            maximize: true,
        }
    }
}

impl AdaptiveConfig {
    /// The rung-0 candidate count for a space of `total` points.
    pub fn rung0_size(&self, total: u64) -> u64 {
        self.initial.unwrap_or_else(|| total.div_ceil(5)).clamp(1, total)
    }
}

/// Sizes of every rung of a successive-halving run that starts with `k0`
/// candidates: `k0, ceil(k0/eta), ...` down to a single survivor.
pub fn rung_sizes(k0: u64, eta: u64) -> Vec<u64> {
    let mut sizes = vec![k0.max(1)];
    let mut k = k0.max(1);
    while k > 1 {
        k = k.div_ceil(eta);
        sizes.push(k);
    }
    sizes
}

/// The live frontier of an adaptive evaluation: the current rung.
#[derive(Debug, Clone, PartialEq)]
pub struct Frontier {
    /// Rung number, starting at 0.
    pub rung: u32,
    /// Point indices competing in this rung (ascending).
    pub candidates: Vec<u64>,
    /// How many of `candidates` have been materialized as jobs (a prefix).
    pub issued: u64,
    /// Job ids of this rung, in issue order (`job_ids[i]` runs
    /// `candidates[i]`).
    pub job_ids: Vec<Id>,
    /// One record per completed rung: candidates, scores, survivors.
    /// Contains only point indices and scores — never job ids or
    /// timestamps — so logs from a replay or a failed-over leader compare
    /// equal.
    pub decisions: Vec<Value>,
}

impl Frontier {
    fn dto(&self) -> dto::FrontierDto {
        dto::FrontierDto {
            rung: self.rung,
            candidates: self.candidates.clone(),
            issued: self.issued,
            job_ids: self.job_ids.clone(),
            decisions: self.decisions.clone(),
        }
    }

    fn from_dto(value: &dto::FrontierDto) -> Frontier {
        Frontier {
            rung: value.rung,
            candidates: value.candidates.clone(),
            issued: value.issued,
            job_ids: value.job_ids.clone(),
            decisions: value.decisions.clone(),
        }
    }
}

/// The persisted iteration state of a lazy evaluation. Stored inside the
/// evaluation document, so every cursor advance is one WAL frame and
/// replicates to followers with the rest of the control plane.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSourceState {
    /// The strategy, frozen at evaluation creation.
    pub strategy: Strategy,
    /// Size of the full parameter space.
    pub total_points: u64,
    /// How many points have been materialized as job documents.
    pub materialized: u64,
    /// Adaptive only: the current rung.
    pub frontier: Option<Frontier>,
}

impl JobSourceState {
    /// Plans the source for a space of `total_points`. Adaptive strategies
    /// draw their rung-0 candidate sample here (seeded, deterministic).
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

    /// Points this source still plans to issue. For grid sources this is
    /// exact; for adaptive sources it is the plan (unissued candidates of
    /// the current rung plus all future rung sizes) — pruning can only make
    /// it smaller, never larger, so an unsettled evaluation always reports
    /// a positive remainder.
    pub fn remaining(&self) -> u64 {
        match (&self.strategy, &self.frontier) {
            (Strategy::Adaptive(cfg), Some(frontier)) => {
                let k = frontier.candidates.len() as u64;
                let current = k.saturating_sub(frontier.issued);
                let future: u64 = rung_sizes(k, cfg.eta).iter().skip(1).sum();
                current + future
            }
            _ => self.total_points.saturating_sub(self.materialized),
        }
    }

    /// The next point index to materialize, without advancing any state.
    /// `None` when the source is exhausted or (adaptive) the current rung
    /// is fully issued and must settle before pruning.
    pub fn peek(&self) -> Option<u64> {
        match &self.frontier {
            None => (self.materialized < self.total_points).then_some(self.materialized),
            Some(frontier) => frontier.candidates.get(frontier.issued as usize).copied(),
        }
    }

    /// Advances past the point returned by [`JobSourceState::peek`].
    pub fn advance(&mut self) {
        self.materialized += 1;
        if let Some(frontier) = &mut self.frontier {
            frontier.issued += 1;
        }
    }

    /// Encodes onto an evaluation DTO (flat fields, appended after the
    /// frozen evaluation keys).
    pub fn apply_to_dto(&self, doc: &mut dto::EvaluationDto) {
        doc.strategy = Some(self.strategy.dto());
        doc.total_points = Some(self.total_points);
        doc.materialized = Some(self.materialized);
        doc.frontier = self.frontier.as_ref().map(Frontier::dto);
    }

    /// Decodes from an evaluation DTO; `None` when the document predates
    /// lazy evaluations (such evaluations are fully materialized).
    pub fn from_dto(doc: &dto::EvaluationDto) -> Option<JobSourceState> {
        let total_points = doc.total_points?;
        let strategy = doc.strategy.as_ref().map(Strategy::from_dto).unwrap_or(Strategy::Grid);
        Some(JobSourceState {
            strategy,
            total_points,
            materialized: doc.materialized.unwrap_or(doc.job_ids.len() as u64),
            frontier: doc.frontier.as_ref().map(Frontier::from_dto),
        })
    }
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
        let mut source = JobSourceState::plan(Strategy::Grid, 4);
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
        let mut source = JobSourceState::plan(Strategy::Adaptive(cfg.clone()), 100);
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
