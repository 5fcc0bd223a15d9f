//! Per-evaluation state derived from the job and evaluation documents:
//! each evaluation's job membership and its status roll-up, kept by the
//! fold.
//!
//! `ChronosControl::apply` sees every job and evaluation document a commit,
//! an install or the open puts into memory, and folds them in here. A job
//! put moves exactly one counter, from the state its previous put left it
//! in to the new one. An evaluation put records what its job source has
//! left to plan and the ids its `job_ids` gained since the last put — the
//! list only ever grows at its end, so only the new tail is parsed. A
//! status read, the installation-wide `/stats` sums and the row order of
//! every analysis read then cost what they return: no evaluation document
//! is decoded and no job is visited. One lock covers a whole write's
//! changes, so a reader never sees a claim's job counted without its
//! evaluation's cursor advanced.
//!
//! A job whose stored state is not one the roll-up knows (a damaged
//! document, or one written by a newer leader) is counted apart, and its
//! evaluation's roll-up and the sums are unreadable while it stays so: an
//! error, never a smaller evaluation.

use std::collections::HashMap;

use chronos_json::Value;
use chronos_util::Id;
use parking_lot::RwLock;

use crate::model::JobState;
use crate::scheduler::EvaluationStatus;

/// One fact a put document contributes.
pub(crate) enum Change<'a> {
    /// An evaluation document: its source's unmaterialized points (`None`
    /// for a fully-materialized evaluation) and its `job_ids`.
    Evaluation { id: u128, remaining: Option<usize>, job_ids: &'a [Value] },
    /// A job document, with its evaluation and its state (`None` when it
    /// is not one the roll-up knows). `placed` is `None` when the document
    /// names no evaluation, which removes the job from the counts.
    Job { id: u128, placed: Option<(u128, Option<JobState>)> },
}

/// Why an evaluation has no roll-up.
#[derive(Debug, PartialEq)]
pub(crate) enum Uncounted {
    /// No document of the evaluation has been folded in.
    Evaluation,
    /// This job of it is in a state the roll-up cannot count.
    Job(u128),
}

/// The counter slot of jobs in a state the roll-up cannot count.
const UNREADABLE: usize = 6;

#[derive(Default)]
pub(crate) struct Derived(RwLock<Maps>);

#[derive(Default)]
struct Maps {
    /// Job → its evaluation and state, as its last put left them.
    jobs: HashMap<u128, (u128, Option<JobState>)>,
    /// Evaluation → its jobs per state, indexed by `JobState as usize`,
    /// then those in [`UNREADABLE`] states.
    states: HashMap<u128, [usize; 7]>,
    /// Evaluation → what its document says. Holds a key for every
    /// evaluation whose document was put: the known evaluations.
    evaluations: HashMap<u128, Evaluation>,
}

#[derive(Default)]
struct Evaluation {
    /// Unmaterialized points of the evaluation's source.
    remaining: Option<usize>,
    /// Entries of the document's `job_ids` folded in so far.
    seen: usize,
    /// The ids among them, in `job_ids` order.
    members: Vec<u128>,
}

fn slot(state: Option<JobState>) -> usize {
    state.map_or(UNREADABLE, |state| state as usize)
}

impl Maps {
    /// One evaluation's roll-up, or the first of its jobs that cannot be
    /// counted.
    fn status(&self, id: u128, evaluation: &Evaluation) -> Result<EvaluationStatus, u128> {
        let [scheduled, running, finished, aborted, failed, quarantined, unreadable] =
            self.states.get(&id).copied().unwrap_or_default();
        if unreadable > 0 {
            let job = self.jobs.iter().find(|(_, &placed)| placed == (id, None));
            return Err(job.map_or(0, |(&job, _)| job));
        }
        let remaining = evaluation.remaining;
        Ok(EvaluationStatus {
            scheduled,
            running,
            finished,
            aborted,
            failed,
            quarantined,
            remaining,
        })
    }
}

impl Derived {
    /// Folds one write's changes in, in order, under one lock.
    pub(crate) fn fold(&self, changes: &[Change<'_>]) {
        if changes.is_empty() {
            return;
        }
        let mut maps = self.0.write();
        for change in changes {
            match *change {
                Change::Evaluation { id, remaining, job_ids } => {
                    let evaluation = maps.evaluations.entry(id).or_default();
                    evaluation.remaining = remaining;
                    if job_ids.len() < evaluation.seen {
                        (evaluation.seen, evaluation.members) = (0, Vec::new());
                    }
                    let new = job_ids[evaluation.seen..].iter().filter_map(Value::as_str);
                    let ids = new.filter_map(|job| Id::parse_base32(job).ok());
                    evaluation.members.extend(ids.map(|job| job.as_u128()));
                    evaluation.seen = job_ids.len();
                }
                Change::Job { id, placed } => {
                    let before = match placed {
                        Some(placed) => maps.jobs.insert(id, placed),
                        None => maps.jobs.remove(&id),
                    };
                    if let Some((evaluation, state)) = before {
                        maps.states.entry(evaluation).or_default()[slot(state)] -= 1;
                    }
                    if let Some((evaluation, state)) = placed {
                        maps.states.entry(evaluation).or_default()[slot(state)] += 1;
                    }
                }
            }
        }
    }

    /// The roll-up of one evaluation.
    pub(crate) fn status(&self, id: u128) -> Result<EvaluationStatus, Uncounted> {
        let maps = self.0.read();
        let evaluation = maps.evaluations.get(&id).ok_or(Uncounted::Evaluation)?;
        maps.status(id, evaluation).map_err(Uncounted::Job)
    }

    /// The roll-ups of every known evaluation summed, `remaining` included
    /// (as `Some`, zero when no source has points left); the first job
    /// that cannot be counted when there is one.
    pub(crate) fn totals(&self) -> Result<EvaluationStatus, u128> {
        let maps = self.0.read();
        let mut total = EvaluationStatus::default();
        let mut remaining = 0;
        for (&id, evaluation) in &maps.evaluations {
            let status = maps.status(id, evaluation)?;
            total.scheduled += status.scheduled;
            total.running += status.running;
            total.finished += status.finished;
            total.aborted += status.aborted;
            total.failed += status.failed;
            total.quarantined += status.quarantined;
            remaining += status.remaining.unwrap_or(0);
        }
        Ok(EvaluationStatus { remaining: Some(remaining), ..total })
    }

    /// The jobs of one evaluation in `job_ids` order; `None` for an
    /// unknown one.
    pub(crate) fn members(&self, id: u128) -> Option<Vec<u128>> {
        self.0.read().evaluations.get(&id).map(|evaluation| evaluation.members.clone())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the fold's own unit test folds by hand
mod tests {
    use super::*;

    fn job(id: u128, evaluation: u128, state: JobState) -> Change<'static> {
        Change::Job { id, placed: Some((evaluation, Some(state))) }
    }

    fn evaluation(id: u128, remaining: usize, job_ids: &[Value]) -> Change<'_> {
        Change::Evaluation { id, remaining: Some(remaining), job_ids }
    }

    #[test]
    fn a_job_put_moves_one_counter_and_unknown_evaluations_are_uncounted() {
        let derived = Derived::default();
        derived.fold(&[evaluation(1, 3, &[]), job(10, 1, JobState::Running)]);
        let status = derived.status(1).unwrap();
        assert_eq!((status.running, status.remaining), (1, Some(3)));
        derived.fold(&[job(10, 1, JobState::Finished), job(11, 1, JobState::Scheduled)]);
        let status = derived.status(1).unwrap();
        assert_eq!((status.running, status.finished, status.scheduled), (0, 1, 1));
        derived.fold(&[Change::Job { id: 11, placed: None }]);
        assert_eq!(derived.status(1).unwrap().scheduled, 0, "an unplaced job leaves the counts");
        // Jobs of an evaluation whose document was never put are counted
        // but neither read nor summed.
        derived.fold(&[job(12, 2, JobState::Running)]);
        assert_eq!((derived.status(2), derived.members(2)), (Err(Uncounted::Evaluation), None));
        let totals = derived.totals().unwrap();
        assert_eq!((totals.running, totals.finished, totals.remaining), (0, 1, Some(3)));
    }

    #[test]
    fn a_job_in_an_unknown_state_makes_its_roll_up_and_the_sums_unreadable() {
        let derived = Derived::default();
        derived.fold(&[evaluation(1, 0, &[]), job(10, 1, JobState::Finished)]);
        derived.fold(&[Change::Job { id: 10, placed: Some((1, None)) }]);
        assert_eq!(derived.status(1), Err(Uncounted::Job(10)));
        assert_eq!(derived.totals(), Err(10));
        derived.fold(&[job(10, 1, JobState::Finished)]);
        assert_eq!(derived.status(1).unwrap().finished, 1, "a readable put counts it again");
        assert_eq!(derived.totals().unwrap().finished, 1);
    }

    #[test]
    fn members_follow_job_ids_by_their_new_tail() {
        let ids: Vec<Value> =
            (1..=4u128).map(|i| Value::from(Id::from_u128(i).to_base32())).collect();
        let derived = Derived::default();
        derived.fold(&[evaluation(1, 0, &ids[..2])]);
        assert_eq!(derived.members(1), Some(vec![1, 2]));
        let mut grown = ids.clone();
        grown.insert(3, Value::from("not an id"));
        derived.fold(&[evaluation(1, 0, &grown)]);
        assert_eq!(derived.members(1), Some(vec![1, 2, 3, 4]), "only the tail is parsed");
        derived.fold(&[evaluation(1, 0, &ids[2..3])]);
        assert_eq!(derived.members(1), Some(vec![3]), "a shorter list is read afresh");
    }
}
