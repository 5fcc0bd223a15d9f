//! Per-evaluation state derived from the job and evaluation documents:
//! each evaluation's job membership and its status roll-up, kept by the
//! fold.
//!
//! `ChronosControl::apply` sees every job and evaluation document a commit,
//! an install or the open puts into memory, and folds them in here. A job
//! put moves exactly one counter, from the state its previous put left it
//! in to the new one; its first put naming an evaluation makes it a member
//! of it, held in job-id (creation) order, so a leader, a follower and a
//! restart list members alike. An evaluation put records what its job
//! source has left to plan. A status read, the installation-wide `/stats`
//! sums and the row order of every analysis read then cost what they
//! return: no evaluation document is decoded and no job is visited. One
//! lock covers a whole write's changes, so a reader never sees a claim's
//! job counted without its evaluation's cursor advanced.
//!
//! A job whose stored state is not one the roll-up knows (a damaged
//! document, or one written by a newer leader) is counted apart, and its
//! evaluation's roll-up and the sums are unreadable while it stays so: an
//! error, never a smaller evaluation.

use std::collections::HashMap;

use chronos_util::Id;
use parking_lot::RwLock;

use crate::model::JobState;
use crate::scheduler::EvaluationStatus;

/// One fact a put document contributes.
pub(crate) enum Change {
    /// An evaluation document and its source's unmaterialized points
    /// (`None` for a fully-materialized evaluation).
    Evaluation { id: u128, remaining: Option<usize> },
    /// A job document, with its evaluation and its state (`None` when it
    /// is not one the roll-up knows). `placed` is `None` when the document
    /// names no evaluation, which removes the job from the counts.
    Job { id: u128, placed: Option<(u128, Option<JobState>)> },
}

/// The length of an id's base32 form.
const BASE32: usize = 26;

/// The counter slot of jobs in a state the roll-up cannot count.
const UNREADABLE: usize = 6;

#[derive(Default)]
pub(crate) struct Derived(RwLock<Maps>);

#[derive(Default)]
struct Maps {
    /// Job → its evaluation and state, as its last put left them.
    jobs: HashMap<u128, (u128, Option<JobState>)>,
    /// Evaluation → the jobs that name it.
    members: HashMap<u128, Members>,
    /// Evaluation → the unmaterialized points of its source. Holds a key
    /// for every evaluation whose document was put: the known evaluations.
    evaluations: HashMap<u128, Option<usize>>,
}

/// The jobs that name one evaluation.
#[derive(Default)]
struct Members {
    /// How many are in each state, indexed by `JobState as usize`, then
    /// in [`UNREADABLE`] ones.
    states: [usize; 7],
    /// Their ids, in order.
    ids: Vec<u128>,
    /// Their base32 forms, [`BASE32`] bytes each, for detail reads to copy.
    text: String,
}

fn slot(state: Option<JobState>) -> usize {
    state.map_or(UNREADABLE, |state| state as usize)
}

impl Maps {
    /// One evaluation's roll-up, or the first of its jobs that cannot be
    /// counted.
    fn status(&self, id: u128, remaining: Option<usize>) -> Result<EvaluationStatus, u128> {
        let [scheduled, running, finished, aborted, failed, quarantined, unreadable] =
            self.members.get(&id).map_or([0; 7], |members| members.states);
        if unreadable > 0 {
            let job = self.jobs.iter().find(|(_, &placed)| placed == (id, None));
            return Err(job.map_or(0, |(&job, _)| job));
        }
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
    pub(crate) fn fold(&self, changes: &[Change]) {
        if changes.is_empty() {
            return;
        }
        let mut maps = self.0.write();
        for change in changes {
            match *change {
                Change::Evaluation { id, remaining } => {
                    maps.evaluations.insert(id, remaining);
                }
                Change::Job { id, placed } => {
                    let before = match placed {
                        Some(placed) => maps.jobs.insert(id, placed),
                        None => maps.jobs.remove(&id),
                    };
                    if let Some((evaluation, state)) = before {
                        let members = maps.members.entry(evaluation).or_default();
                        members.states[slot(state)] -= 1;
                        let moved = placed.is_none_or(|(to, _)| to != evaluation);
                        if let (true, Ok(at)) = (moved, members.ids.binary_search(&id)) {
                            members.ids.remove(at);
                            members.text.replace_range(at * BASE32..(at + 1) * BASE32, "");
                        }
                    }
                    if let Some((evaluation, state)) = placed {
                        let members = maps.members.entry(evaluation).or_default();
                        members.states[slot(state)] += 1;
                        if let Err(at) = members.ids.binary_search(&id) {
                            members.ids.insert(at, id);
                            members.text.insert_str(at * BASE32, &Id::from_u128(id).to_base32());
                        }
                    }
                }
            }
        }
    }

    /// The roll-up of one evaluation, or the first of its jobs that cannot
    /// be counted; `None` for an unknown one.
    pub(crate) fn status(&self, id: u128) -> Option<Result<EvaluationStatus, u128>> {
        let maps = self.0.read();
        let &remaining = maps.evaluations.get(&id)?;
        Some(maps.status(id, remaining))
    }

    /// The roll-ups of every known evaluation summed, `remaining` included
    /// (as `Some`, zero when no source has points left); the first job
    /// that cannot be counted when there is one.
    pub(crate) fn totals(&self) -> Result<EvaluationStatus, u128> {
        let maps = self.0.read();
        let mut total = EvaluationStatus::default();
        let mut remaining = 0;
        for (&id, &left) in &maps.evaluations {
            let status = maps.status(id, left)?;
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

    /// `each` of the jobs of one evaluation, given its id and its base32
    /// form, in id (creation) order; `None` for an unknown evaluation.
    pub(crate) fn members<T>(&self, id: u128, each: impl Fn(u128, &str) -> T) -> Option<Vec<T>> {
        let maps = self.0.read();
        maps.evaluations.get(&id)?;
        let (ids, text) = maps.members.get(&id).map_or((&[][..], ""), |m| (&m.ids[..], &m.text));
        let texts = (0..).map(|i| &text[i * BASE32..][..BASE32]);
        Some(ids.iter().zip(texts).map(|(&job, text)| each(job, text)).collect())
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the fold's own unit test folds by hand
mod tests {
    use super::*;

    fn job(id: u128, evaluation: u128, state: JobState) -> Change {
        Change::Job { id, placed: Some((evaluation, Some(state))) }
    }

    fn evaluation(id: u128, remaining: usize) -> Change {
        Change::Evaluation { id, remaining: Some(remaining) }
    }

    fn ids(derived: &Derived, evaluation: u128) -> Option<Vec<u128>> {
        derived.members(evaluation, |job, _| job)
    }

    #[test]
    fn a_job_put_moves_one_counter_and_unknown_evaluations_are_uncounted() {
        let derived = Derived::default();
        derived.fold(&[evaluation(1, 3), job(10, 1, JobState::Running)]);
        let status = derived.status(1).unwrap().unwrap();
        assert_eq!((status.running, status.remaining), (1, Some(3)));
        derived.fold(&[job(10, 1, JobState::Finished), job(11, 1, JobState::Scheduled)]);
        let status = derived.status(1).unwrap().unwrap();
        assert_eq!((status.running, status.finished, status.scheduled), (0, 1, 1));
        derived.fold(&[Change::Job { id: 11, placed: None }]);
        assert_eq!(
            derived.status(1).unwrap().unwrap().scheduled,
            0,
            "an unplaced job leaves the counts"
        );
        // Jobs of an evaluation whose document was never put are counted
        // but neither read nor summed.
        derived.fold(&[job(12, 2, JobState::Running)]);
        assert_eq!((derived.status(2), ids(&derived, 2)), (None, None));
        let totals = derived.totals().unwrap();
        assert_eq!((totals.running, totals.finished, totals.remaining), (0, 1, Some(3)));
    }

    #[test]
    fn a_job_in_an_unknown_state_makes_its_roll_up_and_the_sums_unreadable() {
        let derived = Derived::default();
        derived.fold(&[evaluation(1, 0), job(10, 1, JobState::Finished)]);
        derived.fold(&[Change::Job { id: 10, placed: Some((1, None)) }]);
        assert_eq!(derived.status(1), Some(Err(10)));
        assert_eq!(derived.totals(), Err(10));
        derived.fold(&[job(10, 1, JobState::Finished)]);
        assert_eq!(
            derived.status(1).unwrap().unwrap().finished,
            1,
            "a readable put counts it again"
        );
        assert_eq!(derived.totals().unwrap().finished, 1);
    }

    #[test]
    fn members_are_the_jobs_that_name_the_evaluation_in_id_order() {
        let derived = Derived::default();
        derived.fold(&[job(3, 1, JobState::Running), evaluation(1, 0)]);
        derived.fold(&[job(1, 1, JobState::Scheduled), job(2, 1, JobState::Scheduled)]);
        assert_eq!(ids(&derived, 1), Some(vec![1, 2, 3]), "id order, not put order");
        let texts =
            derived.members(1, |job, text| Id::parse_base32(text).unwrap().as_u128() == job);
        assert_eq!(texts, Some(vec![true; 3]), "each beside its base32 form");
        derived.fold(&[job(2, 1, JobState::Running), job(2, 1, JobState::Finished)]);
        assert_eq!(ids(&derived, 1), Some(vec![1, 2, 3]), "a later put adds nothing");
        derived.fold(&[job(1, 2, JobState::Scheduled), Change::Job { id: 3, placed: None }]);
        assert_eq!(ids(&derived, 1), Some(vec![2]), "moved and unplaced jobs leave");
        assert_eq!(ids(&derived, 2), None, "an unknown evaluation has no members");
        derived.fold(&[evaluation(2, 0)]);
        assert_eq!(ids(&derived, 2), Some(vec![1]), "jobs put before their evaluation count");
        derived.fold(&[evaluation(3, 5)]);
        assert_eq!(ids(&derived, 3), Some(vec![]));
        assert_eq!(derived.status(3).unwrap().unwrap().remaining, Some(5));
    }
}
