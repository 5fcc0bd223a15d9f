//! The job lifecycle state machine — the single transition table every
//! layer consults.
//!
//! The wire vocabulary ([`JobState`]) and the job document ([`Job`]) live
//! in `chronos-api`; this module owns *legality*: which event may fire in
//! which state, and what state it lands in. Server handlers, the scheduler
//! sweep, and the agent-facing control paths all funnel through
//! [`transition`] — through [`JobExt::apply`] on a job — instead of
//! comparing state strings.
//!
//! ```text
//!                 Claim                 Finish
//!   Scheduled ───────────▶ Running ───────────▶ Finished (terminal)
//!      ▲  │                 │    │
//!      │  │ Abort           │    │ Abort
//!      │  ▼                 │    ▼
//!      │ Aborted ◀──────────┘   Aborted (terminal)
//!      │                    │ Fail
//!      │     Reschedule     ▼           Quarantine
//!      └─────────────────  Failed ───────────▶ Quarantined (terminal)
//! ```

use chronos_api::JobState;
use chronos_json::Value;
use chronos_util::Id;

use crate::error::{CoreError, CoreResult};
use crate::model::{Job, TimelineEvent};

/// An event that moves a job through its lifecycle. Each event has exactly
/// one target state; legality depends on the state it fires in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobEvent {
    /// An agent claimed the job (attempt number becomes the fencing token).
    Claim,
    /// The agent uploaded a result.
    Finish,
    /// The agent reported failure, or the lease-expiry sweep fired.
    Fail,
    /// A user cancelled the job.
    Abort,
    /// A failed job goes back into the queue (manual or automatic retry).
    Reschedule,
    /// A job that exhausted `max_attempts` is removed from scheduling for
    /// good — poison-job containment, not a retryable failure.
    Quarantine,
}

impl JobEvent {
    /// The state this event lands in when legal.
    pub fn target(&self) -> JobState {
        match self {
            JobEvent::Claim => JobState::Running,
            JobEvent::Finish => JobState::Finished,
            JobEvent::Fail => JobState::Failed,
            JobEvent::Abort => JobState::Aborted,
            JobEvent::Reschedule => JobState::Scheduled,
            JobEvent::Quarantine => JobState::Quarantined,
        }
    }

    /// Every lifecycle event.
    pub const ALL: [JobEvent; 6] = [
        JobEvent::Claim,
        JobEvent::Finish,
        JobEvent::Fail,
        JobEvent::Abort,
        JobEvent::Reschedule,
        JobEvent::Quarantine,
    ];
}

/// A lifecycle violation: `event` fired while the job was in `from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidTransition {
    pub from: JobState,
    pub event: JobEvent,
}

impl InvalidTransition {
    /// The state the event would have landed in.
    pub fn target(&self) -> JobState {
        self.event.target()
    }
}

impl std::fmt::Display for InvalidTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot go from {} to {}", self.from, self.event.target())
    }
}

impl std::error::Error for InvalidTransition {}

/// The transition table (paper §2.1): "Jobs which are in the status
/// scheduled or running can be aborted and those which are failed can be
/// re-scheduled."
pub fn transition(state: JobState, event: JobEvent) -> Result<JobState, InvalidTransition> {
    use JobEvent::*;
    use JobState::*;
    let legal = matches!(
        (state, event),
        (Scheduled, Claim)
            | (Running, Finish)
            | (Running, Fail)
            | (Scheduled, Abort)
            | (Running, Abort)
            | (Failed, Reschedule)
            | (Failed, Quarantine)
    );
    if legal {
        Ok(event.target())
    } else {
        Err(InvalidTransition { from: state, event })
    }
}

/// Whether *any* event leads from `from` to `to` — the legacy
/// state-to-state view of the table.
pub fn can_transition(from: JobState, to: JobState) -> bool {
    JobEvent::ALL.iter().any(|event| event.target() == to && transition(from, *event).is_ok())
}

/// State-machine queries as methods on [`JobState`] (the enum itself lives
/// in `chronos-api`, which deliberately knows nothing about legality).
pub trait JobStateExt {
    /// Whether a transition to `next` is legal.
    fn can_transition_to(&self, next: JobState) -> bool;
    /// Terminal states cannot progress (except `Failed`, via reschedule).
    fn is_terminal(&self) -> bool;
}

impl JobStateExt for JobState {
    fn can_transition_to(&self, next: JobState) -> bool {
        can_transition(*self, next)
    }

    fn is_terminal(&self) -> bool {
        matches!(self, JobState::Finished | JobState::Aborted | JobState::Quarantined)
    }
}

/// A job's lifecycle as methods on [`Job`] (the document type lives in
/// `chronos-api`, which knows nothing about legality either).
pub trait JobExt {
    /// Creates a scheduled job.
    fn new(evaluation_id: Id, system_id: Id, parameters: Value, now: u64) -> Self;
    /// Records a timeline event.
    fn record(&mut self, now: u64, kind: &str, message: impl Into<String>);
    /// Applies a lifecycle event, enforcing the transition table.
    fn apply(&mut self, event: JobEvent, now: u64, message: &str) -> CoreResult<()>;
    /// Applies a state transition. Each state is the target of exactly one
    /// [`JobEvent`], so this is the state-centric view of [`JobExt::apply`].
    fn transition(&mut self, next: JobState, now: u64, message: &str) -> CoreResult<()>;
}

impl JobExt for Job {
    fn new(evaluation_id: Id, system_id: Id, parameters: Value, now: u64) -> Job {
        Job {
            id: Id::generate(),
            evaluation_id,
            system_id,
            parameters,
            state: JobState::Scheduled,
            deployment_id: None,
            progress: 0,
            log: String::new(),
            timeline: vec![TimelineEvent {
                at: now,
                kind: "created".into(),
                message: "job created and scheduled".into(),
            }],
            heartbeat_at: None,
            attempts: 0,
            claim_key: None,
            result_key: None,
            result_id: None,
            failure: None,
            created_at: now,
            point_index: None,
            budget: None,
        }
    }

    fn record(&mut self, now: u64, kind: &str, message: impl Into<String>) {
        self.timeline.push(TimelineEvent { at: now, kind: kind.into(), message: message.into() });
    }

    fn apply(&mut self, event: JobEvent, now: u64, message: &str) -> CoreResult<()> {
        let next = transition(self.state, event)
            .map_err(|violation| CoreError::Conflict(format!("job {} {violation}", self.id)))?;
        self.state = next;
        self.record(now, next.as_str(), message);
        Ok(())
    }

    fn transition(&mut self, next: JobState, now: u64, message: &str) -> CoreResult<()> {
        let event = JobEvent::ALL
            .into_iter()
            .find(|e| e.target() == next)
            .expect("every state is the target of exactly one lifecycle event");
        self.apply(event, now, message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper_lifecycle() {
        assert_eq!(transition(JobState::Scheduled, JobEvent::Claim), Ok(JobState::Running));
        assert_eq!(transition(JobState::Running, JobEvent::Finish), Ok(JobState::Finished));
        assert_eq!(transition(JobState::Running, JobEvent::Fail), Ok(JobState::Failed));
        assert_eq!(transition(JobState::Scheduled, JobEvent::Abort), Ok(JobState::Aborted));
        assert_eq!(transition(JobState::Running, JobEvent::Abort), Ok(JobState::Aborted));
        assert_eq!(transition(JobState::Failed, JobEvent::Reschedule), Ok(JobState::Scheduled));
        assert_eq!(transition(JobState::Failed, JobEvent::Quarantine), Ok(JobState::Quarantined));
    }

    #[test]
    fn terminal_states_accept_no_event() {
        for terminal in [JobState::Finished, JobState::Aborted, JobState::Quarantined] {
            for event in JobEvent::ALL {
                assert_eq!(
                    transition(terminal, event),
                    Err(InvalidTransition { from: terminal, event })
                );
            }
            assert!(terminal.is_terminal());
        }
    }

    #[test]
    fn state_view_agrees_with_event_table() {
        // Every (from, to) pair the legacy matrix allowed, and nothing more.
        let allowed = [
            (JobState::Scheduled, JobState::Running),
            (JobState::Scheduled, JobState::Aborted),
            (JobState::Running, JobState::Finished),
            (JobState::Running, JobState::Failed),
            (JobState::Running, JobState::Aborted),
            (JobState::Failed, JobState::Scheduled),
            (JobState::Failed, JobState::Quarantined),
        ];
        for from in JobState::ALL {
            for to in JobState::ALL {
                assert_eq!(
                    from.can_transition_to(to),
                    allowed.contains(&(from, to)),
                    "disagreement for {from} -> {to}"
                );
            }
        }
    }
}
