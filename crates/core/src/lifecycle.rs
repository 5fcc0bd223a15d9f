//! The job lifecycle state machine — the single transition table every
//! layer consults.
//!
//! The wire vocabulary ([`JobState`]) and the job document ([`Job`]) live
//! in `chronos-api`; this module owns *legality*: which event may fire in
//! which state, and what state it lands in. Server handlers, the scheduler
//! sweep, and the agent-facing control paths all funnel through
//! [`transition`] — through [`JobExt::apply`] on a job — instead of
//! comparing state strings. A caller names the [`JobEvent`], never the
//! state it wants: each event has one target state, and legality is a
//! property of the (state, event) pair.
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
}

/// A lifecycle violation: `event` fired while the job was in `from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidTransition {
    pub from: JobState,
    pub event: JobEvent,
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

/// A job's lifecycle as methods on [`Job`] (the document type lives in
/// `chronos-api`, which knows nothing about legality either).
pub trait JobExt {
    /// Creates a scheduled job.
    fn new(evaluation_id: Id, system_id: Id, parameters: Value, now: u64) -> Self;
    /// Records a timeline event.
    fn record(&mut self, now: u64, kind: &str, message: impl Into<String>);
    /// Applies a lifecycle event, enforcing the transition table.
    fn apply(&mut self, event: JobEvent, now: u64, message: &str) -> CoreResult<()>;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVENTS: [JobEvent; 6] = [
        JobEvent::Claim,
        JobEvent::Finish,
        JobEvent::Fail,
        JobEvent::Abort,
        JobEvent::Reschedule,
        JobEvent::Quarantine,
    ];

    #[test]
    fn every_state_and_event_applies_or_conflicts() {
        use JobEvent::*;
        use JobState::*;
        // Paper §2.1: scheduled or running jobs can be aborted, failed ones
        // re-scheduled (or quarantined once out of attempts).
        let legal = [
            (Scheduled, Claim),
            (Running, Finish),
            (Running, Fail),
            (Scheduled, Abort),
            (Running, Abort),
            (Failed, Reschedule),
            (Failed, Quarantine),
        ];
        let mut pairs = 0;
        for from in JobState::ALL {
            for event in EVENTS {
                pairs += 1;
                let mut job = Job::new(Id::generate(), Id::generate(), Value::Null, 1_000);
                job.state = from;
                let before = job.clone();
                let result = job.apply(event, 2_000, "probe");
                if legal.contains(&(from, event)) {
                    assert!(result.is_ok(), "{from} + {event:?}: {result:?}");
                    assert_eq!(job.state, event.target());
                    assert_eq!(job.timeline.len(), before.timeline.len() + 1);
                    assert_eq!(
                        job.timeline.last(),
                        Some(&TimelineEvent {
                            at: 2_000,
                            kind: event.target().as_str().into(),
                            message: "probe".into(),
                        })
                    );
                } else {
                    let expected =
                        format!("job {} cannot go from {from} to {}", job.id, event.target());
                    assert!(
                        matches!(&result, Err(CoreError::Conflict(m)) if *m == expected),
                        "{from} + {event:?}: {result:?}"
                    );
                    assert_eq!(job, before, "a refused event changes nothing");
                }
            }
        }
        assert_eq!(pairs, 36);
    }
}
