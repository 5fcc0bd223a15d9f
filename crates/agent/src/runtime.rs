//! The agent runtime: claim → run lifecycle → upload, with heartbeats.

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use chronos_json::{obj, Value};
use chronos_util::Id;
use chronos_zip::ZipWriter;

use crate::budget::{BudgetWatchdog, CgroupScope};
use crate::context::JobContext;
use crate::control_client::{AgentError, ClaimedJob, ControlClient};
use crate::sink::{HttpSink, ResultSink};

/// The interface an evaluation client implements (paper §2.2: "the agent
/// library already provides an interface with all necessary methods to be
/// implemented" — "this usually narrows down to calling already existing
/// methods of the evaluation client").
pub trait EvaluationClient: Send {
    /// A short client name (appears in logs and the result document).
    fn name(&self) -> &str;

    /// Prepares the SuE for this job's parameters: configuration, benchmark
    /// data generation and ingestion (paper §1, step one).
    fn set_up(&mut self, ctx: &JobContext) -> Result<(), String>;

    /// Warm-up phase "filling internal buffers, to make sure that the
    /// behavior of the SuE reflects a realistic use" (§1, step two).
    fn warm_up(&mut self, _ctx: &JobContext) -> Result<(), String> {
        Ok(())
    }

    /// The actual evaluation run (§1, step three). Returns the measurement
    /// document for analysis within Chronos Control.
    fn execute(&mut self, ctx: &JobContext) -> Result<Value, String>;

    /// Cleanup after the run (always called, also after failures).
    fn tear_down(&mut self, _ctx: &JobContext) {}
}

/// Agent configuration.
pub struct AgentConfig {
    /// The deployment this agent executes jobs for.
    pub deployment_id: Id,
    /// Interval between heartbeats / log flushes while a job runs.
    pub heartbeat_interval: Duration,
    /// Interval between claim attempts when the queue is empty.
    pub poll_interval: Duration,
    /// Sampling interval of the budget watchdog while a budgeted job runs.
    /// A breach is detected within roughly one interval.
    pub budget_poll_interval: Duration,
    /// Where result archives go.
    pub sink: Box<dyn ResultSink>,
}

impl AgentConfig {
    /// Defaults: 1 s heartbeats, 250 ms polling, 25 ms budget sampling,
    /// inline HTTP sink.
    pub fn new(deployment_id: Id) -> Self {
        AgentConfig {
            deployment_id,
            heartbeat_interval: Duration::from_millis(1000),
            poll_interval: Duration::from_millis(250),
            budget_poll_interval: Duration::from_millis(25),
            sink: Box::new(HttpSink),
        }
    }
}

/// The agent runtime driving one [`EvaluationClient`].
pub struct ChronosAgent<C: EvaluationClient> {
    client: ControlClient,
    config: AgentConfig,
    evaluation_client: C,
}

impl<C: EvaluationClient> ChronosAgent<C> {
    /// Creates an agent.
    pub fn new(client: ControlClient, config: AgentConfig, evaluation_client: C) -> Self {
        ChronosAgent { client, config, evaluation_client }
    }

    /// Claims and executes one job. Returns `Ok(false)` when no job was
    /// available, `Ok(true)` after completing one (successfully or by
    /// reporting its failure to Chronos Control).
    pub fn run_once(&mut self) -> Result<bool, AgentError> {
        let Some(job) = self.client.claim(self.config.deployment_id)? else {
            return Ok(false);
        };
        self.execute_job(job)?;
        Ok(true)
    }

    /// Runs until the queue stays empty for `idle_for`.
    pub fn run_until_idle(&mut self, idle_for: Duration) -> Result<u64, AgentError> {
        let mut completed = 0;
        let mut idle_since = Instant::now();
        loop {
            if self.run_once()? {
                completed += 1;
                idle_since = Instant::now();
            } else {
                if idle_since.elapsed() >= idle_for {
                    return Ok(completed);
                }
                #[allow(clippy::disallowed_methods)] // nothing to wake for: the queue is empty
                std::thread::sleep(self.config.poll_interval);
            }
        }
    }

    fn execute_job(&mut self, job: ClaimedJob) -> Result<(), AgentError> {
        let ctx = JobContext::new(job.id, job.parameters.clone());
        ctx.log(format!(
            "agent: starting {} (attempt {}) with parameters {}",
            self.evaluation_client.name(),
            job.attempts,
            job.parameters
        ));

        // Heartbeat thread: ships progress + buffered logs periodically.
        // A lost lease (job rescheduled, newer attempt running) cancels the
        // run; transient transport failures are tolerated — the next beat
        // may get through before Chronos Control's timeout fires. The
        // thread sleeps on `stop`, so joining it waits for at most the
        // beat in flight, never for the rest of an interval.
        let stop = Arc::new(StopSignal::default());
        let attempt = job.attempts;
        let heartbeat = {
            let ctx = ctx.clone();
            let stop = Arc::clone(&stop);
            let client = self.client.shallow_clone();
            let interval = self.config.heartbeat_interval;
            std::thread::Builder::new()
                .name("chronos-agent-heartbeat".into())
                .spawn(move || loop {
                    match client.heartbeat(ctx.job_id, ctx.progress(), attempt) {
                        Ok(()) => {}
                        Err(AgentError::LeaseLost { message }) => {
                            ctx.cancel(message);
                            break;
                        }
                        Err(e) => {
                            ctx.log(format!("agent: heartbeat failed (tolerated): {e}"));
                        }
                    }
                    let logs = ctx.take_logs();
                    if !logs.is_empty() {
                        // Log appends are not idempotent; a transit
                        // failure drops this batch rather than risking
                        // duplicated lines on a blind resend.
                        let _ = client.append_log(ctx.job_id, &logs);
                    }
                    if stop.wait(interval) {
                        break;
                    }
                })
                .expect("failed to spawn heartbeat thread")
        };

        // Budget enforcement: arm the watchdog (and, when the host permits
        // it, the cgroup backstop) for the duration of the run.
        let budget = job.budget.filter(|b| !b.is_empty());
        let cgroup = budget.as_ref().and_then(|b| CgroupScope::try_enter(job.id, b));
        let watchdog = budget.map(|b| {
            ctx.log(format!(
                "agent: budget armed ({}ms sampling){}",
                self.config.budget_poll_interval.as_millis(),
                if cgroup.is_some() { ", cgroup backstop active" } else { "" },
            ));
            BudgetWatchdog::arm(&ctx, b, self.config.budget_poll_interval)
        });

        let outcome = self.run_lifecycle(&ctx);

        stop.stop();
        let _ = heartbeat.join();
        let mut breach = watchdog.and_then(BudgetWatchdog::disarm);
        drop(cgroup);
        // Chaos-only synthetic breach, so storms exercise the quarantine
        // path without needing a genuinely runaway workload.
        if breach.is_none() {
            if let Some(_inj) = chronos_util::fail_eval!("agent.budget.breach") {
                let synthetic =
                    crate::budget::BudgetBreach { dimension: "wall_millis", measured: 1, limit: 0 };
                ctx.cancel(synthetic.reason());
                breach = Some(synthetic);
            }
        }
        // Final log flush.
        let logs = ctx.take_logs();
        if !logs.is_empty() {
            let _ = self.client.append_log(ctx.job_id, &logs);
        }

        // A budget breach is *our* cancellation, not a lost lease: report
        // the typed failure so Chronos Control counts the attempt (and
        // quarantines the job once attempts are exhausted). This must come
        // before the generic cancellation return below.
        if let Some(breach) = breach {
            return match self.client.fail(ctx.job_id, attempt, &breach.reason()) {
                Ok(()) | Err(AgentError::LeaseLost { .. }) => Ok(()),
                Err(e) => Err(e),
            };
        }

        if ctx.is_cancelled() {
            // The lease is gone: another attempt owns this job now. Uploading
            // would be fenced anyway; treat the job as over for this agent.
            return Ok(());
        }

        match outcome {
            Ok(data) => {
                let archive = build_archive(&ctx, &data);
                match self.config.sink.deliver(&self.client, ctx.job_id, attempt, &data, &archive) {
                    Ok(_) => Ok(()),
                    // Fenced at upload: a newer attempt finished first.
                    Err(AgentError::LeaseLost { .. }) => Ok(()),
                    Err(e) => Err(e),
                }
            }
            Err(reason) => match self.client.fail(ctx.job_id, attempt, &reason) {
                Ok(()) | Err(AgentError::LeaseLost { .. }) => Ok(()),
                Err(e) => Err(e),
            },
        }
    }

    /// set-up → warm-up → execute → tear-down, timing each phase and
    /// catching panics so a crashing benchmark fails only its job.
    fn run_lifecycle(&mut self, ctx: &JobContext) -> Result<Value, String> {
        let run = |label: &str,
                   ctx: &JobContext,
                   f: &mut dyn FnMut(&JobContext) -> Result<(), String>|
         -> Result<u64, String> {
            if ctx.is_cancelled() {
                return Err(format!("run cancelled before {label}: {}", ctx.cancel_reason()));
            }
            let start = Instant::now();
            ctx.log(format!("agent: phase {label}"));
            match std::panic::catch_unwind(AssertUnwindSafe(|| f(ctx))) {
                Ok(Ok(())) => Ok(start.elapsed().as_millis() as u64),
                Ok(Err(e)) => Err(format!("{label} failed: {e}")),
                Err(panic) => Err(format!("{label} panicked: {}", panic_message(&panic))),
            }
        };

        let client = &mut self.evaluation_client;
        // Resource accounting brackets the whole SuE run (set-up through
        // execute); the deltas ride along in the result document.
        let tracker = crate::resources::ResourceTracker::start();
        let result = (|| {
            let setup_ms = run("set_up", ctx, &mut |c| client.set_up(c))?;
            let warmup_ms = run("warm_up", ctx, &mut |c| client.warm_up(c))?;
            if ctx.is_cancelled() {
                return Err(format!("run cancelled before execute: {}", ctx.cancel_reason()));
            }
            let execute_start = Instant::now();
            ctx.log("agent: phase execute");
            let mut data = match std::panic::catch_unwind(AssertUnwindSafe(|| client.execute(ctx)))
            {
                Ok(Ok(data)) => data,
                Ok(Err(e)) => return Err(format!("execute failed: {e}")),
                Err(panic) => return Err(format!("execute panicked: {}", panic_message(&panic))),
            };
            let execute_ms = execute_start.elapsed().as_millis() as u64;
            // Basic metrics the library measures on its own (paper §2.2).
            let mut agent_info = obj! {
                "client" => client.name(),
                "setup_millis" => setup_ms,
                "warmup_millis" => warmup_ms,
                "execute_millis" => execute_ms,
            };
            if let Some(resources) = tracker.finish() {
                agent_info.set("resources", resources);
            }
            data.set("agent", agent_info);
            ctx.set_progress(100);
            Ok(data)
        })();
        self.evaluation_client.tear_down(ctx);
        result
    }
}

/// Builds the result zip: every attachment plus a pretty-printed copy of the
/// measurement document for offline analysis.
fn build_archive(ctx: &JobContext, data: &Value) -> Vec<u8> {
    let mut zip = ZipWriter::new();
    let _ = zip.add_file("result.json", data.to_pretty_string().as_bytes());
    for (name, bytes) in ctx.take_attachments() {
        let _ = zip.add_file(&name, &bytes);
    }
    zip.finish()
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// The stop signal of a per-job worker thread (heartbeat, budget watchdog):
/// a one-way flag the thread sleeps on between rounds of work, so that
/// [`StopSignal::stop`] ends it with the run, not with its current sleep.
#[derive(Default)]
pub(crate) struct StopSignal {
    stopped: Mutex<bool>,
    wake: Condvar,
}

impl StopSignal {
    /// Sets the flag and wakes every waiter.
    pub(crate) fn stop(&self) {
        *self.stopped.lock().expect("stop signal poisoned") = true;
        self.wake.notify_all();
    }

    /// Sleeps out `timeout` (spurious wake-ups sleep on) unless stopped
    /// first. Returns whether the signal is stopped.
    pub(crate) fn wait(&self, timeout: Duration) -> bool {
        let stopped = self.stopped.lock().expect("stop signal poisoned");
        let (stopped, _) = self
            .wake
            .wait_timeout_while(stopped, timeout, |stopped| !*stopped)
            .expect("stop signal poisoned");
        *stopped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_sleeps_out_its_timeout_when_not_stopped() {
        let start = Instant::now();
        assert!(!StopSignal::default().wait(Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn stop_wakes_a_waiter_at_once_and_stays_set() {
        let signal = Arc::new(StopSignal::default());
        let waiter = {
            let signal = Arc::clone(&signal);
            std::thread::spawn(move || {
                let start = Instant::now();
                (signal.wait(Duration::from_secs(30)), start.elapsed())
            })
        };
        signal.stop();
        let (stopped, waited) = waiter.join().unwrap();
        assert!(stopped);
        assert!(waited < Duration::from_secs(5), "woke after {waited:?}");
        assert!(signal.wait(Duration::from_secs(30)), "a stopped signal never sleeps");
    }
}
