//! Per-job resource budget enforcement (runaway-job containment).
//!
//! An experiment can declare budgets — cpu time, peak resident set, block
//! I/O volume, wall clock — that flow through the job document to every
//! claimed job. The agent arms a [`BudgetWatchdog`] around the run: a
//! sampling thread reads the same procfs counters as the accounting layer
//! on a short interval and, the moment a dimension exceeds its budget,
//! cancels the run through [`JobContext::cancel`] and records a typed
//! [`BudgetBreach`]. The runtime reports the breach to Chronos Control as
//! a `budget_exceeded:<dimension>` failure, so the scheduler can count the
//! attempt and — after `max_attempts` — quarantine the job.
//!
//! Enforcement is cooperative on purpose: the evaluation client runs in
//! the agent's process, so the watchdog cannot `kill -9` it without taking
//! the agent down too. Well-behaved clients poll `is_cancelled()` between
//! operations (all bundled clients do); a hostile spin-loop is bounded by
//! the lease — Chronos Control reschedules the job when heartbeats stop
//! crediting progress — and, when the host permits it, by the optional
//! cgroup-v2 backstop below.
//!
//! [`CgroupScope`] is that backstop: when `CHRONOS_CGROUP_ENFORCE` is set
//! and `/sys/fs/cgroup` is a writable cgroup-v2 hierarchy, the agent moves
//! itself into a per-job child cgroup with `memory.max` set to twice the
//! rss budget (headroom so the watchdog fires first and produces the nicer
//! typed failure) and a one-cpu `cpu.max` throttle while a cpu budget is
//! armed. On any error the scope silently falls back to watchdog-only
//! enforcement — the portable path is always sufficient for correctness.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use chronos_api::v1::JobBudget;

use crate::context::JobContext;
use crate::resources::{current_rss_kib, ResourceSample};
use crate::runtime::StopSignal;

/// A budget dimension measured over its limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetBreach {
    /// The violated dimension: `cpu_millis`, `max_rss_kib`, `io_bytes` or
    /// `wall_millis`.
    pub dimension: &'static str,
    /// The measured value that crossed the line (same unit as the budget).
    pub measured: u64,
    /// The declared budget.
    pub limit: u64,
}

impl BudgetBreach {
    /// The typed failure reason uploaded to Chronos Control. The
    /// `budget_exceeded:` prefix is the machine-readable marker; the rest
    /// names the dimension and both sides of the comparison for humans.
    pub fn reason(&self) -> String {
        format!(
            "budget_exceeded:{}: measured {} > budget {}",
            self.dimension, self.measured, self.limit
        )
    }
}

/// The prefix every budget failure reason starts with.
pub const BUDGET_EXCEEDED_PREFIX: &str = "budget_exceeded:";

/// A sampling thread enforcing a [`JobBudget`] over one job run.
pub struct BudgetWatchdog {
    stop: Arc<StopSignal>,
    handle: Option<std::thread::JoinHandle<Option<BudgetBreach>>>,
}

impl BudgetWatchdog {
    /// Arms the watchdog: takes a baseline procfs sample now and checks
    /// every `interval` whether any budgeted dimension has been exceeded.
    /// On breach the job context is cancelled with the typed reason and
    /// the breach is kept for [`BudgetWatchdog::disarm`].
    pub fn arm(ctx: &JobContext, budget: JobBudget, interval: Duration) -> BudgetWatchdog {
        let stop = Arc::new(StopSignal::default());
        let thread_stop = Arc::clone(&stop);
        let ctx = ctx.clone();
        let baseline = ResourceSample::capture();
        let armed_at = Instant::now();
        let handle = std::thread::Builder::new()
            .name("chronos-agent-budget".into())
            .spawn(move || {
                while !thread_stop.wait(interval) {
                    if let Some(breach) = check(&budget, baseline.as_ref(), armed_at) {
                        ctx.log(format!("agent: budget watchdog: {}", breach.reason()));
                        ctx.cancel(breach.reason());
                        return Some(breach);
                    }
                }
                None
            })
            .expect("failed to spawn budget watchdog thread");
        BudgetWatchdog { stop, handle: Some(handle) }
    }

    /// Stops the sampling thread and returns the breach, if one fired.
    pub fn disarm(mut self) -> Option<BudgetBreach> {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> Option<BudgetBreach> {
        self.stop.stop();
        self.handle.take()?.join().ok().flatten()
    }
}

impl Drop for BudgetWatchdog {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One watchdog tick: measures every budgeted dimension against its limit.
/// Dimensions whose counters are unavailable (restricted `/proc/self/io`,
/// non-Linux hosts) are skipped, never treated as zero — absence of data
/// must not acquit or convict a job.
fn check(
    budget: &JobBudget,
    baseline: Option<&ResourceSample>,
    armed_at: Instant,
) -> Option<BudgetBreach> {
    if let Some(limit) = budget.wall_millis {
        let measured = armed_at.elapsed().as_millis() as u64;
        if measured > limit {
            return Some(BudgetBreach { dimension: "wall_millis", measured, limit });
        }
    }
    let now = ResourceSample::capture();
    if let (Some(limit), Some(baseline), Some(now)) = (budget.cpu_millis, baseline, now.as_ref()) {
        let measured = now.cpu_total_millis().saturating_sub(baseline.cpu_total_millis());
        if measured > limit {
            return Some(BudgetBreach { dimension: "cpu_millis", measured, limit });
        }
    }
    if let (Some(limit), Some(measured)) = (budget.max_rss_kib, current_rss_kib()) {
        if measured > limit {
            return Some(BudgetBreach { dimension: "max_rss_kib", measured, limit });
        }
    }
    if let (Some(limit), Some(baseline), Some(now)) = (budget.io_bytes, baseline, now.as_ref()) {
        // Io needs readable counters on both sides of the delta.
        if let (Some(first), Some(last)) = (baseline.io, now.io) {
            let measured = last.total().saturating_sub(first.total());
            if measured > limit {
                return Some(BudgetBreach { dimension: "io_bytes", measured, limit });
            }
        }
    }
    None
}

/// Best-effort cgroup-v2 backstop for one job run (see module docs).
/// Entering moves the agent process into a fresh child cgroup with
/// kernel-level limits; dropping the scope moves it back and removes the
/// child. Every step is fallible and every failure means "no backstop",
/// never a failed job.
pub struct CgroupScope {
    scope: PathBuf,
    parent_procs: PathBuf,
}

impl CgroupScope {
    /// Tries to enter a per-job cgroup. Returns `None` (watchdog-only
    /// enforcement) unless `CHRONOS_CGROUP_ENFORCE` is set, the host
    /// mounts a cgroup-v2 hierarchy, and the agent's current cgroup is
    /// writable.
    pub fn try_enter(job_id: chronos_util::Id, budget: &JobBudget) -> Option<CgroupScope> {
        std::env::var_os("CHRONOS_CGROUP_ENFORCE")?;
        let root = PathBuf::from("/sys/fs/cgroup");
        if !root.join("cgroup.controllers").is_file() {
            return None; // not a cgroup-v2 mount
        }
        // /proc/self/cgroup on v2 is a single "0::<path>" line.
        let mine = std::fs::read_to_string("/proc/self/cgroup").ok()?;
        let rel = mine.lines().find_map(|l| l.strip_prefix("0::"))?.trim();
        let current = root.join(rel.trim_start_matches('/'));
        let scope = current.join(format!("chronos-job-{}", job_id.to_base32()));
        std::fs::create_dir(&scope).ok()?;
        let entered = CgroupScope { scope, parent_procs: current.join("cgroup.procs") };
        if let Some(rss_kib) = budget.max_rss_kib {
            // 2× headroom: the watchdog should fire first with the typed
            // failure; the kernel limit only catches allocation storms
            // faster than one sampling interval.
            let bytes = rss_kib.saturating_mul(1024).saturating_mul(2);
            let _ = std::fs::write(entered.scope.join("memory.max"), bytes.to_string());
        }
        if budget.cpu_millis.is_some() {
            // cpu.max is a rate, not a total: throttle to one core so a
            // spin-loop cannot starve the watchdog/heartbeat threads. The
            // total cpu budget itself stays watchdog-enforced.
            let _ = std::fs::write(entered.scope.join("cpu.max"), "100000 100000");
        }
        // Moving the process in is the step most likely to be denied.
        std::fs::write(entered.scope.join("cgroup.procs"), std::process::id().to_string())
            .ok()
            // `entered` drops here: the empty child cgroup is removed.
            .map(|_| entered)
    }
}

impl Drop for CgroupScope {
    fn drop(&mut self) {
        // Leave first (a populated cgroup cannot be removed), then remove.
        let _ = std::fs::write(&self.parent_procs, std::process::id().to_string());
        let _ = std::fs::remove_dir(&self.scope);
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests pace themselves with sleeps
mod tests {
    use super::*;
    use chronos_json::obj;
    use chronos_util::Id;

    fn ctx() -> JobContext {
        JobContext::new(Id::generate(), obj! {})
    }

    #[test]
    fn breach_reason_is_typed_and_names_the_dimension() {
        let breach = BudgetBreach { dimension: "cpu_millis", measured: 900, limit: 500 };
        assert_eq!(breach.reason(), "budget_exceeded:cpu_millis: measured 900 > budget 500");
        assert!(breach.reason().starts_with(BUDGET_EXCEEDED_PREFIX));
    }

    #[test]
    fn compliant_run_disarms_clean() {
        let ctx = ctx();
        let budget = JobBudget {
            cpu_millis: Some(3_600_000),
            max_rss_kib: Some(u64::MAX / 2),
            wall_millis: Some(3_600_000),
            ..Default::default()
        };
        let watchdog = BudgetWatchdog::arm(&ctx, budget, Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(30));
        assert!(watchdog.disarm().is_none(), "no breach on a compliant run");
        assert!(!ctx.is_cancelled());
    }

    #[test]
    fn wall_clock_breach_cancels_within_an_interval() {
        let ctx = ctx();
        let budget = JobBudget { wall_millis: Some(10), ..Default::default() };
        let watchdog = BudgetWatchdog::arm(&ctx, budget, Duration::from_millis(5));
        let start = Instant::now();
        while !ctx.is_cancelled() && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(ctx.is_cancelled(), "watchdog must cancel a run past its wall budget");
        let breach = watchdog.disarm().expect("breach recorded");
        assert_eq!(breach.dimension, "wall_millis");
        assert!(breach.measured > breach.limit);
        assert!(ctx.cancel_reason().starts_with("budget_exceeded:wall_millis"));
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn rss_breach_detects_a_resident_set_over_budget() {
        // Any live process dwarfs a 1-KiB rss budget: the first tick fires.
        let ctx = ctx();
        let budget = JobBudget { max_rss_kib: Some(1), ..Default::default() };
        let watchdog = BudgetWatchdog::arm(&ctx, budget, Duration::from_millis(5));
        let start = Instant::now();
        while !ctx.is_cancelled() && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        let breach = watchdog.disarm().expect("breach recorded");
        assert_eq!(breach.dimension, "max_rss_kib");
    }

    #[test]
    fn io_check_skips_when_counters_unavailable() {
        // No io counters on either side: a 0-byte budget must NOT breach,
        // because absence of data is not evidence of traffic (or of none).
        let baseline = ResourceSample { io: None, ..Default::default() };
        let budget = JobBudget { io_bytes: Some(0), ..Default::default() };
        assert!(check(&budget, Some(&baseline), Instant::now()).is_none());
    }

    #[test]
    fn cgroup_scope_is_opt_in() {
        // Without the env opt-in the backstop must refuse regardless of
        // host support.
        if std::env::var_os("CHRONOS_CGROUP_ENFORCE").is_none() {
            let budget = JobBudget { max_rss_kib: Some(1024), ..Default::default() };
            assert!(CgroupScope::try_enter(Id::generate(), &budget).is_none());
        }
    }
}
