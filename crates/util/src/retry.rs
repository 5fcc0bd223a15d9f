//! Bounded retry with decorrelated jitter.
//!
//! Chronos Agents run unattended for days (requirement *(iii)*: long-running
//! evaluations need reliability), so every call to Chronos Control goes
//! through a retry policy instead of failing the whole evaluation on a
//! transient network hiccup. The delays follow one seeded
//! decorrelated-jitter schedule, so a fleet of agents retrying the same
//! outage doesn't synchronize into a thundering herd.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// A decorrelated-jitter backoff policy with an attempt cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backoff {
    /// Lower bound of every delay, and the first delay's upper bound.
    pub initial: Duration,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
    /// Maximum number of attempts (including the first).
    pub max_attempts: u32,
    /// Seed of the delay schedule ([`Backoff::jittered_delays`]): the same
    /// seed sleeps the same delays, which tests rely on.
    pub jitter_seed: u64,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            initial: Duration::from_millis(50),
            max_delay: Duration::from_secs(5),
            max_attempts: 5,
            jitter_seed: 0,
        }
    }
}

impl Backoff {
    /// A policy that never retries.
    pub fn none() -> Self {
        Backoff { max_attempts: 1, ..Backoff::default() }
    }

    /// Seeds the delay schedule with `seed`; agents seed theirs apart so
    /// their retries fan out.
    pub fn with_decorrelated_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The decorrelated-jitter delay sequence for `seed` (AWS-style:
    /// each delay is uniform in `[initial, min(max_delay, 3 * previous)]`).
    /// The iterator is unbounded; `run` cuts it off at `max_attempts`.
    pub fn jittered_delays(&self, seed: u64) -> JitterSchedule {
        JitterSchedule {
            rng: StdRng::seed_from_u64(seed),
            initial_ms: (self.initial.as_millis() as u64).max(1),
            cap_ms: (self.max_delay.as_millis() as u64).max(1),
            prev_ms: (self.initial.as_millis() as u64).max(1),
        }
    }

    /// Runs `op` until it succeeds or the policy is exhausted, sleeping
    /// between attempts. Returns the last error on exhaustion.
    pub fn run<T, E, F>(&self, op: F) -> Result<T, E>
    where
        F: FnMut(u32) -> Result<T, E>,
    {
        self.run_hinted(op, |_| None)
    }

    /// Like [`run`](Backoff::run), but lets the caller extract a server-sent
    /// retry hint (`Retry-After`) from each error. When a hint is present the
    /// sleep is `max(hint, scheduled delay)`: the hint can only stretch a
    /// delay, never shrink it below the jitter, so a fleet told "come back in
    /// 2s" still fans out instead of stampeding at t+2s exactly. Hints are
    /// clamped to [`MAX_RETRY_HINT`] so a misconfigured server cannot park a
    /// client for hours.
    pub fn run_hinted<T, E, F, H>(&self, mut op: F, hint: H) -> Result<T, E>
    where
        F: FnMut(u32) -> Result<T, E>,
        H: Fn(&E) -> Option<Duration>,
    {
        let mut delays = self.jittered_delays(self.jitter_seed);
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if attempt + 1 >= self.max_attempts => return Err(e),
                Err(e) => {
                    let delay = delays.next().expect("the jitter schedule is unbounded");
                    std::thread::sleep(effective_delay(delay, hint(&e)));
                    attempt += 1;
                }
            }
        }
    }
}

/// Upper bound honored for server-sent retry hints (see
/// [`Backoff::run_hinted`]).
pub const MAX_RETRY_HINT: Duration = Duration::from_secs(30);

/// The sleep actually taken for a scheduled `delay` and an optional
/// server-sent `hint`: `max(delay, min(hint, MAX_RETRY_HINT))`.
pub fn effective_delay(delay: Duration, hint: Option<Duration>) -> Duration {
    match hint {
        Some(h) => delay.max(h.min(MAX_RETRY_HINT)),
        None => delay,
    }
}

/// Iterator over a decorrelated-jitter delay sequence
/// (see [`Backoff::jittered_delays`]).
#[derive(Debug, Clone)]
pub struct JitterSchedule {
    rng: StdRng,
    initial_ms: u64,
    cap_ms: u64,
    prev_ms: u64,
}

impl Iterator for JitterSchedule {
    type Item = Duration;

    fn next(&mut self) -> Option<Duration> {
        let hi = self.prev_ms.saturating_mul(3).clamp(self.initial_ms, self.cap_ms);
        let ms = if hi <= self.initial_ms {
            self.initial_ms
        } else {
            self.rng.gen_range(self.initial_ms..=hi)
        };
        self.prev_ms = ms;
        Some(Duration::from_millis(ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Delays of 1–3 ms: the `run` tests sleep, but not for long.
    fn quick(max_attempts: u32) -> Backoff {
        Backoff {
            initial: Duration::from_millis(1),
            max_delay: Duration::from_millis(3),
            max_attempts,
            jitter_seed: 9,
        }
    }

    #[test]
    fn none_never_retries() {
        let mut calls = 0;
        let result: Result<(), u32> = Backoff::none().run(|attempt| {
            calls += 1;
            Err(attempt)
        });
        assert_eq!(result, Err(0));
        assert_eq!(calls, 1);
    }

    #[test]
    fn run_retries_until_success() {
        let mut calls = 0;
        let result: Result<u32, &str> = quick(5).run(|attempt| {
            calls += 1;
            if attempt < 2 {
                Err("transient")
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(result, Ok(2));
        assert_eq!(calls, 3);
    }

    #[test]
    fn run_returns_last_error_when_exhausted() {
        let mut calls = 0;
        let result: Result<(), u32> = quick(4).run(|attempt| {
            calls += 1;
            Err(attempt)
        });
        assert_eq!(result, Err(3));
        assert_eq!(calls, 4);
    }

    #[test]
    fn run_sleeps_the_seeded_schedule() {
        let b = Backoff {
            initial: Duration::from_millis(5),
            max_delay: Duration::from_millis(20),
            max_attempts: 4,
            jitter_seed: 11,
        };
        let scheduled: Vec<Duration> = b.jittered_delays(11).take(3).collect();
        let mut attempted_at = Vec::new();
        let result: Result<(), u32> = b.run(|attempt| {
            attempted_at.push(std::time::Instant::now());
            Err(attempt)
        });
        assert_eq!(result, Err(3));
        // Between consecutive attempts, at least that step's delay of the
        // schedule seeded with `jitter_seed`.
        for (gap, delay) in attempted_at.windows(2).zip(&scheduled) {
            assert!(gap[1] - gap[0] >= *delay, "slept less than the scheduled {delay:?}");
        }
    }

    #[test]
    fn run_hinted_stretches_delay_to_the_hint() {
        let hint = Duration::from_millis(60);
        let started = std::time::Instant::now();
        let result: Result<(), u32> = quick(3).run_hinted(Err, |_| Some(hint));
        assert_eq!(result, Err(2));
        // Two sleeps, each stretched from at most 3 ms to the 60 ms hint.
        assert!(started.elapsed() >= hint * 2, "hint must stretch the scheduled delay");
    }

    #[test]
    fn run_hinted_never_shrinks_below_the_schedule() {
        // initial == max_delay: every scheduled delay is exactly 40 ms.
        let b = Backoff {
            initial: Duration::from_millis(40),
            max_delay: Duration::from_millis(40),
            max_attempts: 2,
            jitter_seed: 9,
        };
        let started = std::time::Instant::now();
        // A 1ms hint must not shrink the scheduled 40ms delay.
        let result: Result<(), u32> = b.run_hinted(Err, |_| Some(Duration::from_millis(1)));
        assert_eq!(result, Err(1));
        assert!(started.elapsed() >= Duration::from_millis(40));
    }

    #[test]
    fn effective_delay_takes_max_and_clamps() {
        let base = Duration::from_millis(100);
        assert_eq!(effective_delay(base, None), base);
        assert_eq!(effective_delay(base, Some(Duration::from_millis(1))), base);
        assert_eq!(
            effective_delay(base, Some(Duration::from_millis(250))),
            Duration::from_millis(250)
        );
        // An absurd hint is clamped so a misconfigured server cannot park
        // the client for a day.
        assert_eq!(effective_delay(base, Some(Duration::from_secs(86_400))), MAX_RETRY_HINT);
    }

    #[test]
    fn jittered_delays_are_deterministic_and_bounded() {
        let b = Backoff {
            initial: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            ..Backoff::default()
        };
        let a: Vec<Duration> = b.jittered_delays(42).take(50).collect();
        let again: Vec<Duration> = b.jittered_delays(42).take(50).collect();
        assert_eq!(a, again);
        for d in &a {
            assert!(*d >= b.initial && *d <= b.max_delay, "delay out of bounds: {d:?}");
        }
        let other: Vec<Duration> = b.jittered_delays(43).take(50).collect();
        assert_ne!(a, other);
    }
}
