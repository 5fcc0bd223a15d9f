//! E12 harness: keep-alive connection-scaling generator for chronos-http.
//!
//! Simulates a fleet of Chronos Agents holding persistent keep-alive
//! connections to the control plane. `agents` sockets are multiplexed over
//! a small, fixed set of driver threads (a bench that needed one OS thread
//! per agent could not reach fleet scale itself), each driver
//! round-robining a closed loop over its sockets: send one `GET`, read one
//! response, move on.
//!
//! Classification mirrors the E11 harness: 2xx responses are goodput and
//! record their latency; typed 429/503 sheds back off per the server's
//! Retry-After hint; a read timeout — the signature of a connection that
//! got accepted but will never be served — counts as an error and forces
//! a reconnect. A healthy server answers every agent *somehow* (result or
//! typed shed) within the timeout; one that only serves the connections
//! holding its workers starves the rest, and shows up here as errors.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chronos_json::{obj, Value};

/// Driver threads multiplexing the agent sockets.
pub const DRIVERS: usize = 8;

/// Read timeout: an agent whose request is not answered (even by a typed
/// shed) within this window counts as starved.
const READ_TIMEOUT: Duration = Duration::from_secs(1);

/// Connect timeout for (re)dialing an agent socket.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Backoff after a shed when the server sent no usable Retry-After hint.
const DEFAULT_SHED_BACKOFF: Duration = Duration::from_millis(5);

/// Cap on how long an agent honors a shed hint. Generous compared to the
/// E11 harness: at thousands of agents the shed replies themselves are a
/// server workload, and a cooperating fleet paces accordingly.
const MAX_SHED_BACKOFF: Duration = Duration::from_secs(2);

/// Pause before redialing after a transport error (avoids connect storms
/// against a core that is already failing to keep up).
const RECONNECT_BACKOFF: Duration = Duration::from_millis(10);

/// One measured point: `agents` keep-alive connections for `duration`.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    pub agents: usize,
    pub ok: u64,
    pub shed: u64,
    /// Starved or broken requests: read timeouts, EOFs, connect failures.
    pub errors: u64,
    pub reconnects: u64,
    /// Agents that completed at least one 2xx during the window. A core
    /// that answers only a lucky few at full speed has high goodput but
    /// low coverage — it is not sustaining the fleet.
    pub served_agents: usize,
    pub goodput_per_sec: f64,
    /// Latency percentiles over accepted (2xx) responses only.
    pub p50_ms: f64,
    pub p99_ms: f64,
}

impl ScalePoint {
    /// Fraction of answered-or-attempted requests that failed outright.
    pub fn error_rate(&self) -> f64 {
        let total = self.ok + self.shed + self.errors;
        if total == 0 {
            return 1.0;
        }
        self.errors as f64 / total as f64
    }

    /// JSON row for `BENCH_http_scale.json`.
    pub fn to_json(&self) -> Value {
        obj! {
            "agents" => self.agents as i64,
            "ok" => self.ok as i64,
            "shed" => self.shed as i64,
            "errors" => self.errors as i64,
            "reconnects" => self.reconnects as i64,
            "served_agents" => self.served_agents as i64,
            "goodput_per_sec" => self.goodput_per_sec,
            "p50_ms" => self.p50_ms,
            "p99_ms" => self.p99_ms,
        }
    }
}

/// One agent socket owned by a driver thread.
struct AgentConn {
    stream: Option<BufReader<TcpStream>>,
    /// Earliest instant this agent may send again (shed/reconnect backoff).
    not_before: Instant,
    /// Completed at least one 2xx this window.
    served: bool,
    /// Per-socket LCG state for backoff jitter (seeded from the socket's
    /// global index, so runs are reproducible).
    seed: u64,
}

impl AgentConn {
    /// Jitters a shed hint upward into [1.0, 1.5)× — the agent contract
    /// (`max(jittered backoff, server hint)`): the hint is a floor, and
    /// the spread keeps a fleet that was shed together from retrying in
    /// lockstep and being shed together forever.
    fn jittered(&mut self, hint: Duration) -> Duration {
        self.seed = self.seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let frac = 1024 + ((self.seed >> 33) % 512) as u32;
        hint.mul_f64(f64::from(frac) / 1024.0)
    }
}

/// What one response told us.
enum Reply {
    Ok { latency: Duration, close: bool },
    Shed { hint: Option<Duration>, close: bool },
    Broken,
}

/// Reads one keep-alive HTTP response off `reader`.
fn read_reply(reader: &mut BufReader<TcpStream>, started: Instant) -> Reply {
    let mut status_line = String::new();
    match reader.read_line(&mut status_line) {
        Ok(0) | Err(_) => return Reply::Broken,
        Ok(_) => {}
    }
    let status: u16 = match status_line.split_whitespace().nth(1).and_then(|s| s.parse().ok()) {
        Some(code) => code,
        None => return Reply::Broken,
    };
    let mut content_length = 0usize;
    let mut close = false;
    let mut hint = None;
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return Reply::Broken,
            Ok(_) => {}
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().unwrap_or(0);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("x-chronos-retry-after-ms") {
            hint = value.parse::<u64>().ok().map(Duration::from_millis);
        }
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 && reader.read_exact(&mut body).is_err() {
        return Reply::Broken;
    }
    match status {
        200..=299 => Reply::Ok { latency: started.elapsed(), close },
        429 | 503 => Reply::Shed { hint, close },
        _ => Reply::Broken,
    }
}

/// Runs `agents` closed-loop keep-alive connections against `addr` for
/// `duration`, multiplexed over [`DRIVERS`] driver threads.
pub fn run_scale(addr: SocketAddr, path: &str, agents: usize, duration: Duration) -> ScalePoint {
    let drivers = DRIVERS.min(agents.max(1));
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let handles: Vec<_> = (0..drivers)
        .map(|driver| {
            // Spread the sockets as evenly as the division allows.
            let mine = agents / drivers + usize::from(driver < agents % drivers);
            let stop = Arc::clone(&stop);
            let request =
                format!("GET {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n");
            std::thread::spawn(move || {
                let now = Instant::now();
                let mut conns: Vec<AgentConn> = (0..mine)
                    .map(|i| AgentConn {
                        stream: None,
                        not_before: now,
                        served: false,
                        seed: (driver * agents + i) as u64 | 1,
                    })
                    .collect();
                let mut ok = 0u64;
                let mut shed = 0u64;
                let mut errors = 0u64;
                let mut reconnects = 0u64;
                let mut latencies: Vec<f64> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let mut progressed = false;
                    let mut next_due: Option<Instant> = None;
                    for conn in conns.iter_mut() {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let now = Instant::now();
                        if now < conn.not_before {
                            next_due = Some(match next_due {
                                Some(due) => due.min(conn.not_before),
                                None => conn.not_before,
                            });
                            continue;
                        }
                        if conn.stream.is_none() {
                            let Ok(stream) = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
                            else {
                                errors += 1;
                                conn.not_before = now + RECONNECT_BACKOFF;
                                continue;
                            };
                            let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
                            let _ = stream.set_write_timeout(Some(READ_TIMEOUT));
                            let _ = stream.set_nodelay(true);
                            conn.stream = Some(BufReader::new(stream));
                        }
                        let reader = conn.stream.as_mut().expect("connected above");
                        progressed = true;
                        let sent = Instant::now();
                        if reader.get_mut().write_all(request.as_bytes()).is_err() {
                            errors += 1;
                            conn.stream = None;
                            conn.not_before = sent + RECONNECT_BACKOFF;
                            continue;
                        }
                        match read_reply(reader, sent) {
                            Reply::Ok { latency, close } => {
                                ok += 1;
                                conn.served = true;
                                latencies.push(latency.as_secs_f64() * 1e3);
                                if close {
                                    conn.stream = None;
                                    reconnects += 1;
                                }
                            }
                            Reply::Shed { hint, close } => {
                                shed += 1;
                                let base =
                                    hint.unwrap_or(DEFAULT_SHED_BACKOFF).min(MAX_SHED_BACKOFF);
                                conn.not_before = Instant::now() + conn.jittered(base);
                                if close {
                                    conn.stream = None;
                                    reconnects += 1;
                                }
                            }
                            Reply::Broken => {
                                errors += 1;
                                conn.stream = None;
                                conn.not_before = Instant::now() + RECONNECT_BACKOFF;
                            }
                        }
                    }
                    if !progressed {
                        // Every socket is backing off: sleep until the
                        // earliest one is due instead of rescanning — the
                        // CPU belongs to the server under test.
                        let wait = next_due
                            .map(|due| due.saturating_duration_since(Instant::now()))
                            .unwrap_or(Duration::from_millis(1))
                            .clamp(Duration::from_micros(100), Duration::from_millis(10));
                        std::thread::sleep(wait);
                    }
                }
                let served = conns.iter().filter(|c| c.served).count();
                (ok, shed, errors, reconnects, served, latencies)
            })
        })
        .collect();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut errors = 0u64;
    let mut reconnects = 0u64;
    let mut served_agents = 0usize;
    let mut latencies: Vec<f64> = Vec::new();
    for handle in handles {
        let (o, s, e, r, served, mut l) = handle.join().expect("driver thread panicked");
        ok += o;
        shed += s;
        errors += e;
        reconnects += r;
        served_agents += served;
        latencies.append(&mut l);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let p50 = crate::overload::percentile_ms(&mut latencies, 50.0);
    let p99 = crate::overload::percentile_ms(&mut latencies, 99.0);
    ScalePoint {
        agents,
        ok,
        shed,
        errors,
        reconnects,
        served_agents,
        goodput_per_sec: ok as f64 / elapsed.max(1e-9),
        p50_ms: p50,
        p99_ms: p99,
    }
}

/// Per-core E12 result: the sweep plus the headline "sustained agents"
/// figure (largest point that kept goodput within 10% of the core's peak,
/// accepted p99 within 2x the low-concurrency baseline, and errors under
/// 1%).
#[derive(Debug)]
pub struct CoreReport {
    pub core: &'static str,
    pub baseline_p99_ms: f64,
    pub points: Vec<ScalePoint>,
    pub sustained_agents: usize,
}

impl CoreReport {
    /// Applies the sustained-agents criterion over a finished sweep.
    pub fn evaluate(
        core: &'static str,
        baseline_p99_ms: f64,
        points: Vec<ScalePoint>,
    ) -> CoreReport {
        let peak = points.iter().map(|p| p.goodput_per_sec).fold(0.0f64, f64::max);
        let sustained_agents = points
            .iter()
            .filter(|p| point_sustained(p, peak, baseline_p99_ms))
            .map(|p| p.agents)
            .max()
            .unwrap_or(0);
        CoreReport { core, baseline_p99_ms, points, sustained_agents }
    }

    /// JSON block for `BENCH_http_scale.json`.
    pub fn to_json(&self) -> Value {
        obj! {
            "core" => self.core,
            "baseline_p99_ms" => self.baseline_p99_ms,
            "sustained_agents" => self.sustained_agents as i64,
            "points" => Value::Array(self.points.iter().map(ScalePoint::to_json).collect()),
        }
    }
}

/// Whether one sweep point meets the sustained criterion: goodput within
/// 10% of the core's peak, accepted p99 within 2x the low-concurrency
/// baseline, under 1% starved requests, and at least 95% of the agents
/// actually served.
pub fn point_sustained(point: &ScalePoint, peak_goodput: f64, baseline_p99_ms: f64) -> bool {
    // The baseline is floored at 1 ms: sub-millisecond tails on a shared
    // host are scheduler noise, not signal — Chronos agents poll at second
    // granularity (paper §2.2), so a millisecond of added tail is well
    // inside "sustained".
    point.goodput_per_sec >= 0.9 * peak_goodput
        && point.p99_ms <= 2.0 * baseline_p99_ms.max(1.0)
        && point.error_rate() <= 0.01
        && point.served_agents as f64 >= 0.95 * point.agents as f64
}

/// Whether a sweep should stop early: the core has collapsed at this point,
/// so larger points would only burn bench time re-proving it.
pub fn point_collapsed(point: &ScalePoint, peak_goodput: f64) -> bool {
    point.goodput_per_sec < 0.5 * peak_goodput || point.error_rate() > 0.10
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(agents: usize, goodput: f64, p99: f64, ok: u64, errors: u64) -> ScalePoint {
        ScalePoint {
            agents,
            ok,
            shed: 0,
            errors,
            reconnects: 0,
            served_agents: agents,
            goodput_per_sec: goodput,
            p50_ms: p99 / 2.0,
            p99_ms: p99,
        }
    }

    #[test]
    fn sustained_criterion_applies_all_four_gates() {
        let baseline = 2.0;
        let peak = 1000.0;
        assert!(point_sustained(&point(64, 950.0, 3.0, 1000, 0), peak, baseline));
        // Goodput collapse.
        assert!(!point_sustained(&point(64, 500.0, 3.0, 1000, 0), peak, baseline));
        // Latency blowout.
        assert!(!point_sustained(&point(64, 950.0, 9.0, 1000, 0), peak, baseline));
        // Starvation errors.
        assert!(!point_sustained(&point(64, 950.0, 3.0, 1000, 50), peak, baseline));
        // High goodput concentrated on a lucky few agents.
        let mut unfair = point(64, 950.0, 3.0, 1000, 0);
        unfair.served_agents = 6;
        assert!(!point_sustained(&unfair, peak, baseline));
    }

    #[test]
    fn collapse_detector_stops_hopeless_sweeps() {
        assert!(point_collapsed(&point(512, 100.0, 1.0, 100, 0), 1000.0));
        assert!(point_collapsed(&point(512, 950.0, 1.0, 100, 20), 1000.0));
        assert!(!point_collapsed(&point(512, 950.0, 1.0, 1000, 5), 1000.0));
    }

    #[test]
    fn error_rate_handles_zero_traffic() {
        assert_eq!(point(8, 0.0, 0.0, 0, 0).error_rate(), 1.0);
    }

    #[test]
    fn report_picks_largest_sustained_point() {
        let report = CoreReport::evaluate(
            "reactor",
            2.0,
            vec![
                point(4, 1000.0, 2.5, 4000, 0),
                point(64, 980.0, 3.0, 3900, 0),
                point(512, 960.0, 3.5, 3800, 0),
                point(2048, 500.0, 30.0, 2000, 100),
            ],
        );
        assert_eq!(report.sustained_agents, 512);
    }
}
