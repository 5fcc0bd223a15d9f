//! `--calibrate N` and the `--quick` smoke: both run workloads as child
//! processes of this binary (a workload always gets a fresh process) and
//! read the children's last line.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use chronos_json::Value;

use crate::metrics::END_TO_END;
use crate::stats;
use crate::workloads::Workload;

/// Runs one workload in a child process; returns its parsed last line, or
/// the reason there is none.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: Option<f64>,
    quick: bool,
    history: Option<&Path>,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload.name(), "--seed", &seed.to_string(), "--trace", "0"]);
    if let Some(seconds) = seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if quick {
        command.arg("--quick");
    }
    if let Some(history) = history {
        command.arg("--history").arg(history);
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let line = chronos_json::parse(last)
        .map_err(|e| format!("{} printed no result line ({e}): {last}", workload.name()))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}: {stdout}", workload.name(), output.status));
    }
    Ok(line)
}

fn metric(line: &Value, name: &str) -> Option<f64> {
    line.pointer(&format!("/metrics/{name}/value")).and_then(Value::as_f64)
}

/// Runs every workload `runs` times with seeds 1..=runs (workloads in
/// reverse order with `reverse`) and prints, per end-to-end metric, the
/// median, the quartiles and the spread against the metric's bound. The
/// benchmark is steady when every spread is under a third of its bound;
/// exits non-zero when a spread exceeds the bound itself. With `history`
/// every run also appends its stamped line there, so two calibrations can
/// be put side by side with `--compare`.
pub fn calibrate(runs: usize, seconds: f64, reverse: bool, history: Option<&Path>) -> ExitCode {
    let mut order = Workload::ALL.to_vec();
    if reverse {
        order.reverse();
    }
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for seed in 1..=runs as u64 {
        for workload in &order {
            match run_child(*workload, seed, Some(seconds), false, history) {
                Ok(line) => {
                    for (name, ..) in END_TO_END {
                        if let Some(value) = metric(&line, name) {
                            values.entry((workload.name(), name)).or_default().push(value);
                        }
                    }
                    eprintln!("calibrate: {} seed {seed} done", workload.name());
                }
                Err(message) => {
                    eprintln!("calibrate: {message}");
                    return ExitCode::from(1);
                }
            }
        }
    }
    println!(
        "{:<18} {:<16} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    let mut worst = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        for (name, _, _, bound) in END_TO_END {
            let samples = &values[&(workload.name(), name)];
            let (q1, q2, q3) = stats::quartiles(samples).expect("two runs or more");
            let spread = stats::spread(samples).unwrap_or(f64::INFINITY);
            let verdict = if name == "setup_s" {
                "(spread not gated)"
            } else if spread <= bound / 3.0 {
                "steady"
            } else if spread <= bound {
                "within bound, above a third of it"
            } else {
                worst = ExitCode::from(1);
                "ABOVE BOUND"
            };
            println!(
                "{:<18} {name:<16} {q1:>12.4} {q2:>12.4} {q3:>12.4} {spread:>8.4} {bound:>6.2}  {verdict}",
                workload.name()
            );
        }
    }
    worst
}

/// `--quick` without a workload: every workload at about a twentieth of
/// its size, one after another, each in its own process. Smokes the
/// harness; the numbers are marked not comparable.
pub fn quick_smoke(seed: u64) -> ExitCode {
    let mut worst = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        match run_child(workload, seed, None, true, None) {
            Ok(line) => println!("{} (quick: not comparable) {line}", workload.name()),
            Err(message) => {
                eprintln!("quick: {message}");
                worst = ExitCode::from(1);
            }
        }
    }
    worst
}
