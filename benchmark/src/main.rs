//! `chronos-benchmark` — the repo benchmark (E17).
//!
//! ```text
//! chronos-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                   [--quick] [--history <file>] [--commit <id>]
//! chronos-benchmark --quick                      # all four workloads, small
//! chronos-benchmark --calibrate <N> [--seconds <s>] [--reverse] [--history <file>]
//! chronos-benchmark --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! A run prints its environment stamp and a readable table, then, as the
//! last line of standard output, one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! A failed output check exits non-zero.

mod calibrate;
mod env;
mod fixture;
mod layers;
mod loadgen;
mod metrics;
mod ops;
mod pin;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use chronos_json::{obj, Map, Value};

use workloads::{Options, Outcome, Workload};

/// The measured window when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// The parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    history: Option<PathBuf>,
    commit: Option<String>,
    calibrate: Option<usize>,
    reverse: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { seed: 1, ..Args::default() };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 =
                    value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--history" => args.history = Some(PathBuf::from(value("a file")?)),
            "--commit" => args.commit = Some(value("a commit id")?),
            "--calibrate" => {
                let runs: usize =
                    value("a count")?.parse().map_err(|e| format!("--calibrate: {e}"))?;
                if runs < 2 {
                    return Err("--calibrate needs 2 runs or more".into());
                }
                args.calibrate = Some(runs);
            }
            "--reverse" => args.reverse = true,
            "--compare" => {
                args.compare =
                    Some((PathBuf::from(value("two files")?), PathBuf::from(value("two files")?)))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The last line of a run: exactly `correct`, `attempted`, `failed`,
/// `metrics`, every value with all its digits.
fn result_line(outcome: &Outcome) -> Value {
    let mut metrics = Map::new();
    for (name, value) in &outcome.metrics {
        let unit = metrics::unit_of(name).expect("every reported metric is declared");
        metrics.insert(name.to_string(), obj! { "value" => *value, "unit" => unit });
    }
    obj! {
        "correct" => outcome.correct,
        "attempted" => outcome.attempted,
        "failed" => outcome.failed,
        "metrics" => Value::Object(metrics),
    }
}

/// Runs one workload in this process and prints its report.
fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let seconds =
        args.seconds.unwrap_or(if args.quick { DEFAULT_SECONDS / 20.0 } else { DEFAULT_SECONDS });
    let options = Options { seed: args.seed, seconds, quick: args.quick };
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let stamp = env::stamp(&fixture::out_dir(), args.seed, args.quick, nproc, pin::to_one_cpu());
    println!("environment {stamp}");
    let outcome = if args.trace {
        layers::run_traced(workload, &options, &stamp)
    } else {
        workloads::run_end_to_end(workload, &options)
    };
    println!(
        "{} seed {} {} s trace {}{}: attempted {} succeeded {} failed {}",
        workload.name(),
        args.seed,
        seconds,
        args.trace as u8,
        if args.quick { " (quick: not comparable)" } else { "" },
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed,
    );
    for (name, value) in &outcome.metrics {
        println!("  {name:<36} {value:>16.4} {}", metrics::unit_of(name).unwrap_or(""));
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    for problem in &outcome.problems {
        println!("  CHECK FAILED: {problem}");
    }
    let line = result_line(&outcome);
    if let Some(history) = &args.history {
        let mut entry = obj! {
            "commit" => env::commit_key(args.commit.as_deref()),
            "workload" => workload.name(),
            "trace" => args.trace,
            "seconds" => seconds,
            "environment" => stamp,
        };
        for key in ["correct", "attempted", "failed", "metrics"] {
            entry.set(key, line.get(key).cloned().expect("result line key"));
        }
        if let Err(e) = env::append_history(history, &entry) {
            eprintln!("cannot append to {}: {e}", history.display());
            return ExitCode::from(2);
        }
    }
    println!("{line}");
    if outcome.correct && outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("chronos-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match env::compare_histories(a, b) {
            Ok(table) => {
                print!("{table}");
                ExitCode::SUCCESS
            }
            Err(message) => {
                eprintln!("chronos-benchmark: {message}");
                ExitCode::from(1)
            }
        };
    }
    if let Some(runs) = args.calibrate {
        let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
        return calibrate::calibrate(runs, seconds, args.reverse, args.history.as_deref());
    }
    match args.workload.as_deref() {
        Some(name) => match Workload::parse(name) {
            Some(workload) => run_one(workload, &args),
            None => {
                eprintln!("chronos-benchmark: unknown workload {name}");
                ExitCode::from(2)
            }
        },
        None if args.quick => calibrate::quick_smoke(args.seed),
        None => {
            eprintln!("chronos-benchmark: give --workload, --quick, --calibrate or --compare");
            ExitCode::from(2)
        }
    }
}
