//! The environment stamp carried by every output, and the history file.
//!
//! Containment alone shifts database benchmark results (the
//! Dockerization-impacts report in PAPERS.md), so a number without its
//! host is not comparable with another. Two result files are compared only
//! when their stamps agree on everything but the seed.

use std::path::Path;

use chronos_json::{obj, Value};

/// Stamp fields that must agree before two outputs are compared. The seed
/// is part of the stamp but varies between runs by design.
const COMPARED: [&str; 9] = [
    "nproc",
    "kernel",
    "cgroup_cpu_max",
    "cgroup_memory_max",
    "scratch_filesystem",
    "build_profile",
    "http_core",
    "quick",
    "pinned_cpu",
];

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map(|s| s.trim().to_string()).unwrap_or_else(|_| "n/a".into())
}

/// Filesystem type of the mount holding `dir`, from `/proc/self/mountinfo`
/// (longest mount-point prefix wins).
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "n/a".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // "... <mount point> <options> [optional...] - <fstype> <source> ..."
        let Some((left, right)) = line.split_once(" - ") else { continue };
        let Some(mount_point) = left.split(' ').nth(4) else { continue };
        let Some(fstype) = right.split(' ').next() else { continue };
        if dir.starts_with(mount_point) && best.as_ref().is_none_or(|b| mount_point.len() > b.0) {
            best = Some((mount_point.len(), fstype.to_string()));
        }
    }
    best.map(|b| b.1).unwrap_or_else(|| "n/a".into())
}

/// Collects the stamp for a run writing its scratch files under `scratch`.
/// `nproc` is the CPU count before the run was pinned to `pinned_cpu`.
pub fn stamp(
    scratch: &Path,
    seed: u64,
    quick: bool,
    nproc: usize,
    pinned_cpu: Option<usize>,
) -> Value {
    obj! {
        "nproc" => nproc,
        "kernel" => read_trimmed("/proc/sys/kernel/osrelease"),
        "cgroup_cpu_max" => read_trimmed("/sys/fs/cgroup/cpu.max"),
        "cgroup_memory_max" => read_trimmed("/sys/fs/cgroup/memory.max"),
        "scratch_filesystem" => filesystem_of(scratch),
        "build_profile" => if cfg!(debug_assertions) { "debug" } else { "release" },
        "http_core" => std::env::var("CHRONOS_HTTP_CORE").unwrap_or_else(|_| "default".into()),
        "quick" => quick,
        "pinned_cpu" => pinned_cpu.map_or(Value::from("none"), Value::from),
        "seed" => seed,
    }
}

/// The stamp fields on which `a` and `b` disagree (empty when comparable).
pub fn stamp_differences(a: &Value, b: &Value) -> Vec<String> {
    COMPARED
        .iter()
        .filter(|field| a.get(field) != b.get(field))
        .map(|field| {
            let show = |v: Option<&Value>| v.map(Value::to_string).unwrap_or_else(|| "-".into());
            format!("{field}: {} vs {}", show(a.get(field)), show(b.get(field)))
        })
        .collect()
}

/// The commit a history line is keyed by: `--commit`, else the checkout's
/// `.git/HEAD` (followed through one ref), else `"unknown"`.
pub fn commit_key(explicit: Option<&str>) -> String {
    if let Some(commit) = explicit {
        return commit.to_string();
    }
    let head = read_trimmed(".git/HEAD");
    match head.strip_prefix("ref: ") {
        Some(reference) => {
            let resolved = read_trimmed(&format!(".git/{reference}"));
            if resolved == "n/a" {
                "unknown".into()
            } else {
                resolved
            }
        }
        None if head != "n/a" => head,
        None => "unknown".into(),
    }
}

/// Appends one JSON line to the history file.
pub fn append_history(path: &Path, line: &Value) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    let mut text = line.to_string();
    text.push('\n');
    file.write_all(text.as_bytes())?;
    file.sync_all()
}

/// Reads a history file: one JSON object per line.
pub fn read_history(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            chronos_json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

/// Compares two history files metric by metric (medians per workload).
/// Refuses — returns `Err` — when any two lines disagree on the stamp.
pub fn compare_histories(a: &Path, b: &Path) -> Result<String, String> {
    let left = read_history(a)?;
    let right = read_history(b)?;
    let reference =
        left.first().and_then(|l| l.get("environment")).ok_or("first file has no stamped line")?;
    for line in left.iter().chain(&right) {
        let stamp = line.get("environment").ok_or("unstamped history line")?;
        let differences = stamp_differences(reference, stamp);
        if !differences.is_empty() {
            return Err(format!(
                "refusing to compare: environment stamps differ ({})",
                differences.join("; ")
            ));
        }
    }
    let mut out = String::new();
    let medians = |lines: &[Value]| {
        let mut values: std::collections::BTreeMap<(String, String), Vec<f64>> = Default::default();
        for line in lines {
            let workload = line.get("workload").and_then(Value::as_str).unwrap_or("?").to_string();
            let Some(metrics) = line.get("metrics").and_then(Value::as_object) else { continue };
            for (name, metric) in metrics.iter() {
                if let Some(v) = metric.get("value").and_then(Value::as_f64) {
                    values.entry((workload.clone(), name.to_string())).or_default().push(v);
                }
            }
        }
        values
    };
    let (left, right) = (medians(&left), medians(&right));
    out.push_str(&format!(
        "{:<18} {:<22} {:>14} {:>14} {:>8}\n",
        "workload", "metric", "a", "b", "b/a"
    ));
    for (key, a_values) in &left {
        let Some(b_values) = right.get(key) else { continue };
        let (ma, mb) = (crate::stats::median(a_values), crate::stats::median(b_values));
        let ratio = if ma != 0.0 { mb / ma } else { 0.0 };
        out.push_str(&format!("{:<18} {:<22} {ma:>14.4} {mb:>14.4} {ratio:>8.3}\n", key.0, key.1));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_compare_on_everything_but_the_seed() {
        let a = stamp(Path::new("."), 1, false, 2, Some(1));
        let b = stamp(Path::new("."), 2, false, 2, Some(1));
        assert!(stamp_differences(&a, &b).is_empty());
        let mut other_host = a.clone();
        other_host.set("nproc", 64);
        other_host.set("kernel", "0.0.0-other");
        let differences = stamp_differences(&a, &other_host);
        assert_eq!(differences.len(), 2);
        assert!(differences[0].starts_with("nproc: "));
        let quick = stamp(Path::new("."), 1, true, 2, Some(1));
        assert_eq!(stamp_differences(&a, &quick).len(), 1);
    }

    #[test]
    fn comparing_files_with_different_stamps_is_refused() {
        let dir =
            std::env::temp_dir().join(format!("chronos-benchmark-env-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
        let line = |nproc: i64, value: f64| {
            let mut environment = stamp(Path::new("."), 7, false, 2, Some(1));
            environment.set("nproc", nproc);
            obj! {
                "commit" => "c",
                "workload" => "sweep_control",
                "environment" => environment,
                "metrics" => obj! { "ops_per_s" => obj! { "value" => value, "unit" => "1/s" } },
            }
        };
        append_history(&a, &line(2, 100.0)).unwrap();
        append_history(&b, &line(2, 110.0)).unwrap();
        let table = compare_histories(&a, &b).unwrap();
        assert!(table.contains("ops_per_s") && table.contains("1.100"), "{table}");
        append_history(&b, &line(8, 400.0)).unwrap();
        let refusal = compare_histories(&a, &b).unwrap_err();
        assert!(refusal.contains("refusing to compare") && refusal.contains("nproc"), "{refusal}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
