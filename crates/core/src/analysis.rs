//! Result analysis (paper Fig. 3d and requirement *(vi)*).
//!
//! Analysis turns an evaluation's per-job result documents into plottable
//! series: the experiment's swept parameters become the x axis and the
//! series split, the chart's `value_path` pointer selects the measurement.
//! A tabular summary and cross-series comparisons (who wins, by what
//! factor) are derived from the same data.

use std::sync::Arc;

use chronos_analytics::{
    detect_change_points, sum_count, Cell, ChangePoint, ChangePointConfig, ParamColumn,
    RegressionFlag, ResultTable,
};
use chronos_json::{obj, Value};
use chronos_util::Id;

use crate::charts::{ChartData, ChartSpec};
use crate::control::ChronosControl;
use crate::error::{CoreError, CoreResult};
use crate::model::JobState;

/// The standard metric columns (requirement *(vi)*): display label plus
/// the JSON pointer into a result document. Shared by the summary
/// endpoints, the CSV export, and the columnar ingest path.
pub const STANDARD_METRIC_COLUMNS: [(&str, &str); 6] = [
    ("execution_time_millis", "/wall_millis"),
    ("throughput_ops_per_sec", "/throughput_ops_per_sec"),
    ("total_ops", "/total_ops"),
    ("total_errors", "/total_errors"),
    ("read_latency_p99_micros", "/operations/read/latency_micros/p99"),
    ("update_latency_p99_micros", "/operations/update/latency_micros/p99"),
];

/// Just the pointers of [`STANDARD_METRIC_COLUMNS`] — the `json_paths`
/// argument of columnar ingestion (non-scalar values at these pointers
/// are captured verbatim so summaries stay byte-identical).
pub const STANDARD_METRIC_PATHS: [&str; 6] = [
    "/wall_millis",
    "/throughput_ops_per_sec",
    "/total_ops",
    "/total_errors",
    "/operations/read/latency_micros/p99",
    "/operations/update/latency_micros/p99",
];

/// One finished job read back from the row store: its parameters and
/// measurements. Input of the columnar backfill only — every read is
/// served from the table.
#[derive(Debug, Clone)]
pub(crate) struct ResultPoint {
    /// Job id.
    pub job_id: Id,
    /// The job's concrete parameters.
    pub parameters: Value,
    /// The uploaded measurement document.
    pub data: Value,
}

/// Collects the finished jobs of an evaluation, in `job_ids` order, for
/// [`ChronosControl::columnar_table`]'s backfill.
pub(crate) fn collect_points(
    control: &ChronosControl,
    evaluation_id: Id,
) -> CoreResult<Vec<ResultPoint>> {
    let jobs = control.list_jobs(evaluation_id)?;
    let mut points = Vec::new();
    for job in jobs {
        if job.state != JobState::Finished {
            continue;
        }
        if let Some(result) = control.result_for_job(job.id)? {
            points.push(ResultPoint {
                job_id: job.id,
                parameters: job.parameters.clone(),
                data: result.data,
            });
        }
    }
    Ok(points)
}

/// Sorts labels numerically when they all parse as numbers, else
/// lexicographically (thread counts must order 1, 2, 10 — not 1, 10, 2).
fn sort_labels(labels: &mut Vec<String>) {
    let all_numeric = labels.iter().all(|l| l.parse::<f64>().is_ok());
    if all_numeric {
        labels.sort_by(|a, b| {
            a.parse::<f64>()
                .unwrap_or(0.0)
                .partial_cmp(&b.parse::<f64>().unwrap_or(0.0))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    } else {
        labels.sort();
    }
    labels.dedup();
}

/// An evaluation's columnar table plus its rows gathered in canonical
/// `job_ids` order — the exact row set and iteration order of
/// [`collect_points`], so every columnar aggregation below is
/// bit-identical to the row path it replaced (kept as the oracle in this
/// module's tests).
fn columnar_rows(
    control: &ChronosControl,
    evaluation_id: Id,
) -> CoreResult<(Arc<ResultTable>, Vec<usize>)> {
    let evaluation = control.get_evaluation(evaluation_id)?;
    let table = control.columnar_table(evaluation_id)?;
    let order = table.gather(evaluation.job_ids.iter().map(Id::as_u128));
    Ok((table, order))
}

/// The display label of `row` in a parameter column — `"-"` for an
/// absent/null parameter.
fn column_label(column: Option<&ParamColumn>, row: usize) -> &str {
    column.and_then(|c| c.label_at(row)).unwrap_or("-")
}

/// Builds the [`ChartData`] for `spec` from an evaluation's results.
///
/// Multiple points landing in the same (x, series) cell are averaged —
/// repeated evaluations of the same experiment refine the measurement.
/// Served from the columnar store: the evaluation's live table replaces
/// the decode-every-job-and-result JSON scan.
pub fn chart_data(
    control: &ChronosControl,
    evaluation_id: Id,
    spec: &ChartSpec,
) -> CoreResult<ChartData> {
    let (table, order) = columnar_rows(control, evaluation_id)?;
    Ok(chart_data_from_table(&table, &order, spec))
}

/// [`chart_data`] over a columnar table and the physical rows to read, in
/// accumulation order: float sums run left to right over `order`, so the
/// output is bit-identical to the row-at-a-time oracle in this module's
/// tests.
pub fn chart_data_from_table(table: &ResultTable, order: &[usize], spec: &ChartSpec) -> ChartData {
    let x_col = table.param_column(&spec.x_param);
    let mut x_labels: Vec<String> =
        order.iter().map(|&row| column_label(x_col, row).to_string()).collect();
    sort_labels(&mut x_labels);
    let series_col = spec.series_param.as_ref().and_then(|p| table.param_column(p));
    let mut series_names: Vec<String> = match &spec.series_param {
        Some(_) => {
            let mut names: Vec<String> =
                order.iter().map(|&row| column_label(series_col, row).to_string()).collect();
            names.sort();
            names.dedup();
            names
        }
        None => vec![spec.y_label.clone()],
    };
    if series_names.is_empty() {
        series_names.push(spec.y_label.clone());
    }
    // One dense numeric vector per physical row; the accumulation loop
    // below never touches a JSON value.
    let values: Vec<Option<f64>> = match table.data_column(&spec.value_path) {
        Some(column) => column.materialize().iter().map(Cell::as_f64).collect(),
        None => Vec::new(),
    };
    // (series, x) -> (sum, count)
    let mut cells: Vec<Vec<(f64, u32)>> = vec![vec![(0.0, 0); x_labels.len()]; series_names.len()];
    for &row in order {
        let Some(value) = values.get(row).copied().flatten() else {
            continue;
        };
        let x = column_label(x_col, row);
        let series = match &spec.series_param {
            Some(_) => column_label(series_col, row),
            None => spec.y_label.as_str(),
        };
        let (Some(xi), Some(si)) =
            (x_labels.iter().position(|l| l == x), series_names.iter().position(|s| s == series))
        else {
            continue;
        };
        cells[si][xi].0 += value;
        cells[si][xi].1 += 1;
    }
    let series = series_names
        .into_iter()
        .zip(cells)
        .map(|(name, row)| {
            let values = row
                .into_iter()
                .map(|(sum, n)| if n == 0 { None } else { Some(sum / n as f64) })
                .collect();
            (name, values)
        })
        .collect();
    ChartData { x_labels, series }
}

/// A tabular summary of an evaluation: one row per finished job with its
/// parameters and the standard metrics found in the result document.
/// Served from the columnar store (parameter documents round-trip through
/// their canonical serialization, so the body is byte-identical to the
/// old row scan).
pub fn summary_table(control: &ChronosControl, evaluation_id: Id) -> CoreResult<Value> {
    let (table, order) = columnar_rows(control, evaluation_id)?;
    let metric_cells: Vec<(&str, Option<Vec<Cell<'_>>>)> = STANDARD_METRIC_COLUMNS
        .iter()
        .map(|&(label, pointer)| (label, table.data_column(pointer).map(|c| c.materialize())))
        .collect();
    let rows: Vec<Value> = order
        .iter()
        .map(|&row| {
            let parameters = table
                .params_json(row)
                .and_then(|s| chronos_json::parse(s).ok())
                .unwrap_or(Value::Null);
            let mut metrics = obj! {};
            for (label, cells) in &metric_cells {
                if let Some(v) = cells.as_ref().and_then(|c| c[row].to_value()) {
                    metrics.set(label, v);
                }
            }
            obj! {
                "job_id" => Id::from_u128(table.row_id(row)).to_base32(),
                "parameters" => parameters,
                "metrics" => metrics,
            }
        })
        .collect();
    Ok(obj! {
        "evaluation_id" => evaluation_id.to_base32(),
        "rows" => Value::Array(rows),
    })
}

/// Compares two series of a chart: per-x ratio `a / b` and the overall
/// winner. This is the "who wins, by what factor" readout of the demo.
pub fn compare_series(data: &ChartData, series_a: &str, series_b: &str) -> CoreResult<Value> {
    let find = |name: &str| {
        data.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, ys)| ys)
            .ok_or_else(|| CoreError::Invalid(format!("no series {name:?}")))
    };
    let a = find(series_a)?;
    let b = find(series_b)?;
    let mut ratios = Vec::new();
    let mut a_wins = 0usize;
    let mut comparisons = 0usize;
    for (i, label) in data.x_labels.iter().enumerate() {
        let Some(va) = a.get(i).copied().flatten() else { continue };
        let Some(vb) = b.get(i).copied().flatten() else { continue };
        if vb == 0.0 {
            continue;
        }
        comparisons += 1;
        if va > vb {
            a_wins += 1;
        }
        ratios.push(obj! {
            "x" => label.as_str(),
            "ratio" => va / vb,
        });
    }
    Ok(obj! {
        "a" => series_a,
        "b" => series_b,
        "comparisons" => comparisons,
        "a_wins" => a_wins,
        "ratios" => Value::Array(ratios),
    })
}

/// Escapes one CSV cell (RFC 4180 quoting).
fn csv_cell(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders an evaluation's finished jobs as CSV: one row per job, columns
/// for every parameter (union across jobs, sorted) followed by the standard
/// metrics. The export analysts pull into spreadsheets/R.
pub fn summary_csv(control: &ChronosControl, evaluation_id: Id) -> CoreResult<String> {
    let (table, order) = columnar_rows(control, evaluation_id)?;
    // Column union over parameters (the table already holds the union of
    // keys that appeared in any row).
    let mut param_names: Vec<&str> = table.param_names().collect();
    param_names.sort_unstable();
    let param_columns: Vec<Option<&ParamColumn>> =
        param_names.iter().map(|n| table.param_column(n)).collect();
    let metric_cells: Vec<Option<Vec<Cell<'_>>>> = STANDARD_METRIC_COLUMNS
        .iter()
        .map(|&(_, pointer)| table.data_column(pointer).map(|c| c.materialize()))
        .collect();
    let mut out = String::from("job_id");
    for column in &param_names {
        out.push(',');
        out.push_str(&csv_cell(column));
    }
    for (label, _) in STANDARD_METRIC_COLUMNS {
        out.push(',');
        out.push_str(label);
    }
    out.push('\n');
    for &row in &order {
        out.push_str(&Id::from_u128(table.row_id(row)).to_base32());
        for column in &param_columns {
            out.push(',');
            let cell = column.and_then(|c| c.label_at(row)).unwrap_or("");
            out.push_str(&csv_cell(cell));
        }
        for cells in &metric_cells {
            out.push(',');
            match cells.as_ref().map(|c| c[row]) {
                None | Some(Cell::Missing) => {}
                Some(Cell::Str(s)) => out.push_str(&csv_cell(s)),
                Some(other) => {
                    if let Some(v) = other.to_value() {
                        out.push_str(&v.to_string());
                    }
                }
            }
        }
        out.push('\n');
    }
    Ok(out)
}

/// Performance trend of an experiment across its successive evaluations
/// (paper §3: re-running evaluations "for the quality assurance monitoring
/// the performance of an SuE over subsequent change sets").
///
/// For each evaluation (in creation order) the mean of `value_path` over
/// its finished jobs is computed; consecutive evaluations are compared and
/// drops beyond `regression_threshold` (e.g. `0.1` = 10%) are flagged.
/// Higher values are assumed better (throughput-style metrics); pass a
/// latency path through [`compare_series`] semantics by negating offline.
pub fn experiment_trend(
    control: &ChronosControl,
    experiment_id: Id,
    value_path: &str,
    regression_threshold: f64,
) -> CoreResult<Value> {
    let evaluations = control.list_evaluations(Some(experiment_id));
    let mut runs: Vec<Value> = Vec::new();
    let mut previous: Option<f64> = None;
    let mut regressions = 0usize;
    for evaluation in &evaluations {
        let Some((mean, measured)) = evaluation_mean(control, evaluation.id, value_path)? else {
            continue; // evaluation has no finished results yet
        };
        let change = previous.map(|prev| if prev == 0.0 { 0.0 } else { (mean - prev) / prev });
        let regressed = change.map(|c| c < -regression_threshold).unwrap_or(false);
        if regressed {
            regressions += 1;
        }
        runs.push(obj! {
            "evaluation_id" => evaluation.id.to_base32(),
            "created_at" => evaluation.created_at,
            "jobs_measured" => measured,
            "mean" => mean,
            "change" => change.map(Value::from).unwrap_or(Value::Null),
            "regressed" => regressed,
        });
        previous = Some(mean);
    }
    Ok(obj! {
        "experiment_id" => experiment_id.to_base32(),
        "value_path" => value_path,
        "regression_threshold" => regression_threshold,
        "runs" => Value::Array(runs),
        "regressions" => regressions,
    })
}

/// The mean of `value_path` over an evaluation's finished jobs, served
/// from the columnar store (left-to-right accumulation in `job_ids`
/// order, bit-identical to the row scan). `None` when no finished job
/// carries a numeric value at the pointer.
fn evaluation_mean(
    control: &ChronosControl,
    evaluation_id: Id,
    value_path: &str,
) -> CoreResult<Option<(f64, u64)>> {
    let (table, order) = columnar_rows(control, evaluation_id)?;
    let Some(column) = table.data_column(value_path) else {
        return Ok(None);
    };
    let cells = column.materialize();
    let agg = sum_count(&cells, &order);
    Ok(agg.mean().map(|mean| (mean, agg.count)))
}

/// One evaluation run of a regression scan: identity plus measured mean.
#[derive(Debug, Clone)]
pub struct RegressionRun {
    /// Evaluation id.
    pub evaluation_id: Id,
    /// Evaluation creation time (unix millis).
    pub created_at: u64,
    /// Number of finished jobs carrying the metric.
    pub jobs_measured: u64,
    /// Mean of the metric over those jobs.
    pub mean: f64,
}

/// The change-point scan of one experiment's metric history.
#[derive(Debug, Clone)]
pub struct RegressionReport {
    /// Experiment id.
    pub experiment_id: Id,
    /// Metric pointer the scan ran over.
    pub value_path: String,
    /// Detection parameters (seeded — identical requests yield identical
    /// responses).
    pub config: ChangePointConfig,
    /// Per-evaluation mean history, creation order.
    pub runs: Vec<RegressionRun>,
    /// Detected change points, by run index.
    pub change_points: Vec<ChangePoint>,
    /// True when any change point lowered the metric (higher-is-better
    /// semantics, as with throughput).
    pub regressed: bool,
}

/// Automatic regression detection over an experiment's evaluation history
/// (paper §3: quality-assurance monitoring over subsequent change sets).
///
/// The per-evaluation means of `value_path` form a series (creation
/// order); seeded E-Divisive-mean change-point detection splits it into
/// statistically distinct regimes. The outcome is cached on the control
/// as the experiment's regression flag.
pub fn experiment_regressions(
    control: &ChronosControl,
    experiment_id: Id,
    value_path: &str,
    config: ChangePointConfig,
) -> CoreResult<RegressionReport> {
    control.get_experiment(experiment_id)?;
    let mut runs = Vec::new();
    for evaluation in control.list_evaluations(Some(experiment_id)) {
        let Some((mean, measured)) = evaluation_mean(control, evaluation.id, value_path)? else {
            continue;
        };
        runs.push(RegressionRun {
            evaluation_id: evaluation.id,
            created_at: evaluation.created_at,
            jobs_measured: measured,
            mean,
        });
    }
    let series: Vec<f64> = runs.iter().map(|r| r.mean).collect();
    let change_points = detect_change_points(&series, &config);
    let regressed = change_points.iter().any(|cp| cp.after_mean < cp.before_mean);
    let report = RegressionReport {
        experiment_id,
        value_path: value_path.to_string(),
        config,
        runs,
        change_points,
        regressed,
    };
    control.set_regression_flag(
        experiment_id,
        RegressionFlag {
            value_path: report.value_path.clone(),
            change_points: report.change_points.len() as u64,
            regressed: report.regressed,
            runs: report.runs.len() as u64,
            scanned_at: control.now(),
        },
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders one parameter value as a stable label.
    fn param_label(value: Option<&Value>) -> String {
        match value {
            None | Some(Value::Null) => "-".to_string(),
            Some(Value::String(s)) => s.clone(),
            Some(other) => other.to_string(),
        }
    }

    /// The pre-columnar row-at-a-time chart aggregation, kept verbatim as the
    /// oracle.
    fn chart_data_from_points(points: &[ResultPoint], spec: &ChartSpec) -> CoreResult<ChartData> {
        let mut x_labels: Vec<String> =
            points.iter().map(|p| param_label(p.parameters.get(&spec.x_param))).collect();
        sort_labels(&mut x_labels);
        let mut series_names: Vec<String> = match &spec.series_param {
            Some(param) => {
                let mut names: Vec<String> =
                    points.iter().map(|p| param_label(p.parameters.get(param))).collect();
                names.sort();
                names.dedup();
                names
            }
            None => vec![spec.y_label.clone()],
        };
        if series_names.is_empty() {
            series_names.push(spec.y_label.clone());
        }
        // (series, x) -> (sum, count)
        let mut cells: Vec<Vec<(f64, u32)>> =
            vec![vec![(0.0, 0); x_labels.len()]; series_names.len()];
        for point in points {
            let x = param_label(point.parameters.get(&spec.x_param));
            let series = match &spec.series_param {
                Some(param) => param_label(point.parameters.get(param)),
                None => spec.y_label.clone(),
            };
            let Some(value) = point.data.pointer(&spec.value_path).and_then(Value::as_f64) else {
                continue;
            };
            let (Some(xi), Some(si)) = (
                x_labels.iter().position(|l| *l == x),
                series_names.iter().position(|s| *s == series),
            ) else {
                continue;
            };
            cells[si][xi].0 += value;
            cells[si][xi].1 += 1;
        }
        let series = series_names
            .into_iter()
            .zip(cells)
            .map(|(name, row)| {
                let values = row
                    .into_iter()
                    .map(|(sum, n)| if n == 0 { None } else { Some(sum / n as f64) })
                    .collect();
                (name, values)
            })
            .collect();
        Ok(ChartData { x_labels, series })
    }

    /// The pre-columnar extraction of the standard metrics from one result
    /// document, tolerating missing fields; oracle for `summary_table`.
    fn standard_metrics(data: &Value) -> Value {
        let mut metrics = obj! {};
        for (label, pointer) in STANDARD_METRIC_COLUMNS {
            if let Some(v) = data.pointer(pointer) {
                metrics.set(label, v.clone());
            }
        }
        metrics
    }

    fn points() -> Vec<ResultPoint> {
        let mut out = Vec::new();
        for (engine, threads, tp) in [
            ("wiredtiger", 1, 100.0),
            ("wiredtiger", 2, 190.0),
            ("wiredtiger", 10, 800.0),
            ("mmapv1", 1, 95.0),
            ("mmapv1", 2, 120.0),
            ("mmapv1", 10, 130.0),
        ] {
            out.push(ResultPoint {
                job_id: Id::generate(),
                parameters: obj! {"engine" => engine, "threads" => threads},
                data: obj! {"throughput_ops_per_sec" => tp},
            });
        }
        out
    }

    fn spec() -> ChartSpec {
        ChartSpec {
            kind: "line".into(),
            title: "tp".into(),
            x_param: "threads".into(),
            series_param: Some("engine".into()),
            value_path: "/throughput_ops_per_sec".into(),
            y_label: "ops/s".into(),
        }
    }

    #[test]
    fn chart_data_builds_series() {
        let data = chart_data_from_points(&points(), &spec()).unwrap();
        assert_eq!(data.x_labels, vec!["1", "2", "10"], "numeric x sort");
        assert_eq!(data.series.len(), 2);
        assert_eq!(data.series[0].0, "mmapv1");
        assert_eq!(data.series[1].0, "wiredtiger");
        assert_eq!(data.series[1].1, vec![Some(100.0), Some(190.0), Some(800.0)]);
    }

    #[test]
    fn duplicate_cells_are_averaged() {
        let mut pts = points();
        pts.push(ResultPoint {
            job_id: Id::generate(),
            parameters: obj! {"engine" => "mmapv1", "threads" => 1},
            data: obj! {"throughput_ops_per_sec" => 105.0},
        });
        let data = chart_data_from_points(&pts, &spec()).unwrap();
        let mmap = &data.series[0].1;
        assert_eq!(mmap[0], Some(100.0)); // (95 + 105) / 2
    }

    #[test]
    fn missing_measurements_are_none() {
        let mut pts = points();
        pts.remove(2); // drop wiredtiger@10
        let data = chart_data_from_points(&pts, &spec()).unwrap();
        let wt = &data.series[1].1;
        assert_eq!(wt[2], None);
    }

    #[test]
    fn no_series_param_uses_single_series() {
        let mut s = spec();
        s.series_param = None;
        let data = chart_data_from_points(&points(), &s).unwrap();
        assert_eq!(data.series.len(), 1);
        assert_eq!(data.series[0].0, "ops/s");
        // Cross-engine points at the same x are averaged into the one series.
        assert_eq!(data.series[0].1[0], Some(97.5));
    }

    #[test]
    fn non_numeric_labels_sort_lexicographically() {
        let mut s = spec();
        s.x_param = "engine".into();
        s.series_param = None;
        let data = chart_data_from_points(&points(), &s).unwrap();
        assert_eq!(data.x_labels, vec!["mmapv1", "wiredtiger"]);
    }

    #[test]
    fn comparison_reports_winner_and_factors() {
        let data = chart_data_from_points(&points(), &spec()).unwrap();
        let cmp = compare_series(&data, "wiredtiger", "mmapv1").unwrap();
        assert_eq!(cmp.get("comparisons").and_then(Value::as_i64), Some(3));
        assert_eq!(cmp.get("a_wins").and_then(Value::as_i64), Some(3));
        let r10 = cmp.pointer("/ratios/2/ratio").and_then(Value::as_f64).unwrap();
        assert!((r10 - 800.0 / 130.0).abs() < 1e-9);
        assert!(compare_series(&data, "wiredtiger", "rocksdb").is_err());
    }

    mod columnar {
        use super::super::*;
        use super::{chart_data_from_points, standard_metrics};
        use crate::auth::Role;
        use crate::params::{ParamAssignments, ParamDef, ParamType};
        use crate::scheduler::SchedulerConfig;
        use crate::store::MetadataStore;
        use chronos_analytics::percentile_sorted;
        use chronos_json::obj;
        use chronos_util::{SplitMix64, SystemClock};
        use std::sync::Arc;

        /// A finished evaluation with messy result documents: mixed
        /// numeric types, a present-null, a container at a standard
        /// metric pointer, a missing metric, and one job left running.
        fn fixture(store: MetadataStore) -> (ChronosControl, Id) {
            let control =
                ChronosControl::new(store, Arc::new(SystemClock), SchedulerConfig::default());
            let system = control
                .register_system(
                    "db",
                    "",
                    vec![
                        ParamDef::new(
                            "engine",
                            "",
                            ParamType::Checkbox { options: vec!["a".into(), "b".into()] },
                            Value::from("a"),
                        )
                        .unwrap(),
                        ParamDef::new(
                            "threads",
                            "",
                            ParamType::Interval { min: 1, max: 4, step: 1 },
                            Value::from(1),
                        )
                        .unwrap(),
                    ],
                    vec![],
                )
                .unwrap();
            let deployment = control.create_deployment(system.id, "n", "1").unwrap();
            let owner = control.create_user("ada", "pw", Role::Member).unwrap();
            let project = control.create_project("p", "", owner.id).unwrap();
            let experiment = control
                .create_experiment(
                    project.id,
                    system.id,
                    "e",
                    "",
                    ParamAssignments::new()
                        .sweep_all("engine")
                        .sweep("threads", vec![Value::from(1), Value::from(2)]),
                )
                .unwrap();
            let evaluation = control.create_evaluation(experiment.id).unwrap();
            let mut claimed = Vec::new();
            while let Some(job) = control.claim_next_job(deployment.id, None).unwrap() {
                claimed.push(job);
            }
            assert_eq!(claimed.len(), 4);
            let docs = [
                Some(obj! {
                    "throughput_ops_per_sec" => 100.25,
                    "wall_millis" => 2000,
                    "total_ops" => obj! {"x" => 1}, // container at a standard pointer
                    "operations" => obj! {
                        "read" => obj! {"latency_micros" => obj! {"p99" => 420}},
                    },
                }),
                Some(obj! {"throughput_ops_per_sec" => 190.5, "total_errors" => Value::Null}),
                None, // left running: must not appear in any endpoint
                Some(obj! {"throughput_ops_per_sec" => 130.125, "wall_millis" => 1800}),
            ];
            for (job, doc) in claimed.iter().zip(docs) {
                if let Some(data) = doc {
                    control.finish_job(job.id, data, vec![], None, None).unwrap();
                }
            }
            (control, evaluation.id)
        }

        fn spec() -> ChartSpec {
            ChartSpec {
                kind: "line".into(),
                title: "tp".into(),
                x_param: "threads".into(),
                series_param: Some("engine".into()),
                value_path: "/throughput_ops_per_sec".into(),
                y_label: "ops/s".into(),
            }
        }

        /// The pre-columnar row scan, kept verbatim as the oracle.
        fn row_path_summary(control: &ChronosControl, evaluation_id: Id) -> Value {
            let points = collect_points(control, evaluation_id).unwrap();
            let rows: Vec<Value> = points
                .iter()
                .map(|p| {
                    obj! {
                        "job_id" => p.job_id.to_base32(),
                        "parameters" => p.parameters.clone(),
                        "metrics" => standard_metrics(&p.data),
                    }
                })
                .collect();
            obj! {
                "evaluation_id" => evaluation_id.to_base32(),
                "rows" => Value::Array(rows),
            }
        }

        /// The pre-columnar CSV renderer, kept verbatim as the oracle.
        fn row_path_csv(control: &ChronosControl, evaluation_id: Id) -> String {
            let points = collect_points(control, evaluation_id).unwrap();
            let mut param_columns: Vec<String> = Vec::new();
            for point in &points {
                if let Some(map) = point.parameters.as_object() {
                    for key in map.keys() {
                        if !param_columns.iter().any(|c| c == key) {
                            param_columns.push(key.to_string());
                        }
                    }
                }
            }
            param_columns.sort();
            let mut out = String::from("job_id");
            for column in &param_columns {
                out.push(',');
                out.push_str(&csv_cell(column));
            }
            for (label, _) in STANDARD_METRIC_COLUMNS {
                out.push(',');
                out.push_str(label);
            }
            out.push('\n');
            for point in &points {
                out.push_str(&point.job_id.to_base32());
                for column in &param_columns {
                    out.push(',');
                    let cell = match point.parameters.get(column) {
                        None | Some(Value::Null) => String::new(),
                        Some(Value::String(s)) => s.clone(),
                        Some(other) => other.to_string(),
                    };
                    out.push_str(&csv_cell(&cell));
                }
                for (_, pointer) in STANDARD_METRIC_COLUMNS {
                    out.push(',');
                    if let Some(v) = point.data.pointer(pointer) {
                        match v {
                            Value::String(s) => out.push_str(&csv_cell(s)),
                            other => out.push_str(&other.to_string()),
                        }
                    }
                }
                out.push('\n');
            }
            out
        }

        /// E13's synthetic evaluation — a 2-engine x 4-thread sweep of `n`
        /// uploads with splitmix64 noise — as a decoded table, the physical
        /// rows to read, and the same uploads as row points. Both paths get
        /// the rows in one seeded permutation of append order, so a path
        /// that accumulates floats over physical rows `0..n` instead of
        /// `order` diverges from the oracle.
        fn permuted_sweep(n: usize) -> (ResultTable, Vec<usize>, Vec<ResultPoint>) {
            let mut rng = SplitMix64::new(0x1234_5678_9abc_def0);
            let mut table = ResultTable::new();
            let mut points = Vec::new();
            for i in 0..n {
                let threads = [1i64, 2, 4, 8][(i / 2) % 4];
                let noise = rng.next_below(1_000) as f64 / 10.0;
                let parameters = obj! {"engine" => ["a", "b"][i % 2], "threads" => threads};
                let data = obj! {
                    "throughput_ops_per_sec" => 1_000.0 * threads as f64 + noise,
                    "operations" => obj! {
                        "read" => obj! {
                            "latency_micros" => obj! {"p99" => 400 + rng.next_below(200) as i64},
                        },
                    },
                };
                let job_id = Id::from_u128(i as u128 + 1);
                table.append(job_id.as_u128(), &parameters, &data, &STANDARD_METRIC_PATHS);
                points.push(ResultPoint { job_id, parameters, data });
            }
            // Fisher-Yates over append order; gathering by the shuffled
            // points' ids permutes `order` the same way.
            for i in (1..n).rev() {
                points.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let table = ResultTable::decode(&table.encode()).unwrap();
            let order = table.gather(points.iter().map(|p| p.job_id.as_u128()));
            (table, order, points)
        }

        #[test]
        fn chart_matches_row_path_byte_for_byte() {
            let (control, evaluation_id) = fixture(MetadataStore::in_memory());
            let points = collect_points(&control, evaluation_id).unwrap();
            let with_series = spec();
            let columnar = chart_data(&control, evaluation_id, &with_series).unwrap();
            let rows = chart_data_from_points(&points, &with_series).unwrap();
            assert_eq!(columnar, rows);
            let mut single = spec();
            single.series_param = None;
            let columnar = chart_data(&control, evaluation_id, &single).unwrap();
            let rows = chart_data_from_points(&points, &single).unwrap();
            assert_eq!(columnar, rows);
            // A pointer nobody uploaded: both paths serve an all-None series.
            let mut absent = spec();
            absent.value_path = "/does/not/exist".into();
            let columnar = chart_data(&control, evaluation_id, &absent).unwrap();
            let rows = chart_data_from_points(&points, &absent).unwrap();
            assert_eq!(columnar, rows);
            // A float and an int metric over the permuted sweep: same chart,
            // same values in gather order, hence the same p99.
            let (table, order, points) = permuted_sweep(2_000);
            for value_path in ["/throughput_ops_per_sec", "/operations/read/latency_micros/p99"] {
                let mut sweep = spec();
                sweep.value_path = value_path.into();
                let columnar = chart_data_from_table(&table, &order, &sweep);
                assert_eq!(columnar, chart_data_from_points(&points, &sweep).unwrap());
                let cells = table.data_column(value_path).unwrap().materialize();
                let mut columnar: Vec<f64> =
                    order.iter().filter_map(|&row| cells[row].as_f64()).collect();
                let mut rows: Vec<f64> = points
                    .iter()
                    .filter_map(|p| p.data.pointer(value_path).and_then(Value::as_f64))
                    .collect();
                assert_eq!(columnar, rows);
                columnar.sort_by(f64::total_cmp);
                rows.sort_by(f64::total_cmp);
                assert_eq!(percentile_sorted(&columnar, 0.99), percentile_sorted(&rows, 0.99));
            }
        }

        #[test]
        fn summary_matches_row_path_byte_for_byte() {
            let (control, evaluation_id) = fixture(MetadataStore::in_memory());
            let columnar = summary_table(&control, evaluation_id).unwrap();
            assert_eq!(columnar.to_string(), row_path_summary(&control, evaluation_id).to_string());
            // Spot-check the tricky cells survived columnarization.
            assert_eq!(
                columnar.pointer("/rows/0/metrics/total_ops/x").and_then(Value::as_i64),
                Some(1),
                "container at a standard pointer"
            );
            assert!(
                matches!(columnar.pointer("/rows/1/metrics/total_errors"), Some(Value::Null)),
                "present-null is served, not dropped"
            );
            assert_eq!(columnar.pointer("/rows").and_then(Value::as_array).unwrap().len(), 3);
        }

        #[test]
        fn csv_matches_row_path_byte_for_byte() {
            let (control, evaluation_id) = fixture(MetadataStore::in_memory());
            assert_eq!(
                summary_csv(&control, evaluation_id).unwrap(),
                row_path_csv(&control, evaluation_id)
            );
        }

        #[test]
        fn reopened_store_is_lazily_backfilled() {
            let path = std::env::temp_dir()
                .join(format!("chronos-analytics-backfill-{}.log", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let (summary, csv, chart, evaluation_id);
            {
                let (control, eid) = fixture(MetadataStore::open(&path).unwrap());
                evaluation_id = eid;
                summary = summary_table(&control, eid).unwrap().to_string();
                csv = summary_csv(&control, eid).unwrap();
                chart = chart_data(&control, eid, &spec()).unwrap();
            }
            // A fresh control has an empty analytics store: the first read
            // rebuilds the table from the row store, later reads hit the
            // installed table. Both must serve the same bytes as before.
            let control = ChronosControl::new(
                MetadataStore::open(&path).unwrap(),
                Arc::new(SystemClock),
                SchedulerConfig::default(),
            );
            for _ in 0..2 {
                assert_eq!(summary_table(&control, evaluation_id).unwrap().to_string(), summary);
                assert_eq!(summary_csv(&control, evaluation_id).unwrap(), csv);
                assert_eq!(chart_data(&control, evaluation_id, &spec()).unwrap(), chart);
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn standard_metrics_extraction() {
        let data = obj! {
            "wall_millis" => 2000,
            "throughput_ops_per_sec" => 500.0,
            "total_ops" => 1000,
            "operations" => obj! {
                "read" => obj! {"latency_micros" => obj! {"p99" => 420}},
            },
        };
        let metrics = standard_metrics(&data);
        assert_eq!(metrics.get("execution_time_millis").and_then(Value::as_i64), Some(2000));
        assert_eq!(metrics.get("read_latency_p99_micros").and_then(Value::as_i64), Some(420));
        assert!(metrics.get("update_latency_p99_micros").is_none());
    }
}
