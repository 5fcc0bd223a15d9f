//! Differential test of [`AnalyticsStore`] against a model that knows
//! nothing about shared tables or copy-on-write: it keeps each
//! evaluation's rows in a `Vec` and rebuilds the expected table from
//! scratch with [`ResultTable::append`] for every comparison. Seeded random
//! sequences of ingest / load / mark_fresh over a few evaluations,
//! serialized as the control plane's write lock serializes them; every load
//! (and every snapshot still held at the end) must match the model.

use std::collections::HashMap;
use std::sync::Arc;

use chronos_analytics::{AnalyticsStore, ResultTable};
use chronos_json::{obj, Value};
use chronos_util::SplitMix64;

const EVALUATIONS: u64 = 3;
const JOBS: u64 = 12; // few enough that duplicate uploads are common

/// One uploaded result: `(job, parameters, data)`.
type Row = (u128, Value, Value);

/// A job's upload is a function of `(evaluation, job)`, as in the product:
/// a retried upload carries the same result. The shapes differ by job so
/// columns appear late and go missing.
fn upload(evaluation: u128, job: u128) -> Row {
    let parameters = obj! {"threads" => (job % 4) as i64, "engine" => ["a", "b"][job as usize % 2]};
    let throughput = 1_000.0 * evaluation as f64 + job as f64 / 8.0;
    let data = match job % 3 {
        0 => obj! {"tp" => throughput},
        1 => obj! {"tp" => throughput, "errors" => job as i64},
        _ => obj! {"tp" => throughput, "ops" => obj! {"read" => obj! {"p99" => 400 + job as i64}}},
    };
    (job, parameters, data)
}

fn build(rows: &[Row]) -> ResultTable {
    let mut table = ResultTable::new();
    for (job, parameters, data) in rows {
        table.append(*job, parameters, data, &["/ops"]);
    }
    table
}

/// A load the test keeps holding, with what the model said at that moment.
struct Held {
    table: Arc<ResultTable>,
    rows: Vec<Row>,
}

fn run(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let store = AnalyticsStore::new();
    // Evaluation → its table's rows, for the evaluations that have one.
    let mut model: HashMap<u128, Vec<Row>> = HashMap::new();
    let mut held: Vec<Held> = Vec::new();
    let mut tableless_ingests = 0;

    for step in 0..1500 {
        // Mostly a few busy evaluations; now and then one no step has
        // touched, so absent entries keep being ingested into and loaded.
        let evaluation = match rng.next_below(8) {
            0 => 100 + step as u128,
            _ => rng.next_below(EVALUATIONS) as u128 + 1,
        };
        match rng.next_below(10) {
            0..=5 => {
                let (job, parameters, data) = upload(evaluation, rng.next_below(JOBS) as u128);
                store.ingest(evaluation, job, &parameters, &data, &["/ops"]);
                match model.get_mut(&evaluation) {
                    Some(rows) if !rows.iter().any(|(id, ..)| *id == job) => {
                        rows.push((job, parameters, data))
                    }
                    Some(_) => {} // a duplicate upload appends nothing
                    None => tableless_ingests += 1,
                }
            }
            6..=8 => {
                let table = store.load(evaluation);
                let rows = model.get(&evaluation).cloned().unwrap_or_default();
                assert_eq!(*table, build(&rows), "seed {seed} step {step}: table");
                held.push(Held { table, rows });
            }
            _ => {
                store.mark_fresh(evaluation);
                model.entry(evaluation).or_default();
            }
        }
    }

    // Nothing that happened after a load shows through it.
    for (i, snapshot) in held.iter().enumerate() {
        assert_eq!(*snapshot.table, build(&snapshot.rows), "seed {seed} held load {i}");
    }
    assert!(tableless_ingests > 0, "seed {seed}: every ingest found a table");
}

#[test]
fn store_matches_the_rebuild_from_scratch_model() {
    for seed in [1, 20_260_927, 0xBADC_AB1E] {
        run(seed);
    }
}
