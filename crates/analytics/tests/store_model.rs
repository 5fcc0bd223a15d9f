//! Differential test of [`AnalyticsStore`] against a model that knows
//! nothing about shared tables or copy-on-write: it keeps each
//! evaluation's rows in a `Vec` and rebuilds the expected table from
//! scratch with [`ResultTable::append`] for every comparison. Seeded random
//! sequences of ingest / load / install / invalidate_all / mark_fresh over
//! a few evaluations, serialized as the control plane's write lock
//! serializes them; every load (and every snapshot still held at the end)
//! must match the model.

use std::collections::HashMap;
use std::sync::Arc;

use chronos_analytics::{AnalyticsStore, LoadedTable, ResultTable};
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

#[derive(Default)]
struct ModelEntry {
    /// The evaluation's complete table, if it has one.
    table: Option<Vec<Row>>,
    /// Every result ever uploaded — the row store a backfill reads, which
    /// an invalidation does not empty.
    row_store: Vec<Row>,
}

/// A load the test keeps holding, with what the model said at that moment.
struct Held {
    loaded: LoadedTable,
    table: Vec<Row>,
}

fn run(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let store = AnalyticsStore::new();
    let mut model: HashMap<u128, ModelEntry> = HashMap::new();
    let mut held: Vec<Held> = Vec::new();
    let mut backfills = 0;

    for step in 0..1500 {
        // Mostly a few busy evaluations; now and then one no step has
        // touched, so absent entries keep being loaded and installed into.
        let evaluation = match rng.next_below(8) {
            0 => 100 + step as u128,
            _ => rng.next_below(EVALUATIONS) as u128 + 1,
        };
        match rng.next_below(10) {
            0..=4 => {
                let (job, parameters, data) = upload(evaluation, rng.next_below(JOBS) as u128);
                store.ingest(evaluation, job, &parameters, &data, &["/ops"]);
                let entry = model.entry(evaluation).or_default();
                if !entry.row_store.iter().any(|(id, ..)| *id == job) {
                    entry.row_store.push((job, parameters.clone(), data.clone()));
                }
                match &mut entry.table {
                    Some(table) if !table.iter().any(|(id, ..)| *id == job) => {
                        table.push((job, parameters, data))
                    }
                    _ => {} // no table yet: the backfill reads the row store
                }
            }
            5 | 6 => {
                let loaded = store.load(evaluation);
                let expected = model.get(&evaluation).and_then(|e| e.table.clone());
                assert_eq!(loaded.backfilled, expected.is_some(), "seed {seed} step {step}");
                let rows = expected.unwrap_or_default();
                assert_eq!(*loaded.table, build(&rows), "seed {seed} step {step}: table");
                held.push(Held { loaded, table: rows });
            }
            7 => {
                // A backfill: the row store rebuilt from scratch, installed
                // with nothing in between — it always stands.
                let entry = model.entry(evaluation).or_default();
                store.install(evaluation, Arc::new(build(&entry.row_store)));
                entry.table = Some(entry.row_store.clone());
                backfills += 1;
            }
            8 => {
                store.invalidate_all();
                for entry in model.values_mut() {
                    entry.table = None;
                }
            }
            _ => {
                store.mark_fresh(evaluation);
                model.entry(evaluation).or_default().table.get_or_insert_with(Vec::new);
            }
        }
    }

    // Nothing that happened after a load shows through it.
    for (i, snapshot) in held.iter().enumerate() {
        assert_eq!(*snapshot.loaded.table, build(&snapshot.table), "seed {seed} held load {i}");
    }
    assert!(backfills > 0, "seed {seed}: no backfill ran");
}

#[test]
fn store_matches_the_rebuild_from_scratch_model() {
    for seed in [1, 20_260_927, 0xBADC_AB1E] {
        run(seed);
    }
}
