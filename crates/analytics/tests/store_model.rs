//! Differential test of [`AnalyticsStore`] against a model that knows
//! nothing about shared tables or copy-on-write: it keeps each
//! evaluation's rows in a `Vec` and rebuilds the expected table from
//! scratch with [`ResultTable::append`] for every comparison. Seeded random
//! interleavings of ingest / load / install / invalidate_all / mark_fresh
//! over a few evaluations; every load (and every snapshot still held at
//! the end) must match the model, and every install must get the verdict
//! the generation rules predict.

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
    /// What the evaluation's table holds.
    table: Vec<Row>,
    /// Every result ever uploaded — the row store a backfill reads, which
    /// an invalidation does not empty.
    row_store: Vec<Row>,
    backfilled: bool,
    /// Ingests that appended plus installs that were accepted.
    changes: u64,
}

#[derive(Default)]
struct Model {
    entries: HashMap<u128, ModelEntry>,
    invalidations: u64,
}

impl Model {
    /// Moves exactly when a load taken earlier may no longer install.
    fn stamp(&self, evaluation: u128) -> u64 {
        self.invalidations + self.entries.get(&evaluation).map_or(0, |e| e.changes)
    }
}

/// A load the test keeps holding, with what the model said at that moment.
struct Held {
    evaluation: u128,
    loaded: LoadedTable,
    stamp: u64,
    table: Vec<Row>,
}

fn run(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let store = AnalyticsStore::new();
    let mut model = Model::default();
    let mut held: Vec<Held> = Vec::new();
    let (mut accepted, mut refused) = (0, 0);

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
                let entry = model.entries.entry(evaluation).or_default();
                if !entry.row_store.iter().any(|(id, ..)| *id == job) {
                    entry.row_store.push((job, parameters.clone(), data.clone()));
                }
                if !entry.table.iter().any(|(id, ..)| *id == job) {
                    entry.table.push((job, parameters, data));
                    entry.changes += 1;
                }
            }
            5 | 6 => {
                let loaded = store.load(evaluation);
                let expected = model.entries.get(&evaluation);
                let rows = expected.map(|e| e.table.clone()).unwrap_or_default();
                assert_eq!(*loaded.table, build(&rows), "seed {seed} step {step}: table");
                assert_eq!(
                    loaded.backfilled,
                    expected.is_some_and(|e| e.backfilled),
                    "seed {seed} step {step}: backfilled"
                );
                let stamp = model.stamp(evaluation);
                held.push(Held { evaluation, loaded, stamp, table: rows });
            }
            7 if !held.is_empty() => {
                // A backfill: rebuilt from the row store, installed under
                // the generation of an earlier load — the latest one half
                // the time, or hardly any would still be current.
                let latest = held.len() as u64 - 1;
                let pick = if rng.next_below(2) == 0 { latest } else { rng.next_below(latest + 1) };
                let from = &held[pick as usize];
                let rows = model
                    .entries
                    .get(&from.evaluation)
                    .map(|e| e.row_store.clone())
                    .unwrap_or_default();
                let verdict =
                    store.install(from.evaluation, &Arc::new(build(&rows)), from.loaded.generation);
                let expected = from.stamp == model.stamp(from.evaluation);
                assert_eq!(verdict, expected, "seed {seed} step {step}: install verdict");
                if verdict {
                    let entry = model.entries.entry(from.evaluation).or_default();
                    entry.table = rows;
                    entry.backfilled = true;
                    entry.changes += 1;
                    accepted += 1;
                } else {
                    refused += 1;
                }
            }
            8 => {
                store.invalidate_all();
                model.invalidations += 1;
                for entry in model.entries.values_mut() {
                    entry.table.clear();
                    entry.backfilled = false;
                }
            }
            _ => {
                store.mark_fresh(evaluation);
                model.entries.entry(evaluation).or_default().backfilled = true;
            }
        }
    }

    // Nothing that happened after a load shows through it.
    for (i, snapshot) in held.iter().enumerate() {
        assert_eq!(*snapshot.loaded.table, build(&snapshot.table), "seed {seed} held load {i}");
    }
    assert!(accepted > 0 && refused > 0, "seed {seed}: {accepted} accepted, {refused} refused");
}

#[test]
fn store_matches_the_rebuild_from_scratch_model() {
    for seed in [1, 20_260_927, 0xBADC_AB1E] {
        run(seed);
    }
}
