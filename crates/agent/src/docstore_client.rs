//! The demo evaluation client: benchmarks the `minidoc` document store.
//!
//! This is the reproduction of the paper's "MongoDB Chronos agent": the
//! evaluation client behind the demo that "allows to create short running
//! evaluations for the two MongoDB deployments and to directly analyze the
//! results in the Chronos Web UI" (§3). It understands the parameters of
//! the bundled `minidoc` system definition:
//!
//! | parameter | type | meaning |
//! |---|---|---|
//! | `engine` | checkbox `wiredtiger`/`mmapv1` | storage engine under test |
//! | `threads` | interval | concurrent client threads |
//! | `workload` | checkbox `a`..`f` | YCSB core workload |
//! | `record_count` | value | records loaded before measuring |
//! | `operation_count` | value | operations in the measured phase |
//! | `field_length` | value | bytes per document field |
//! | `compression` | boolean | block compression (wiredTiger only) |
//!
//! Lifecycle mapping (paper §1): *set-up* loads or copies the benchmark
//! data; *warm-up* runs a read pass to fill caches; *execute* drives the
//! operation mix from `threads` client threads, recording latencies per
//! operation type; the result document carries the merged
//! [`chronos_metrics::RunSummary`], the engine statistics, and `"set_up"`:
//! `"load"` or `"clone"`, how set-up got its data.
//!
//! Load once, branch per job: a seeded load writes the same records byte
//! for byte every time ([`chronos_workload::LoadKey`]), so the client keeps
//! the pristine databases of its last two loads and runs every job on an
//! in-memory copy ([`minidoc::Database::clone_in_memory`]): of a kept
//! database whose load key, engine and compression match the job's, or
//! else of the one it loads for the job and keeps. A copy reports the same
//! documents and `engine_stats` a load would; it costs memcpy and
//! allocation, not the engine's write path. No job writes a kept database,
//! so no job sees another's writes. Two kinds of job run on their own load
//! and keep nothing: durable ones, whose database lives in the job's own
//! directory, and ones with `threads > 1`, whose interleaved load is a
//! per-run sample that repetitions should keep sampling. A load that fails
//! or reports errors keeps nothing either.
//!
//! As in YCSB, each client thread generates its operations as it runs
//! them: an operation's latency covers only its call into the store, but
//! `wall_millis`, the denominator of `throughput_ops_per_sec`, also spans
//! the client-side generation of every operation.

use chronos_json::Value;
use chronos_metrics::{Recorder, RunSummary};
use chronos_util::pool::scoped_indexed;
use chronos_workload::{CoreWorkload, LoadKey, Operation, WorkloadRunner, WorkloadSpec};
use minidoc::{Collection, Database, DbConfig, EngineKind};

use crate::context::JobContext;
use crate::runtime::EvaluationClient;

const COLLECTION: &str = "usertable";

/// Loaded images a client keeps. A benchmark grid varies the engine
/// fastest, so with two an agent keeps both engines of a cell and loads
/// only its first job of each.
const IMAGES: usize = 2;

/// The bundled minidoc evaluation client.
#[derive(Default)]
pub struct DocstoreClient {
    state: Option<RunState>,
    /// Pristine loaded databases, least recently used first; at most
    /// `IMAGES`. Jobs get copies, so none of them is ever written.
    images: Vec<Image>,
}

/// What a load writes: the records of a load key, in one engine with one
/// compression setting.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ImageKey {
    load: LoadKey,
    engine: EngineKind,
    compression: bool,
}

struct Image {
    key: ImageKey,
    db: Database,
}

/// How a job's set-up got its data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetUp {
    Load,
    Clone,
}

impl SetUp {
    fn as_str(self) -> &'static str {
        match self {
            SetUp::Load => "load",
            SetUp::Clone => "clone",
        }
    }
}

struct RunState {
    db: Database,
    runner: WorkloadRunner,
    threads: usize,
    set_up: SetUp,
    /// Temp data directory for durable runs. Declared after `db`, so the
    /// database is closed before its directory goes.
    _data_dir: Option<DataDir>,
}

/// A durable job's data directory, removed when dropped. `set_up` owns it
/// from before the database creates it, so every exit — an error, a
/// panicking load, or tear-down after a successful run — removes it.
pub(crate) struct DataDir(pub(crate) std::path::PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl DocstoreClient {
    /// Creates an idle client with no kept images (a job's state is built
    /// in `set_up`).
    pub fn new() -> Self {
        DocstoreClient::default()
    }

    fn parse_config(ctx: &JobContext) -> Result<(DbConfig, WorkloadSpec, usize), String> {
        let mut db_config = db_config(ctx, "minidoc-job")?;
        let engine = db_config.engine;
        if let Some(compression) = ctx.param_bool("compression") {
            db_config = db_config.with_compression(compression && engine == EngineKind::WiredTiger);
        }
        let workload = match ctx.param_str("workload").as_deref() {
            Some(w) => CoreWorkload::parse(w).ok_or_else(|| format!("unknown workload {w:?}"))?,
            None => CoreWorkload::A,
        };
        let mut spec = WorkloadSpec::core(workload);
        if let Some(n) = ctx.param_i64("record_count") {
            spec.record_count = n.max(1) as u64;
        }
        if let Some(n) = ctx.param_i64("operation_count") {
            spec.operation_count = n.max(0) as u64;
        }
        if let Some(n) = ctx.param_i64("field_length") {
            spec.field_length = n.max(1) as usize;
        }
        if let Some(n) = ctx.param_i64("field_count") {
            spec.field_count = n.max(1) as usize;
        }
        if let Some(seed) = ctx.param_i64("seed") {
            spec.seed = seed as u64;
        }
        if let Some(c) = ctx.param_f64("compressibility") {
            spec.compressibility = c.clamp(0.0, 1.0);
        }
        let threads = ctx.param_i64("threads").unwrap_or(1).max(1) as usize;
        Ok((db_config, spec, threads))
    }

    /// A copy of the image kept under `key`, which becomes the most
    /// recently used; `None` when no image has that key.
    fn copy_image(&mut self, key: &ImageKey) -> Option<Result<Database, String>> {
        let at = self.images.iter().position(|image| image.key == *key)?;
        self.images[at..].rotate_left(1);
        let image = self.images.last()?;
        Some(image.db.clone_in_memory().map_err(|e| e.to_string()))
    }

    /// Keeps `db` as the image of `key`, dropping the least recently used
    /// image past `IMAGES`.
    fn keep_image(&mut self, key: ImageKey, db: Database) {
        if self.images.len() == IMAGES {
            self.images.remove(0);
        }
        self.images.push(Image { key, db });
    }
}

/// The database a job's `engine` and `durability` parameters ask for. A
/// durable job runs against a real data directory with synced journals or
/// WAL (the demo's disk-bound configuration), named
/// `<prefix>-<process id>-<job id>` in the temp directory, instead of fully
/// in memory.
pub(crate) fn db_config(ctx: &JobContext, prefix: &str) -> Result<DbConfig, String> {
    let engine = match ctx.param_str("engine").as_deref() {
        Some(name) => EngineKind::parse(name).ok_or_else(|| format!("unknown engine {name:?}"))?,
        None => EngineKind::WiredTiger,
    };
    Ok(if ctx.param_bool("durability").unwrap_or(false) {
        let dir = format!("{prefix}-{}-{}", std::process::id(), ctx.job_id);
        DbConfig::at_dir(engine, std::env::temp_dir().join(dir))
    } else {
        DbConfig::in_memory(engine)
    })
}

/// Bulk-loads the benchmark data into `db` from `threads` threads.
fn load(db: &Database, runner: &WorkloadRunner, threads: usize) -> Result<(), String> {
    let coll = db.collection(COLLECTION);
    let load_errors: usize = scoped_indexed(threads, |t| {
        let mut errors = 0;
        for op in runner.load_partition(t, threads) {
            if apply(&coll, op).is_err() {
                errors += 1;
            }
        }
        errors
    })
    .into_iter()
    .sum();
    if load_errors > 0 {
        return Err(format!("{load_errors} errors during data load"));
    }
    Ok(())
}

/// Moves workload field lists into a minidoc document.
fn fields_to_doc(fields: Vec<(String, String)>) -> Value {
    let mut map = chronos_json::Map::with_capacity(fields.len());
    for (name, value) in fields {
        map.insert(name, Value::from(value));
    }
    Value::Object(map)
}

/// Executes one operation against the store, returning an error string on
/// unexpected outcomes (read of a loaded key returning nothing, etc.).
fn apply(coll: &Collection, op: Operation) -> Result<(), String> {
    match op {
        Operation::Read { key } => match coll.get(&key) {
            Ok(Some(_)) => Ok(()),
            Ok(None) => Err(format!("read miss for {key}")),
            Err(e) => Err(e.to_string()),
        },
        Operation::Update { key, fields } => {
            coll.update(&key, &fields_to_doc(fields)).map_err(|e| e.to_string())
        }
        Operation::Insert { key, fields } => {
            coll.insert(&key, &fields_to_doc(fields)).map_err(|e| e.to_string())
        }
        Operation::Scan { start_key, count } => {
            // YCSB scans read and discard: visit the raw records where the
            // engine keeps them instead of decoding every document. The
            // engine reads at most `count` records.
            coll.scan_raw(&start_key, count as usize, &mut |_, _| Ok(())).map_err(|e| e.to_string())
        }
        Operation::ReadModifyWrite { key, fields } => {
            let current = coll.get(&key).map_err(|e| e.to_string())?;
            match current {
                Some(mut doc) => {
                    if let Value::Object(map) = &mut doc {
                        for (name, value) in fields {
                            map.insert(name, Value::from(value));
                        }
                    }
                    coll.update(&key, &doc).map_err(|e| e.to_string())
                }
                None => Err(format!("rmw miss for {key}")),
            }
        }
    }
}

impl EvaluationClient for DocstoreClient {
    fn name(&self) -> &str {
        "minidoc-ycsb"
    }

    fn set_up(&mut self, ctx: &JobContext) -> Result<(), String> {
        let (db_config, spec, threads) = Self::parse_config(ctx)?;
        let engine = db_config.engine;
        ctx.log(format!(
            "set_up: engine={engine} threads={threads} records={} ops={}",
            spec.record_count, spec.operation_count
        ));
        let key = (db_config.data_dir.is_none() && threads == 1).then(|| ImageKey {
            load: spec.load_key(),
            engine,
            compression: db_config.compression,
        });
        let data_dir = db_config.data_dir.clone().map(DataDir);
        let (db, runner, set_up) = match key.and_then(|key| self.copy_image(&key)) {
            Some(copy) => (copy?, WorkloadRunner::new(spec)?, SetUp::Clone),
            None => {
                let db = Database::open(db_config).map_err(|e| e.to_string())?;
                let runner = WorkloadRunner::new(spec)?;
                load(&db, &runner, threads)?;
                let db = match key {
                    Some(key) => {
                        let copy = db.clone_in_memory().map_err(|e| e.to_string())?;
                        self.keep_image(key, db);
                        copy
                    }
                    None => db,
                };
                (db, runner, SetUp::Load)
            }
        };
        let records = db.collection(COLLECTION).count();
        ctx.log(match set_up {
            SetUp::Load => format!("set_up: loaded {records} records into '{COLLECTION}'"),
            SetUp::Clone => {
                format!("set_up: copied {records} records into '{COLLECTION}' from a loaded image")
            }
        });
        ctx.set_progress(10);
        self.state = Some(RunState { db, runner, threads, set_up, _data_dir: data_dir });
        Ok(())
    }

    fn warm_up(&mut self, ctx: &JobContext) -> Result<(), String> {
        let state = self.state.as_ref().ok_or("warm_up before set_up")?;
        // Touch a slice of the keyspace to fill caches/buffers.
        let spec = state.runner.spec();
        let coll = state.db.collection(COLLECTION);
        let sample = (spec.record_count / 10).clamp(1, 1_000);
        for i in 0..sample {
            let key = spec.key_for(i * spec.record_count / sample % spec.record_count);
            let _ = coll.get(&key);
        }
        ctx.log(format!("warm_up: touched {sample} records"));
        ctx.set_progress(15);
        Ok(())
    }

    fn execute(&mut self, ctx: &JobContext) -> Result<Value, String> {
        let state = self.state.as_ref().ok_or("execute before set_up")?;
        let threads = state.threads;
        let total_ops = state.runner.spec().operation_count.max(1);
        let coll = state.db.collection(COLLECTION);
        let summaries: Vec<RunSummary> = scoped_indexed(threads, |t| {
            let mut recorder = Recorder::new();
            let mut done = 0u64;
            for op in state.runner.stream(t, threads) {
                let kind = op.kind();
                let _ = recorder.time(kind, || apply(&coll, op));
                done += 1;
                if done.is_multiple_of(512) && t == 0 {
                    // Progress: 15% after warm-up, 100% at completion.
                    let frac = (done * threads as u64).min(total_ops) as f64 / total_ops as f64;
                    ctx.set_progress(15 + (frac * 84.0) as u8);
                }
            }
            recorder.into_summary()
        });
        let merged = RunSummary::merge_all(summaries);
        ctx.log(format!(
            "execute: {} ops in {} ms ({:.0} ops/s), {} errors",
            merged.total_ops(),
            merged.wall_millis,
            merged.throughput_ops_per_sec(),
            merged.total_errors()
        ));
        let mut data = merged.to_json();
        data.set("engine_stats", state.db.stats().to_json());
        data.set("threads", threads as i64);
        data.set("set_up", state.set_up.as_str());
        // Attach the raw per-second series as a CSV for offline analysis.
        let series = merged.throughput_series();
        let mut csv = String::from("second,ops\n");
        for (i, rate) in series.rates_per_second().iter().enumerate() {
            csv.push_str(&format!("{i},{rate}\n"));
        }
        ctx.attach("throughput.csv", csv.into_bytes());
        Ok(data)
    }

    fn tear_down(&mut self, ctx: &JobContext) {
        if self.state.take().is_some() {
            ctx.log("tear_down: dropped database");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_json::obj;
    use chronos_util::Id;

    fn ctx(params: Value) -> JobContext {
        JobContext::new(Id::generate(), params)
    }

    fn small_params(engine: &str) -> Value {
        obj! {
            "engine" => engine,
            "threads" => 2,
            "workload" => "a",
            "record_count" => 200,
            "operation_count" => 500,
        }
    }

    #[test]
    fn full_lifecycle_produces_measurements() {
        for engine in ["wiredtiger", "mmapv1"] {
            let mut client = DocstoreClient::new();
            let ctx = ctx(small_params(engine));
            client.set_up(&ctx).unwrap();
            client.warm_up(&ctx).unwrap();
            let data = client.execute(&ctx).unwrap();
            client.tear_down(&ctx);
            assert_eq!(data.pointer("/total_ops").and_then(Value::as_u64), Some(500));
            assert_eq!(data.pointer("/total_errors").and_then(Value::as_u64), Some(0));
            assert!(data.pointer("/throughput_ops_per_sec").and_then(Value::as_f64).unwrap() > 0.0);
            assert!(data.pointer("/operations/read/latency_micros/p99").is_some());
            assert_eq!(data.pointer("/engine_stats/documents").and_then(Value::as_u64), Some(200));
            let attachments = ctx.take_attachments();
            assert!(attachments.iter().any(|(n, _)| n == "throughput.csv"));
        }
    }

    #[test]
    fn unknown_engine_rejected_in_setup() {
        let mut client = DocstoreClient::new();
        let ctx = ctx(obj! {"engine" => "rocksdb"});
        assert!(client.set_up(&ctx).unwrap_err().contains("unknown engine"));
    }

    #[test]
    fn execute_without_setup_fails() {
        let mut client = DocstoreClient::new();
        let ctx = ctx(obj! {});
        assert!(client.execute(&ctx).is_err());
    }

    #[test]
    fn workload_e_scans_run() {
        let mut client = DocstoreClient::new();
        let ctx = ctx(obj! {
            "engine" => "wiredtiger",
            "threads" => 1,
            "workload" => "e",
            "record_count" => 100,
            "operation_count" => 200,
        });
        client.set_up(&ctx).unwrap();
        let data = client.execute(&ctx).unwrap();
        assert!(
            data.pointer("/operations/scan/latency_micros/count").and_then(Value::as_u64).unwrap()
                > 0
        );
    }

    #[test]
    fn latest_reads_under_concurrent_inserts_never_miss() {
        // Workload D reads skew toward the newest insert; with 4 threads a
        // read must never pick a key whose insert has been handed out but
        // not yet run.
        let mut client = DocstoreClient::new();
        let ctx = ctx(obj! {
            "engine" => "wiredtiger",
            "threads" => 4,
            "workload" => "d",
            "record_count" => 1000,
            "operation_count" => 20_000,
        });
        client.set_up(&ctx).unwrap();
        let data = client.execute(&ctx).unwrap();
        assert!(
            data.pointer("/operations/insert/latency_micros/count")
                .and_then(Value::as_u64)
                .unwrap()
                > 500
        );
        assert_eq!(data.pointer("/total_errors").and_then(Value::as_u64), Some(0));
        client.tear_down(&ctx);
    }

    /// The conversion the client used before it moved the generated
    /// strings: every field name and value cloned into the document.
    fn cloned_fields_to_doc(fields: &[(String, String)]) -> Value {
        let mut map = chronos_json::Map::with_capacity(fields.len());
        for (name, value) in fields {
            map.insert(name.clone(), Value::from(value.as_str()));
        }
        Value::Object(map)
    }

    /// Applies the writes of `op` the way the clone-based client did.
    fn apply_cloned(coll: &Collection, op: &Operation) {
        match op {
            Operation::Insert { key, fields } => coll.insert(key, &cloned_fields_to_doc(fields)),
            Operation::Update { key, fields } => coll.update(key, &cloned_fields_to_doc(fields)),
            Operation::ReadModifyWrite { key, fields } => {
                let mut doc = coll.get(key).unwrap().expect("rmw of a loaded key");
                for (name, value) in fields {
                    doc.set(name.as_str(), value.as_str());
                }
                coll.update(key, &doc)
            }
            Operation::Read { .. } | Operation::Scan { .. } => Ok(()),
        }
        .unwrap();
    }

    fn documents(coll: &Collection) -> Vec<(String, Value)> {
        coll.scan("", usize::MAX).unwrap()
    }

    #[test]
    fn moved_fields_write_what_cloned_fields_wrote() {
        for workload in ["a", "f"] {
            let ctx = ctx(obj! {
                "engine" => "wiredtiger",
                "threads" => 1,
                "workload" => workload,
                "record_count" => 200,
                "operation_count" => 400,
                "seed" => 7,
            });
            let mut client = DocstoreClient::new();
            client.set_up(&ctx).unwrap();
            let (config, spec, _) = DocstoreClient::parse_config(&ctx).unwrap();
            let reference = Database::open(config).unwrap();
            let expected = reference.collection(COLLECTION);
            let runner = WorkloadRunner::new(spec).unwrap();
            runner.load_partition(0, 1).for_each(|op| apply_cloned(&expected, &op));
            let actual = client.state.as_ref().unwrap().db.collection(COLLECTION);
            let loaded = documents(&actual);
            assert_eq!(loaded.len(), 200);
            assert_eq!(loaded, documents(&expected), "workload {workload}: loaded documents");

            client.execute(&ctx).unwrap();
            runner.stream(0, 1).for_each(|op| apply_cloned(&expected, &op));
            let updated = documents(&actual);
            assert_ne!(updated, loaded, "workload {workload}: the run must write");
            assert_eq!(updated, documents(&expected), "workload {workload}: updated documents");
            client.tear_down(&ctx);
        }
    }

    /// Runs one whole job on `client`; how its set-up got its data.
    fn set_up_of(client: &mut DocstoreClient, params: Value) -> String {
        let ctx = ctx(params);
        client.set_up(&ctx).unwrap();
        let data = client.execute(&ctx).unwrap();
        client.tear_down(&ctx);
        assert_eq!(data.pointer("/total_errors").and_then(Value::as_u64), Some(0));
        data.get("set_up").and_then(Value::as_str).unwrap().to_string()
    }

    fn job(engine: &str, records: i64, threads: i64) -> Value {
        obj! {
            "engine" => engine,
            "threads" => threads,
            "workload" => "a",
            "record_count" => records,
            "operation_count" => 100,
        }
    }

    #[test]
    fn a_kept_image_serves_its_load_key_and_the_least_recently_used_goes() {
        let mut client = DocstoreClient::new();
        let mut run = |engine: &str, records: i64| set_up_of(&mut client, job(engine, records, 1));
        assert_eq!(run("wiredtiger", 50), "load");
        assert_eq!(run("mmapv1", 50), "load");
        assert_eq!(run("wiredtiger", 50), "clone");
        assert_eq!(run("mmapv1", 50), "clone");
        // A third key pushes out the least recently used, wiredtiger/50.
        assert_eq!(run("wiredtiger", 60), "load");
        assert_eq!(run("mmapv1", 50), "clone");
        assert_eq!(run("wiredtiger", 50), "load");
        // Another workload or operation count of the same load key is
        // served from the image; another field length is not.
        let mut other = job("mmapv1", 50, 1);
        other.set("workload", "e");
        other.set("operation_count", 300);
        assert_eq!(set_up_of(&mut client, other.clone()), "clone");
        other.set("field_length", 20);
        assert_eq!(set_up_of(&mut client, other), "load");
        assert_eq!(client.images.len(), IMAGES);
    }

    #[test]
    fn durable_and_multi_threaded_jobs_always_load() {
        let mut client = DocstoreClient::new();
        for _ in 0..3 {
            assert_eq!(set_up_of(&mut client, job("wiredtiger", 50, 2)), "load");
            let mut durable = job("mmapv1", 50, 1);
            durable.set("durability", true);
            assert_eq!(set_up_of(&mut client, durable), "load");
        }
        assert!(client.images.is_empty(), "neither kind is kept");
    }

    #[test]
    fn a_copy_leaves_the_image_pristine() {
        let mut client = DocstoreClient::new();
        let params = obj! {
            "engine" => "wiredtiger", "threads" => 1, "workload" => "a",
            "record_count" => 100, "operation_count" => 400, "seed" => 3,
        };
        let first = ctx(params.clone());
        client.set_up(&first).unwrap();
        let image = &client.images[0].db;
        let mut stats = image.stats();
        let loaded = documents(&image.collection(COLLECTION));
        // That scan is the only operation the image ever sees.
        stats.scans += 1;
        client.execute(&first).unwrap();
        client.tear_down(&first);
        assert_eq!(set_up_of(&mut client, params), "clone");
        let image = &client.images[0].db;
        assert_eq!(image.stats(), stats);
        assert_eq!(documents(&image.collection(COLLECTION)), loaded);
    }

    #[test]
    fn defaults_apply_when_parameters_missing() {
        let mut client = DocstoreClient::new();
        let ctx = ctx(obj! {"record_count" => 50, "operation_count" => 100});
        client.set_up(&ctx).unwrap();
        let data = client.execute(&ctx).unwrap();
        assert_eq!(data.pointer("/threads").and_then(Value::as_i64), Some(1));
        client.tear_down(&ctx);
    }
}
