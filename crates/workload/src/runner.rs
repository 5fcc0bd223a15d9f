//! Turning a [`WorkloadSpec`] into operation streams.
//!
//! One [`WorkloadRunner`] is shared by all client threads of a benchmark
//! run; each thread creates its own [`OpStream`](WorkloadRunner::stream) with
//! a thread-specific seed. The only shared mutable state is the insert
//! frontier: the next key an insert takes, exactly like the YCSB client's
//! `transactioninsertkeysequence`, and the keys reads may pick, those below
//! the highest insert up to which every insert is acknowledged (YCSB's
//! `AcknowledgedCounterGenerator`).
//!
//! Generating an operation costs its random draws and the allocations of
//! the strings it carries: field names are built once per runner, keys and
//! values are written byte by byte.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::Rng;

use crate::generators::{
    seeded_rng, ExponentialGenerator, Generator, HotspotGenerator, LatestGenerator,
    ScrambledZipfian, UniformGenerator,
};
use crate::spec::{Distribution, WorkloadSpec};

/// One benchmark operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operation {
    /// Read the document with this key.
    Read { key: String },
    /// Replace all field values of this key.
    Update { key: String, fields: Vec<(String, String)> },
    /// Insert a brand-new document.
    Insert { key: String, fields: Vec<(String, String)> },
    /// Scan `count` documents starting at `start_key`.
    Scan { start_key: String, count: u64 },
    /// Read the document, then write it back modified.
    ReadModifyWrite { key: String, fields: Vec<(String, String)> },
}

impl Operation {
    /// A short operation-type label for metrics (`read`, `update`, ...).
    pub fn kind(&self) -> &'static str {
        match self {
            Operation::Read { .. } => "read",
            Operation::Update { .. } => "update",
            Operation::Insert { .. } => "insert",
            Operation::Scan { .. } => "scan",
            Operation::ReadModifyWrite { .. } => "read_modify_write",
        }
    }
}

/// The fields of a [`WorkloadSpec`] that
/// [`WorkloadRunner::load_partition`] reads: two specs with equal keys load
/// the same records, byte for byte, for any thread partitioning, whatever
/// their operation mix, distribution or operation count. A client that
/// keeps a loaded database may reuse it for any spec of the same key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadKey {
    /// Records loaded.
    pub record_count: u64,
    /// Fields per document.
    pub field_count: usize,
    /// Bytes per field value.
    pub field_length: usize,
    /// Share of field bytes drawn from the word dictionary.
    pub compressibility: f64,
    /// The seed every thread's load generator derives from.
    pub seed: u64,
}

impl WorkloadSpec {
    /// This spec's [`LoadKey`]. Kept beside
    /// [`WorkloadRunner::load_partition`]: a field the load phase starts to
    /// read belongs in the key.
    pub fn load_key(&self) -> LoadKey {
        LoadKey {
            record_count: self.record_count,
            field_count: self.field_count,
            field_length: self.field_length,
            compressibility: self.compressibility,
            seed: self.seed,
        }
    }
}

/// Shared workload state for one benchmark run.
#[derive(Debug)]
pub struct WorkloadRunner {
    spec: WorkloadSpec,
    payload: Payload,
    insert_frontier: Arc<InsertFrontier>,
}

impl WorkloadRunner {
    /// Creates a runner. Fails if the spec is invalid.
    pub fn new(spec: WorkloadSpec) -> Result<Self, String> {
        spec.validate()?;
        let payload = Payload {
            names: spec.field_names(),
            field_length: spec.field_length,
            compressibility: spec.compressibility,
        };
        let insert_frontier = Arc::new(InsertFrontier::new(spec.record_count));
        Ok(WorkloadRunner { spec, payload, insert_frontier })
    }

    /// The underlying spec.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Keys (with generated documents) for the load phase, partitioned for
    /// `thread` of `threads` (round-robin so all partitions are equal ±1).
    /// Records are generated as the iterator is drained. What a partition
    /// holds depends on the spec's [`LoadKey`] and nothing else of it.
    pub fn load_partition(
        &self,
        thread: usize,
        threads: usize,
    ) -> impl Iterator<Item = Operation> + '_ {
        let threads = threads.max(1);
        let mut rng = seeded_rng(self.spec.thread_seed(thread) ^ 0x10AD);
        (0..self.spec.record_count).filter(move |i| (*i as usize) % threads == thread).map(
            move |i| Operation::Insert {
                key: self.spec.key_for(i),
                fields: self.payload.fields(&mut rng),
            },
        )
    }

    /// Creates the transaction-phase operation stream for one thread.
    /// The stream yields `operation_count / threads` operations (the last
    /// thread absorbs the remainder).
    pub fn stream(&self, thread: usize, threads: usize) -> OpStream {
        let threads = threads.max(1);
        let per_thread = self.spec.operation_count / threads as u64;
        let count = if thread + 1 == threads {
            self.spec.operation_count - per_thread * (threads as u64 - 1)
        } else {
            per_thread
        };
        let records = self.spec.record_count;
        let chooser = match self.spec.distribution {
            Distribution::Latest => KeyChooser::Latest(LatestGenerator::new(records)),
            Distribution::Uniform => KeyChooser::Loaded(Box::new(UniformGenerator::new(records))),
            Distribution::Zipfian => KeyChooser::Loaded(Box::new(ScrambledZipfian::new(records))),
            Distribution::Hotspot => {
                KeyChooser::Loaded(Box::new(HotspotGenerator::new(records, 0.1, 0.9)))
            }
            Distribution::Exponential => {
                KeyChooser::Loaded(Box::new(ExponentialGenerator::new(records)))
            }
        };
        OpStream {
            spec: self.spec.clone(),
            payload: self.payload.clone(),
            rng: seeded_rng(self.spec.thread_seed(thread)),
            chooser,
            frontier: Arc::clone(&self.insert_frontier),
            unacknowledged: None,
            remaining: count,
        }
    }

    /// Current size of the keyspace reads see: records loaded plus the
    /// inserts acknowledged without a gap below them.
    pub fn keyspace_size(&self) -> u64 {
        self.insert_frontier.readable()
    }
}

/// The insert keys handed out and the ones reads may pick. An insert is
/// acknowledged when the stream that issued it is asked for its next
/// operation (or dropped), that is, once its client has run it.
#[derive(Debug)]
struct InsertFrontier {
    /// Next key index an insert takes (starts at `record_count`).
    next: AtomicU64,
    /// Every index below this one is loaded or acknowledged.
    readable: AtomicU64,
    /// Acknowledged indexes above `readable`, waiting for the inserts
    /// below them.
    ahead: Mutex<BTreeSet<u64>>,
}

impl InsertFrontier {
    fn new(record_count: u64) -> Self {
        InsertFrontier {
            next: AtomicU64::new(record_count),
            readable: AtomicU64::new(record_count),
            ahead: Mutex::new(BTreeSet::new()),
        }
    }

    fn issue(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn readable(&self) -> u64 {
        self.readable.load(Ordering::Acquire)
    }

    fn acknowledge(&self, index: u64) {
        let mut ahead = self.ahead.lock().unwrap_or_else(|p| p.into_inner());
        let mut readable = self.readable.load(Ordering::Relaxed);
        if index != readable {
            ahead.insert(index);
            return;
        }
        readable += 1;
        while ahead.remove(&readable) {
            readable += 1;
        }
        self.readable.store(readable, Ordering::Release);
    }
}

/// Picks the record a read, update, scan or read-modify-write targets.
enum KeyChooser {
    /// Skewed toward the newest readable insert; grows in place with the
    /// readable frontier.
    Latest(LatestGenerator),
    /// A distribution over the loaded records.
    Loaded(Box<dyn Generator>),
}

/// Word dictionary for partially redundant field values: sixteen 16-byte
/// tokens, drawn with a skew (80% of draws from the first four) so values
/// repeat the way real-world document fields do, giving block compressors
/// long matches within each document.
const WORDS: [&[u8; 16]; 16] = [
    b"account_balance_",
    b"customer_record_",
    b"delivery_status_",
    b"transaction_ref_",
    b"envelope_digest_",
    b"fragment_offset_",
    b"gateway_routing_",
    b"horizon_scanner_",
    b"industry_sector_",
    b"junction_signal_",
    b"keyboard_layout_",
    b"latitude_degree_",
    b"merchant_ledger_",
    b"notebook_margin_",
    b"operator_handle_",
    b"pipeline_stages_",
];

/// Deterministic printable field payloads. A `compressibility` fraction of
/// the bytes come from a small word dictionary (redundant, compressible);
/// the rest are uniform lowercase noise (incompressible) — see
/// [`WorkloadSpec::compressibility`].
#[derive(Debug, Clone)]
struct Payload {
    names: Vec<String>,
    field_length: usize,
    compressibility: f64,
}

impl Payload {
    fn fields(&self, rng: &mut StdRng) -> Vec<(String, String)> {
        self.names.iter().map(|name| (name.clone(), self.value(rng))).collect()
    }

    /// One value: 16-byte words and 8-byte noise runs until it is long
    /// enough, cut to `field_length` (the draws of the cut bytes still run).
    fn value(&self, rng: &mut StdRng) -> String {
        let mut value = Vec::with_capacity(self.field_length + 15);
        while value.len() < self.field_length {
            if rng.gen::<f64>() < self.compressibility {
                let idx = if rng.gen::<f64>() < 0.8 {
                    rng.gen_range(0..4)
                } else {
                    rng.gen_range(0..WORDS.len())
                };
                value.extend_from_slice(WORDS[idx]);
            } else {
                for _ in 0..8 {
                    value.push(b'a' + rng.gen_range(0..26u8));
                }
            }
        }
        value.truncate(self.field_length);
        String::from_utf8(value).expect("payload bytes are ASCII")
    }
}

/// The per-thread operation stream (an iterator).
pub struct OpStream {
    spec: WorkloadSpec,
    payload: Payload,
    rng: StdRng,
    chooser: KeyChooser,
    frontier: Arc<InsertFrontier>,
    /// The insert this stream yielded last, until its client asks for the
    /// next operation.
    unacknowledged: Option<u64>,
    remaining: u64,
}

impl OpStream {
    fn pick_key(&mut self) -> String {
        let readable = self.frontier.readable();
        let chooser: &mut dyn Generator = match &mut self.chooser {
            KeyChooser::Latest(latest) => {
                // Recency follows the acknowledged inserts.
                latest.grow_to(readable);
                latest
            }
            KeyChooser::Loaded(loaded) => loaded.as_mut(),
        };
        let idx = loop {
            let idx = chooser.next(&mut self.rng);
            if idx < readable.max(1) {
                break idx;
            }
        };
        self.spec.key_for(idx)
    }

    fn acknowledge(&mut self) {
        if let Some(index) = self.unacknowledged.take() {
            self.frontier.acknowledge(index);
        }
    }
}

impl Drop for OpStream {
    fn drop(&mut self) {
        self.acknowledge();
    }
}

impl Iterator for OpStream {
    type Item = Operation;

    fn next(&mut self) -> Option<Operation> {
        self.acknowledge();
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let m = &self.spec.mix;
        let roll: f64 = self.rng.gen();
        let op = if roll < m.read {
            Operation::Read { key: self.pick_key() }
        } else if roll < m.read + m.update {
            let key = self.pick_key();
            let fields = self.payload.fields(&mut self.rng);
            Operation::Update { key, fields }
        } else if roll < m.read + m.update + m.insert {
            let idx = self.frontier.issue();
            self.unacknowledged = Some(idx);
            Operation::Insert {
                key: self.spec.key_for(idx),
                fields: self.payload.fields(&mut self.rng),
            }
        } else if roll < m.read + m.update + m.insert + m.scan {
            let count = self.rng.gen_range(1..=self.spec.max_scan_length);
            Operation::Scan { start_key: self.pick_key(), count }
        } else {
            let key = self.pick_key();
            let fields = self.payload.fields(&mut self.rng);
            Operation::ReadModifyWrite { key, fields }
        };
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CoreWorkload, OpMix};

    fn spec() -> WorkloadSpec {
        WorkloadSpec { record_count: 100, operation_count: 1_000, ..WorkloadSpec::default() }
    }

    #[test]
    fn load_partitions_cover_all_records() {
        let runner = WorkloadRunner::new(spec()).unwrap();
        let mut keys: Vec<String> = (0..4)
            .flat_map(|t| runner.load_partition(t, 4))
            .map(|op| match op {
                Operation::Insert { key, .. } => key,
                other => panic!("load phase must only insert, got {other:?}"),
            })
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 100);
    }

    #[test]
    fn stream_counts_split_across_threads() {
        let runner = WorkloadRunner::new(spec()).unwrap();
        let total: usize = (0..3).map(|t| runner.stream(t, 3).count()).sum();
        assert_eq!(total, 1_000);
    }

    #[test]
    fn single_thread_takes_all_ops() {
        let runner = WorkloadRunner::new(spec()).unwrap();
        assert_eq!(runner.stream(0, 1).count(), 1_000);
    }

    #[test]
    fn mix_proportions_roughly_hold() {
        let mut s = spec();
        s.operation_count = 20_000;
        s.mix = OpMix { read: 0.6, update: 0.3, insert: 0.1, scan: 0.0, read_modify_write: 0.0 };
        let runner = WorkloadRunner::new(s).unwrap();
        let mut reads = 0;
        let mut updates = 0;
        let mut inserts = 0;
        for op in runner.stream(0, 1) {
            match op {
                Operation::Read { .. } => reads += 1,
                Operation::Update { .. } => updates += 1,
                Operation::Insert { .. } => inserts += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!((reads as f64 / 20_000.0 - 0.6).abs() < 0.02);
        assert!((updates as f64 / 20_000.0 - 0.3).abs() < 0.02);
        assert!((inserts as f64 / 20_000.0 - 0.1).abs() < 0.02);
    }

    #[test]
    fn inserts_use_fresh_keys() {
        let mut s = spec();
        s.mix = OpMix { read: 0.0, update: 0.0, insert: 1.0, scan: 0.0, read_modify_write: 0.0 };
        s.operation_count = 50;
        let runner = WorkloadRunner::new(s).unwrap();
        let mut keys: Vec<String> = runner
            .stream(0, 1)
            .map(|op| match op {
                Operation::Insert { key, .. } => key,
                other => panic!("{other:?}"),
            })
            .collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before, "insert keys must be unique");
        assert!(keys.iter().all(|k| k.as_str() >= "user000000000100"), "fresh keys only");
        assert_eq!(runner.keyspace_size(), 150);
    }

    #[test]
    fn reads_see_inserts_once_every_insert_below_is_acknowledged() {
        let mut s = spec();
        s.mix = OpMix { read: 0.0, update: 0.0, insert: 1.0, scan: 0.0, read_modify_write: 0.0 };
        let runner = WorkloadRunner::new(s).unwrap();
        let (mut first, mut second) = (runner.stream(0, 2), runner.stream(1, 2));
        let key = |op: Option<Operation>| match op {
            Some(Operation::Insert { key, .. }) => key,
            other => panic!("{other:?}"),
        };
        assert_eq!(key(first.next()), runner.spec().key_for(100));
        assert_eq!(runner.keyspace_size(), 100, "handed out, not yet run");
        assert_eq!(key(second.next()), runner.spec().key_for(101));
        assert_eq!(key(second.next()), runner.spec().key_for(102));
        assert_eq!(runner.keyspace_size(), 100, "101 is acknowledged, 100 is not");
        assert_eq!(key(first.next()), runner.spec().key_for(103));
        assert_eq!(runner.keyspace_size(), 102, "100 and 101 are acknowledged");
        drop(second);
        assert_eq!(runner.keyspace_size(), 103, "a dropped stream acknowledges its last insert");
        drop(first);
        assert_eq!(runner.keyspace_size(), 104);
    }

    #[test]
    fn concurrent_inserts_never_collide() {
        let mut s = spec();
        s.mix = OpMix { read: 0.0, update: 0.0, insert: 1.0, scan: 0.0, read_modify_write: 0.0 };
        s.operation_count = 400;
        let runner = WorkloadRunner::new(s).unwrap();
        let all: Vec<String> = chronos_util::pool::scoped_indexed(4, |t| {
            runner
                .stream(t, 4)
                .map(|op| match op {
                    Operation::Insert { key, .. } => key,
                    other => panic!("{other:?}"),
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
    }

    #[test]
    fn reads_stay_in_keyspace() {
        let runner = WorkloadRunner::new(WorkloadSpec::core(CoreWorkload::C)).unwrap();
        for op in runner.stream(0, 1).take(5_000) {
            match op {
                Operation::Read { key } => {
                    assert!(key < runner.spec().key_for(runner.keyspace_size()));
                }
                other => panic!("workload C is read-only, got {other:?}"),
            }
        }
    }

    #[test]
    fn scans_bounded_by_max_length() {
        let runner = WorkloadRunner::new(WorkloadSpec::core(CoreWorkload::E)).unwrap();
        for op in runner.stream(0, 1).take(2_000) {
            if let Operation::Scan { count, .. } = op {
                assert!((1..=100).contains(&count));
            }
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let collect = || {
            let runner = WorkloadRunner::new(spec()).unwrap();
            runner.stream(0, 2).collect::<Vec<_>>()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn different_threads_get_different_streams() {
        let runner = WorkloadRunner::new(spec()).unwrap();
        let a: Vec<Operation> = runner.stream(0, 2).collect();
        let b: Vec<Operation> = runner.stream(1, 2).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn workload_f_produces_rmw() {
        let runner = WorkloadRunner::new(WorkloadSpec::core(CoreWorkload::F)).unwrap();
        let kinds: std::collections::HashSet<&str> =
            runner.stream(0, 1).take(1_000).map(|op| op.kind()).collect();
        assert!(kinds.contains("read_modify_write"));
        assert!(kinds.contains("read"));
    }

    #[test]
    fn field_payloads_match_spec() {
        let mut s = spec();
        s.field_count = 3;
        s.field_length = 16;
        s.mix = OpMix { read: 0.0, update: 1.0, insert: 0.0, scan: 0.0, read_modify_write: 0.0 };
        let runner = WorkloadRunner::new(s).unwrap();
        let Some(Operation::Update { fields, .. }) = runner.stream(0, 1).next() else {
            panic!("expected update");
        };
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0].0, "field0");
        assert!(fields.iter().all(|(_, v)| v.len() == 16));
    }
}
