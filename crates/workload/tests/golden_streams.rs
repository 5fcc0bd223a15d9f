//! Golden op-stream digests.
//!
//! Results are comparable across commits only while a seed's operation
//! stream stays fixed: the same kinds, the same keys, the same field names
//! and the same payload bytes. Each digest below is a stable FNV-1a hash
//! (not `DefaultHasher`, whose output may change between Rust releases)
//! over every operation a configuration generates. A change to the
//! generator that moves any of them changes what every benchmark measures.
//!
//! Coverage: workloads a–f × threads {1, 2} (streams drained one after
//! another, sharing one runner) × field_length {1, 7, 100, 200} ×
//! record_count {1, 10, 1000, 4000} × three seeds, the load phase over
//! the same grid, and field_count 12 plus compressibility 0 and 1.

use chronos_workload::{CoreWorkload, Operation, WorkloadRunner, WorkloadSpec};

const WORKLOADS: [CoreWorkload; 6] = [
    CoreWorkload::A,
    CoreWorkload::B,
    CoreWorkload::C,
    CoreWorkload::D,
    CoreWorkload::E,
    CoreWorkload::F,
];
const THREADS: [usize; 2] = [1, 2];
const FIELD_LENGTHS: [usize; 4] = [1, 7, 100, 200];
const RECORD_COUNTS: [u64; 4] = [1, 10, 1000, 4000];
const SEEDS: [u64; 3] = [1, 42, 0xDEAD_BEEF];
const OPERATION_COUNT: u64 = 400;

/// FNV-1a 64 over length-prefixed byte strings, so that adjacent strings
/// cannot trade bytes without moving the digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.raw(&(bytes.len() as u64).to_le_bytes());
        self.raw(bytes);
    }

    fn op(&mut self, op: &Operation) {
        self.bytes(op.kind().as_bytes());
        match op {
            Operation::Read { key } => self.bytes(key.as_bytes()),
            Operation::Scan { start_key, count } => {
                self.bytes(start_key.as_bytes());
                self.raw(&count.to_le_bytes());
            }
            Operation::Update { key, fields }
            | Operation::Insert { key, fields }
            | Operation::ReadModifyWrite { key, fields } => {
                self.bytes(key.as_bytes());
                self.raw(&(fields.len() as u64).to_le_bytes());
                for (name, value) in fields {
                    self.bytes(name.as_bytes());
                    self.bytes(value.as_bytes());
                }
            }
        }
    }
}

fn spec(workload: CoreWorkload, field_length: usize, record_count: u64, seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        field_length,
        record_count,
        seed,
        operation_count: OPERATION_COUNT,
        ..WorkloadSpec::core(workload)
    }
}

/// Folds the transaction-phase streams of `threads` threads, drained in
/// turn from one runner, into `fnv`.
fn fold_streams(fnv: &mut Fnv, spec: WorkloadSpec, threads: usize) {
    let runner = WorkloadRunner::new(spec).expect("valid spec");
    for t in 0..threads {
        for op in runner.stream(t, threads) {
            fnv.op(&op);
        }
    }
}

/// Folds the load partitions of `threads` threads into `fnv`.
fn fold_load(fnv: &mut Fnv, spec: WorkloadSpec, threads: usize) {
    let runner = WorkloadRunner::new(spec).expect("valid spec");
    for t in 0..threads {
        for op in runner.load_partition(t, threads) {
            fnv.op(&op);
        }
    }
}

/// One digest per (workload, threads) over the whole
/// field_length × record_count × seed grid.
fn stream_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for workload in WORKLOADS {
        for threads in THREADS {
            let mut fnv = Fnv::new();
            for field_length in FIELD_LENGTHS {
                for record_count in RECORD_COUNTS {
                    for seed in SEEDS {
                        fold_streams(
                            &mut fnv,
                            spec(workload, field_length, record_count, seed),
                            threads,
                        );
                    }
                }
            }
            out.push((format!("stream/{}/threads={threads}", workload.as_str()), fnv.0));
        }
    }
    out
}

/// One digest per thread count over the load phase of the same grid (the
/// load phase does not depend on the operation mix).
fn load_digests() -> Vec<(String, u64)> {
    THREADS
        .iter()
        .map(|&threads| {
            let mut fnv = Fnv::new();
            for field_length in FIELD_LENGTHS {
                for record_count in RECORD_COUNTS {
                    for seed in SEEDS {
                        fold_load(
                            &mut fnv,
                            spec(CoreWorkload::A, field_length, record_count, seed),
                            threads,
                        );
                    }
                }
            }
            (format!("load/threads={threads}"), fnv.0)
        })
        .collect()
}

/// Load and streams of workloads a and d (inserts and `latest`) at the
/// payload shapes the grid does not cover.
fn shape_digests() -> Vec<(String, u64)> {
    type Shape = (&'static str, fn(&mut WorkloadSpec));
    let shapes: [Shape; 3] = [
        ("field_count=12", |s| s.field_count = 12),
        ("compressibility=0", |s| s.compressibility = 0.0),
        ("compressibility=1", |s| s.compressibility = 1.0),
    ];
    shapes
        .iter()
        .map(|(name, shape)| {
            let mut fnv = Fnv::new();
            for workload in [CoreWorkload::A, CoreWorkload::D] {
                for threads in THREADS {
                    for seed in SEEDS {
                        let mut s = spec(workload, 100, 1000, seed);
                        shape(&mut s);
                        fold_load(&mut fnv, s.clone(), threads);
                        fold_streams(&mut fnv, s, threads);
                    }
                }
            }
            (format!("shape/{name}"), fnv.0)
        })
        .collect()
}

fn check(actual: Vec<(String, u64)>, expected: &[(&str, u64)]) {
    let table: String =
        actual.iter().map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n")).collect();
    let moved: Vec<&str> = actual
        .iter()
        .zip(expected)
        .filter(|((name, d), (want_name, want))| name != want_name || d != want)
        .map(|((name, _), _)| name.as_str())
        .collect();
    assert!(
        actual.len() == expected.len() && moved.is_empty(),
        "generator output moved for {moved:?}; the digests now read:\n{table}"
    );
}

#[test]
fn transaction_streams_are_pinned() {
    check(
        stream_digests(),
        &[
            ("stream/a/threads=1", 0x43a9d416899e4c4a),
            ("stream/a/threads=2", 0x4efe41ba49a1a34f),
            ("stream/b/threads=1", 0xa854bf46b383faca),
            ("stream/b/threads=2", 0x8d7fd51a65dfc235),
            ("stream/c/threads=1", 0xbee081d9d5a11a85),
            ("stream/c/threads=2", 0xf4786080afcc578d),
            ("stream/d/threads=1", 0xa445b23f6bc51fa8),
            ("stream/d/threads=2", 0x9b14a0cc6c72e325),
            ("stream/e/threads=1", 0xc567d1fe9d8898ed),
            ("stream/e/threads=2", 0x3504002f9c71b8e7),
            ("stream/f/threads=1", 0x7fcaa910786c2130),
            ("stream/f/threads=2", 0x3d7119baf128822d),
        ],
    );
}

#[test]
fn load_phase_is_pinned() {
    check(
        load_digests(),
        &[("load/threads=1", 0x0cce5615d84cf3a2), ("load/threads=2", 0x16695c371d0c7c76)],
    );
}

#[test]
fn payload_shapes_are_pinned() {
    check(
        shape_digests(),
        &[
            ("shape/field_count=12", 0xd44d79e8c4f6de2b),
            ("shape/compressibility=0", 0xef79ee39a6366393),
            ("shape/compressibility=1", 0x3348d8ba677f33e5),
        ],
    );
}
