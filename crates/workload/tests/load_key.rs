//! `WorkloadSpec::load_key` names exactly what the load phase depends on.
//!
//! A client may hand a job a copy of a database loaded for another spec of
//! the same key, so a field the load reads but the key leaves out would
//! hand that job the wrong records, and a field the key holds but the load
//! never reads would only cost reloads. Each field of the spec is changed
//! on its own: outside the key the load's digest must stay, inside it the
//! digest must move.

use chronos_workload::{
    CoreWorkload, Distribution, OpMix, Operation, WorkloadRunner, WorkloadSpec,
};

/// FNV-1a 64 over every record of every partition, for one and for three
/// loading threads.
fn load_digest(spec: &WorkloadSpec) -> u64 {
    let runner = WorkloadRunner::new(spec.clone()).unwrap();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for threads in [1, 3] {
        for thread in 0..threads {
            for op in runner.load_partition(thread, threads) {
                let Operation::Insert { key, fields } = op else { panic!("load inserts only") };
                eat(key.as_bytes());
                for (name, value) in &fields {
                    eat(name.as_bytes());
                    eat(value.as_bytes());
                }
            }
        }
    }
    hash
}

#[test]
fn only_the_fields_of_the_load_key_move_the_load() {
    let base = WorkloadSpec {
        record_count: 60,
        field_count: 4,
        field_length: 20,
        seed: 11,
        ..WorkloadSpec::core(CoreWorkload::A)
    };
    // Naming every field makes a new one a compile error here until it is
    // placed inside or outside the key.
    let WorkloadSpec {
        record_count,
        operation_count,
        field_count,
        field_length,
        mix,
        distribution,
        max_scan_length,
        seed,
        compressibility,
    } = base.clone();
    let outside = [
        ("operation_count", WorkloadSpec { operation_count: operation_count + 1, ..base.clone() }),
        (
            "mix",
            WorkloadSpec {
                mix: OpMix { read: mix.read - 0.25, scan: mix.scan + 0.25, ..mix },
                ..base.clone()
            },
        ),
        (
            "distribution",
            WorkloadSpec {
                distribution: match distribution {
                    Distribution::Uniform => Distribution::Latest,
                    _ => Distribution::Uniform,
                },
                ..base.clone()
            },
        ),
        ("max_scan_length", WorkloadSpec { max_scan_length: max_scan_length + 1, ..base.clone() }),
    ];
    let inside = [
        ("record_count", WorkloadSpec { record_count: record_count + 1, ..base.clone() }),
        ("field_count", WorkloadSpec { field_count: field_count + 1, ..base.clone() }),
        ("field_length", WorkloadSpec { field_length: field_length + 1, ..base.clone() }),
        ("seed", WorkloadSpec { seed: seed + 1, ..base.clone() }),
        (
            "compressibility",
            WorkloadSpec { compressibility: compressibility / 2.0, ..base.clone() },
        ),
    ];
    let digest = load_digest(&base);
    for (field, spec) in &outside {
        assert_eq!(spec.load_key(), base.load_key(), "{field} is outside the key");
        assert_eq!(load_digest(spec), digest, "{field} moved the load");
    }
    for (field, spec) in &inside {
        assert_ne!(spec.load_key(), base.load_key(), "{field} is inside the key");
        assert_ne!(load_digest(spec), digest, "{field} did not move the load");
    }
}
