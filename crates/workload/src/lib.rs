//! YCSB-style benchmark workload generation.
//!
//! The Chronos paper's demo pits two MongoDB storage engines against each
//! other under a configurable benchmark; YCSB (the paper's reference [4]) is
//! the canonical workload family for exactly that comparison. This crate
//! reimplements the YCSB core machinery:
//!
//! * [`generators`] — request-distribution generators (uniform, zipfian,
//!   scrambled zipfian, latest, hotspot, exponential, sequential) with the
//!   same constants as the YCSB reference implementation.
//! * [`spec`] — a declarative [`WorkloadSpec`](spec::WorkloadSpec) with the
//!   six core workloads A–F as presets, convertible to/from JSON so Chronos
//!   experiments can carry workload definitions as parameters.
//! * [`runner`] — turns a spec into a deterministic stream of
//!   [`Operation`](runner::Operation)s for the load and transaction phases,
//!   with a thread-safe insert frontier so concurrent clients never collide
//!   on generated keys.
//!
//! Everything is deterministic given a seed, which is what makes Chronos
//! evaluations repeatable across re-runs of the same experiment.

pub mod generators;
pub mod runaway;
pub mod runner;
pub mod spec;
pub mod surface;
pub mod tpcc;

pub use generators::{
    ExponentialGenerator, Generator, HotspotGenerator, LatestGenerator, ScrambledZipfian,
    SequentialGenerator, UniformGenerator, ZipfianGenerator,
};
pub use runaway::{RunawayKind, RunawayScenario};
pub use runner::{Operation, WorkloadRunner};
pub use spec::{CoreWorkload, Distribution, OpMix, WorkloadSpec};
pub use surface::ResponseSurface;
pub use tpcc::{TpccConfig, TpccRunner, TpccTx};
