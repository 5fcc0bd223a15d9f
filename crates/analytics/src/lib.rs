//! Columnar result analytics for Chronos (paper §result analysis, Fig. 3d).
//!
//! Uploaded job results are row-oriented JSON documents; every chart or
//! summary request used to re-parse and re-aggregate them from scratch.
//! This crate stores an evaluation's results **column-oriented** instead:
//! each scalar leaf of the result documents becomes a typed column chunk
//! (i64 / f64 / string / bool) with dictionary, delta and LEB128 encodings
//! (reusing minidoc's varint machinery), and aggregation runs as
//! vectorized kernels over those chunks — filter, group-by, sum/min/max/
//! mean, percentiles over sorted chunks, and time-series downsampling.
//!
//! On top of the column store sits seeded, deterministic E-Divisive-mean
//! change-point detection over per-experiment metric history (in the
//! spirit of "Automated System Performance Testing at MongoDB"), which
//! powers the automatic regression endpoint of the control plane.

pub mod changepoint;
pub mod column;
pub mod encoding;
pub mod kernels;
pub mod store;
pub mod table;

pub use changepoint::{detect_change_points, ChangePoint, ChangePointConfig};
pub use column::{Cell, DataColumn, ParamColumn};
pub use encoding::CodecError;
pub use kernels::{
    downsample, filter_eq, group_sums, percentile_sorted, sum_count, Bucket, NumAgg,
};
pub use store::{AnalyticsStore, RegressionFlag};
pub use table::ResultTable;
