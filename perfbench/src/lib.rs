//! The basecache benchmark: closed-loop base-station scheduling rounds
//! over four seeded workloads, end-to-end metrics from a timed run and
//! per-layer metrics from a separate traced run. See `README.md` beside
//! this package for the workloads, the metrics and how to run it.

pub mod alloc;
pub mod compare;
pub mod output;
pub mod probe;
pub mod run;
pub mod stats;
pub mod workloads;
