//! Shared fixtures and a hand-rolled timing harness for the benches:
//! deterministic request batches at paper scale, plus [`harness`] — a
//! small warmup/calibrate/sample loop with median/mean/min reporting, so
//! the bench binaries are plain `main()` programs with zero external
//! dependencies.

use basecache_core::request::RequestBatch;
use basecache_net::Catalog;
use basecache_sim::RngStreams;
use basecache_workload::{GeneratedRequest, Popularity, RequestGenerator, TargetRecency};

pub mod cluster_suite;
pub mod harness;
pub mod massive_suite;
pub mod planner_suite;

/// A live planning round at roughly paper scale, as the raw generated
/// requests (the form [`BaseStationSim::step`] receives): requests,
/// catalog and cache recency.
///
/// [`BaseStationSim::step`]: basecache_core::station::BaseStationSim::step
pub fn planning_requests(
    objects: usize,
    requests: usize,
    seed: u64,
) -> (Vec<GeneratedRequest>, Catalog, Vec<f64>) {
    let streams = RngStreams::new(seed);
    let sizes: Vec<u64> = {
        let mut rng = streams.stream("bench/sizes");
        (0..objects).map(|_| rng.random_range(1..=20)).collect()
    };
    let catalog = Catalog::from_sizes(&sizes);
    let recency: Vec<f64> = {
        let mut rng = streams.stream("bench/recency");
        (0..objects).map(|_| rng.random_range(0.1..=1.0)).collect()
    };
    let generator = RequestGenerator::new(
        Popularity::ZIPF1.build(objects),
        requests,
        TargetRecency::Uniform { lo: 0.3, hi: 1.0 },
    );
    let generated = generator.batch(&mut streams.stream("bench/requests"));
    (generated, catalog, recency)
}

/// A live planning round at roughly paper scale: catalog, cache recency
/// and an aggregated request batch.
pub fn planning_round(
    objects: usize,
    requests: usize,
    seed: u64,
) -> (RequestBatch, Catalog, Vec<f64>) {
    let (generated, catalog, recency) = planning_requests(objects, requests, seed);
    (RequestBatch::from_generated(&generated), catalog, recency)
}
