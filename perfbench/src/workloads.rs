//! The four station workloads and the worlds that run them.
//!
//! Each world owns one simulated deployment — catalog, origin server,
//! station(s), and for `massive_engine` the standing-request engine —
//! plus seeded streams for its per-round inputs. The run loop calls
//! [`World::prepare`] (origin writes and input generation, outside the
//! round clock) and then [`World::round`] (the timed base-station calls,
//! followed by the output checks) in a closed loop: one caller, one
//! round at a time.

use std::time::Instant;

use basecache_cluster::{ClusterSim, L2Config};
use basecache_core::engine::RoundEngine;
use basecache_core::{
    BaseStationSim, OnDemandPlanner, RequestBatch, RoundOutcome, ScoringFunction, SolverChoice,
    StationBuilder,
};
use basecache_net::{ArbiterPolicy, BackhaulArbiter, Catalog, CellId, InFlightConfig, ObjectId};
use basecache_obs::{InvariantMonitor, Stage};
use basecache_sim::{RngStreams, SimTime, StreamRng};
use basecache_workload::{
    ChurnOp, GeneratedRequest, Popularity, PopularityDist, RoamingScenario, StandingWorkload,
    TargetRecency,
};

use crate::probe::{self, SpanLog, StageTotals};
use crate::stats::Digest;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale per-request batches through the in-flight ledger.
    PaperFlight,
    /// A quarter-million standing requests in a sharded round engine.
    MassiveEngine,
    /// Sixteen roaming cells sharing a backhaul and a regional L2 tier.
    ClusterL2,
    /// Object sizes in bytes: a knapsack capacity of one MiB.
    ByteCatalog,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperFlight,
        Workload::MassiveEngine,
        Workload::ClusterL2,
        Workload::ByteCatalog,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFlight => "paper_flight",
            Workload::MassiveEngine => "massive_engine",
            Workload::ClusterL2 => "cluster_l2",
            Workload::ByteCatalog => "byte_catalog",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the benchmark's stated sizes, or a tiny version of each
/// workload for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// Small enough to run every workload in a test.
    Tiny,
}

/// How a workload's run is shaped.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Untimed rounds inside set-up that fill caches and queues.
    pub warmup: u64,
    /// Measured rounds whose outcomes feed the simulated metrics and
    /// the digest. A run always completes them, so those figures
    /// repeat exactly for a seed however fast the host is.
    pub prefix: u64,
    /// Set-ups per timed run; `setup_s` is their median.
    pub setups: usize,
}

/// The run shape of `workload` at `scale`.
pub fn shape(workload: Workload, scale: Scale) -> Shape {
    let (warmup, prefix, setups) = match (workload, scale) {
        (Workload::PaperFlight | Workload::ClusterL2, Scale::Full) => (200, 4000, 5),
        (Workload::MassiveEngine, Scale::Full) => (50, 1000, 5),
        (Workload::ByteCatalog, Scale::Full) => (10, 60, 5),
        (Workload::PaperFlight | Workload::ClusterL2, Scale::Tiny) => (5, 20, 2),
        (Workload::MassiveEngine | Workload::ByteCatalog, Scale::Tiny) => (2, 10, 2),
    };
    Shape {
        warmup,
        prefix,
        setups,
    }
}

/// Simulated totals since the end of warm-up.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimTotals {
    /// Requests answered.
    pub served: u64,
    /// Sum of the recency scores delivered to them.
    pub score_sum: f64,
    /// Origin (fixed-network) data units that arrived.
    pub origin_units: u64,
    /// Sum of the rounds answered requests waited on a transfer.
    pub wait_sum: f64,
}

impl SimTotals {
    fn outcome(&mut self, served: usize, average_score: f64, origin_units: u64) {
        self.served += served as u64;
        self.score_sum += average_score * served as f64;
        self.origin_units += origin_units;
    }
}

/// Counters every world keeps from its round outcomes.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Rounds since the end of warm-up.
    pub rounds: u64,
    /// Requests answered.
    pub served: u64,
    /// Answered without a same-round download.
    pub hits: u64,
    /// Transfers launched.
    pub launched: u64,
    /// Requests that joined an earlier round's transfer.
    pub joined: u64,
    /// Requests parked on transfers at the end of each round.
    pub waiting: Slope,
}

impl Counts {
    fn outcome(&mut self, o: &RoundOutcome) {
        self.served += o.served as u64;
        self.hits += o.cache_hits as u64;
        self.launched += o.launched as u64;
        self.joined += o.joined as u64;
    }
}

/// Least-squares slope of a per-round series, plus its last value.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slope {
    n: f64,
    sx: f64,
    sy: f64,
    sxy: f64,
    sxx: f64,
    last: f64,
}

impl Slope {
    /// Add the next value of the series.
    pub fn push(&mut self, y: f64) {
        let x = self.n;
        self.n += 1.0;
        self.sx += x;
        self.sy += y;
        self.sxy += x * y;
        self.sxx += x * x;
        self.last = y;
    }

    /// Change per step of the fitted line (0 with fewer than 2 points).
    pub fn slope(&self) -> f64 {
        let den = self.n * self.sxx - self.sx * self.sx;
        if self.n < 2.0 || den == 0.0 {
            0.0
        } else {
            (self.n * self.sxy - self.sx * self.sy) / den
        }
    }

    /// The latest value.
    pub fn last(&self) -> f64 {
        self.last
    }
}

/// A per-layer metric value by name (units live in `run::PER_LAYER`).
pub type LayerValue = (&'static str, f64);

/// One simulated deployment driven by the benchmark.
pub trait World: Sized {
    /// Inputs generated once from the seed, shared by every set-up.
    type Inputs;

    /// Generate `workload`'s inputs (outside set-up and the round
    /// clock).
    fn inputs(workload: Workload, seed: u64, scale: Scale) -> Self::Inputs;

    /// Build catalog, station(s) and engine and ingest the population.
    /// A traced world carries a probe on every station.
    fn build(inputs: &Self::Inputs, traced: bool, log: &mut SpanLog) -> Self;

    /// Apply this round's origin writes and generate its request
    /// inputs. Never timed.
    fn prepare(&mut self, log: &mut SpanLog);

    /// Run the round's base-station calls under the clock, then check
    /// the outputs. Returns the host nanoseconds of the calls and `Err`
    /// naming a failed check. Outcomes are folded into `digest` when
    /// given.
    fn round(
        &mut self,
        log: &mut SpanLog,
        digest: Option<&mut Digest>,
    ) -> (u64, Result<(), String>);

    /// End of warm-up: switch to the measured traffic and zero the
    /// simulated totals, counters and probes.
    fn begin_measure(&mut self);

    /// Simulated totals since [`World::begin_measure`].
    fn totals(&self) -> SimTotals;

    /// Per-layer metrics since [`World::begin_measure`] (traced worlds).
    fn layers(&self) -> Vec<LayerValue>;

    /// Invariant violations the probes' monitors counted (traced
    /// worlds; 0 otherwise).
    fn violations(&self) -> u64;

    /// Checks that run once after measurement (outside the clock).
    fn final_checks(&mut self) -> Vec<String> {
        Vec::new()
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// The per-round output checks shared by every workload: `spent` units
/// (downloaded, or launched in flight mode) stay within `budget`; the
/// `pending` requests (carried over plus issued this round) are all
/// served or still waiting; average score and recency lie in `[0, 1]`;
/// hits never exceed answers.
pub fn check_round(o: &RoundOutcome, spent: u64, budget: u64, pending: u64) -> Result<(), String> {
    let tick = o.tick;
    for (what, v) in [("score", o.average_score), ("recency", o.average_recency)] {
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("round {tick}: average {what} {v} outside [0, 1]"));
        }
    }
    if o.cache_hits > o.served {
        return Err(format!(
            "round {tick}: {} hits > {} served",
            o.cache_hits, o.served
        ));
    }
    if spent > budget {
        return Err(format!(
            "round {tick}: spent {spent} units over budget {budget}"
        ));
    }
    let accounted = (o.served + o.still_waiting) as u64;
    if accounted != pending {
        return Err(format!(
            "round {tick}: {pending} requests pending but {accounted} served or waiting"
        ));
    }
    Ok(())
}

fn probe_violations(station: &BaseStationSim) -> u64 {
    probe::read(station.recorder())
        .right
        .left
        .total_violations()
}

/// The station-level layers every workload reports.
fn station_layers(stages: &StageTotals, counts: &Counts, cached_units: u64) -> Vec<LayerValue> {
    let r = counts.rounds;
    let ms = |s: Stage| stages.ms(s, r);
    let children = [
        Stage::Recency,
        Stage::Plan,
        Stage::Refresh,
        Stage::Serve,
        Stage::Fetch,
    ]
    .iter()
    .map(|&s| ms(s))
    .sum::<f64>();
    let per_round = |x: f64| x / r.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("station.step_ms", ms(Stage::Step)),
        ("station.recency_ms", ms(Stage::Recency)),
        ("station.plan_ms", ms(Stage::Plan)),
        ("station.refresh_ms", ms(Stage::Refresh)),
        ("station.serve_ms", ms(Stage::Serve)),
        ("station.fetch_ms", ms(Stage::Fetch)),
        ("station.unattributed_ms", ms(Stage::Step) - children),
        ("planner.aggregate_ms", ms(Stage::Plan) - ms(Stage::Solve)),
        (
            "planner.knapsack_items",
            per_round(stages.knapsack_items as f64),
        ),
        ("knapsack.solve_ms", ms(Stage::Solve)),
        ("knapsack.dp_cells", per_round(stages.dp_cells as f64)),
        (
            "knapsack.core_size",
            ratio(stages.core_size_sum, stages.solves as f64),
        ),
        (
            "knapsack.fixed_share",
            ratio(stages.items_fixed_sum, stages.knapsack_items as f64),
        ),
        (
            "knapsack.certified_share",
            ratio(stages.certified as f64, stages.solves as f64),
        ),
        (
            "cache.hit_ratio",
            ratio(counts.hits as f64, counts.served as f64),
        ),
        ("cache.cached_units", cached_units as f64),
    ]
}

fn flight_layers(counts: &Counts, stages: &StageTotals) -> Vec<LayerValue> {
    let per_round = |x: f64| x / counts.rounds.max(1) as f64;
    let moved = counts.joined + counts.launched;
    vec![
        ("inflight.launched", per_round(counts.launched as f64)),
        (
            "inflight.joined_share",
            if moved > 0 {
                counts.joined as f64 / moved as f64
            } else {
                0.0
            },
        ),
        ("inflight.still_waiting", counts.waiting.last()),
        ("inflight.still_waiting_slope", counts.waiting.slope()),
        (
            "inflight.duplicate_fetches",
            per_round(stages.duplicate_fetches as f64),
        ),
        (
            "inflight.stale_arrivals",
            per_round(stages.stale_arrivals as f64),
        ),
    ]
}

/// Seed of every workload's catalog and warm-up traffic, which are part
/// of the workload's definition: `--seed` varies the measured traffic
/// (requests, churn, mobility and origin writes). Every seed's measured
/// rounds thus start from the same warm world, and set-up does the same
/// work whatever the seed.
const REFERENCE_SEED: u64 = 0x00CA_7A10;

/// `n` object sizes drawn from `U[lo, hi]` for workload `name`.
fn catalog_sizes(name: &str, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    let mut rng = RngStreams::new(REFERENCE_SEED).stream(name);
    (0..n).map(|_| rng.random_range(lo..=hi)).collect()
}

/// Fill `out` with `n` Zipf-popular requests with targets `U[lo, hi]`.
fn fill_batch(
    out: &mut Vec<GeneratedRequest>,
    rng: &mut StreamRng,
    popularity: &PopularityDist,
    n: usize,
    target: (f64, f64),
) {
    out.clear();
    out.extend((0..n).map(|_| GeneratedRequest {
        object: ObjectId(popularity.sample(rng) as u32),
        target_recency: rng.random_range(target.0..=target.1),
    }));
}

fn apply_updates(station: &mut BaseStationSim, rng: &mut StreamRng, n: usize) {
    let objects = station.catalog().len() as u32;
    let now = SimTime::from_ticks(station.tick());
    for _ in 0..n {
        let object = ObjectId(rng.random_range(0..objects));
        station.server_mut().apply_update(object, now);
    }
}

/// Inputs of a per-request batch workload (`paper_flight`,
/// `byte_catalog`).
#[derive(Debug, Clone)]
pub struct BatchInputs {
    seed: u64,
    sizes: Vec<u64>,
    popularity: PopularityDist,
    requests: usize,
    budget: u64,
    updates: usize,
    /// `Some(bandwidth)` routes rounds through the in-flight ledger.
    bandwidth: Option<u64>,
    /// Measured rounds whose plan is re-solved by the exact DP.
    plan_checks: Vec<u64>,
}

/// Request targets of the batch workloads: `U[0.3, 1]`.
const TARGET: (f64, f64) = (0.3, 1.0);

/// A plan sampled for the exact-DP cross-check.
#[derive(Debug)]
struct PlanSample {
    round: u64,
    batch: Vec<GeneratedRequest>,
    recency: Vec<f64>,
    downloads: Vec<ObjectId>,
}

/// One station fed a fresh request batch per round: `paper_flight` (in
/// flight, through the ledger) and `byte_catalog` (instant path).
#[derive(Debug)]
pub struct BatchWorld {
    inputs: BatchInputs,
    station: BaseStationSim,
    traced: bool,
    requests_rng: StreamRng,
    updates_rng: StreamRng,
    batch: Vec<GeneratedRequest>,
    waiting: u64,
    measured: u64,
    counts: Counts,
    totals: SimTotals,
    samples: Vec<PlanSample>,
}

impl BatchWorld {
    fn launched_units(&self) -> u64 {
        self.station
            .flight_ledger()
            .map_or(0, |l| l.stats().units_launched)
    }

    fn check(&mut self, out: &RoundOutcome, launched_before: u64) -> Result<(), String> {
        // In flight mode the budget bounds what a round launches; the
        // instant path launches and lands in the same round.
        let spent = if self.inputs.bandwidth.is_some() {
            self.launched_units() - launched_before
        } else {
            out.units_downloaded
        };
        // Requests parked on a transfer are answered in a later round.
        let pending = self.waiting + self.batch.len() as u64;
        self.waiting = out.still_waiting as u64;
        check_round(out, spent, self.inputs.budget, pending)
    }
}

impl World for BatchWorld {
    type Inputs = BatchInputs;

    fn inputs(workload: Workload, seed: u64, scale: Scale) -> BatchInputs {
        const KIB: u64 = 1024;
        // (objects, sizes, requests, budget, updates, bandwidth, plan checks)
        let (objects, sizes, requests, budget, updates, bandwidth, plan_checks) =
            match (workload, scale) {
                (Workload::ByteCatalog, Scale::Full) => (
                    400,
                    (KIB, 64 * KIB),
                    3000,
                    1024 * KIB,
                    200,
                    None,
                    vec![5, 30, 55],
                ),
                (Workload::ByteCatalog, Scale::Tiny) => {
                    (40, (KIB, 8 * KIB), 200, 64 * KIB, 20, None, vec![1, 6])
                }
                (_, Scale::Full) => (500, (1, 20), 5000, 500, 100, Some(250), vec![]),
                (_, Scale::Tiny) => (50, (1, 20), 200, 50, 10, Some(25), vec![]),
            };
        BatchInputs {
            seed,
            sizes: catalog_sizes(workload.name(), objects, sizes.0, sizes.1),
            popularity: Popularity::ZIPF1.build(objects),
            requests,
            budget,
            updates,
            bandwidth,
            plan_checks,
        }
    }

    fn build(inputs: &BatchInputs, traced: bool, log: &mut SpanLog) -> Self {
        let warmup = RngStreams::new(REFERENCE_SEED);
        let station = log.span("station.build", None, || {
            let mut builder = StationBuilder::new(Catalog::from_sizes(&inputs.sizes))
                .on_demand(OnDemandPlanner::paper_default(), inputs.budget);
            let mut monitor = InvariantMonitor::new();
            if let Some(bw) = inputs.bandwidth {
                builder = builder.in_flight(InFlightConfig::coalescing(bw));
                monitor = monitor.with_budget(inputs.budget);
            }
            if traced {
                builder = builder.recorder(Box::new(probe::probe(monitor)));
            }
            builder.build().expect("valid station configuration")
        });
        Self {
            inputs: inputs.clone(),
            station,
            traced,
            requests_rng: warmup.stream("requests"),
            updates_rng: warmup.stream("updates"),
            batch: Vec::with_capacity(inputs.requests),
            waiting: 0,
            measured: 0,
            counts: Counts::default(),
            totals: SimTotals::default(),
            samples: Vec::new(),
        }
    }

    fn prepare(&mut self, log: &mut SpanLog) {
        log.span("origin.apply_update", None, || {
            apply_updates(
                &mut self.station,
                &mut self.updates_rng,
                self.inputs.updates,
            )
        });
        log.span("workload.batch", None, || {
            fill_batch(
                &mut self.batch,
                &mut self.requests_rng,
                &self.inputs.popularity,
                self.inputs.requests,
                TARGET,
            )
        });
    }

    fn round(
        &mut self,
        log: &mut SpanLog,
        digest: Option<&mut Digest>,
    ) -> (u64, Result<(), String>) {
        let sample = digest.is_some() && self.inputs.plan_checks.contains(&self.measured);
        let recency = if sample {
            self.station.recency_vec()
        } else {
            Vec::new()
        };
        let launched_before = self.launched_units();

        let root = log.enter("round", None);
        let t0 = Instant::now();
        let step = log.enter("station.step", root);
        let out = self.station.step(&self.batch);
        log.exit(step);
        let host_ns = elapsed_ns(t0);
        log.exit(root);

        if sample {
            self.samples.push(PlanSample {
                round: self.measured,
                batch: self.batch.clone(),
                recency,
                downloads: self.station.last_downloaded().to_vec(),
            });
        }
        if let Some(d) = digest {
            d.outcome(&out);
        }
        let checked = self.check(&out, launched_before);
        self.measured += 1;
        self.counts.rounds += 1;
        self.counts.outcome(&out);
        self.counts.waiting.push(out.still_waiting as f64);
        self.totals
            .outcome(out.served, out.average_score, out.units_downloaded);
        (host_ns, checked)
    }

    fn begin_measure(&mut self) {
        let streams = RngStreams::new(self.inputs.seed);
        self.requests_rng = streams.stream("requests");
        self.updates_rng = streams.stream("updates");
        self.station.reset_stats();
        self.measured = 0;
        self.counts = Counts::default();
        self.totals = SimTotals::default();
        if self.traced {
            probe::reset(probe::read(self.station.recorder()));
        }
    }

    fn totals(&self) -> SimTotals {
        let w = &self.station.stats().wait_ticks;
        SimTotals {
            wait_sum: w.mean().unwrap_or(0.0) * w.count() as f64,
            ..self.totals
        }
    }

    fn layers(&self) -> Vec<LayerValue> {
        let mut stages = StageTotals::default();
        stages.add(probe::read(self.station.recorder()));
        let mut layers = station_layers(&stages, &self.counts, self.station.cached_units());
        if self.inputs.bandwidth.is_some() {
            layers.extend(flight_layers(&self.counts, &stages));
        }
        layers
    }

    fn violations(&self) -> u64 {
        if self.traced {
            probe_violations(&self.station)
        } else {
            0
        }
    }

    /// Re-solve each sampled round's batch with the planner's default
    /// (adaptive) solver and with the exact capacity DP: values and
    /// download sets must agree, with each other and with what the
    /// station downloaded.
    fn final_checks(&mut self) -> Vec<String> {
        let catalog = self.station.catalog().clone();
        let adaptive = OnDemandPlanner::paper_default();
        let exact = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
        let mut failures = Vec::new();
        for s in self.samples.drain(..) {
            let batch = RequestBatch::from_generated(&s.batch);
            let a = adaptive.plan(&batch, &catalog, &s.recency, self.inputs.budget);
            let d = exact.plan(&batch, &catalog, &s.recency, self.inputs.budget);
            if a.achieved_value().to_bits() != d.achieved_value().to_bits()
                || a.downloads() != d.downloads()
            {
                failures.push(format!(
                    "measured round {}: planner value {} != exact DP value {}",
                    s.round,
                    a.achieved_value(),
                    d.achieved_value()
                ));
            } else if a.downloads() != s.downloads.as_slice() {
                failures.push(format!(
                    "measured round {}: station downloads differ from the planner's plan",
                    s.round
                ));
            }
        }
        failures
    }
}

/// Inputs of `massive_engine`.
#[derive(Debug)]
pub struct EngineInputs {
    seed: u64,
    sizes: Vec<u64>,
    workload: StandingWorkload,
    objects: Vec<ObjectId>,
    targets: Vec<f64>,
    shards: usize,
    churn: usize,
    updates: usize,
    budget: u64,
}

/// `massive_engine`: a quarter of a million standing requests in a
/// sharded [`RoundEngine`], churned a little each round. (At a million
/// requests the round is bound by main memory and, on a shared host,
/// swings by a quarter from run to run.)
#[derive(Debug)]
pub struct EngineWorld {
    station: BaseStationSim,
    engine: RoundEngine,
    traced: bool,
    seed: u64,
    workload: StandingWorkload,
    churn: usize,
    updates: usize,
    budget: u64,
    churn_rng: StreamRng,
    updates_rng: StreamRng,
    ops: Vec<ChurnOp>,
    counts: Counts,
    totals: SimTotals,
    ingest_ns: u64,
    dirty: u64,
    rescored: u64,
    resident: u64,
}

impl World for EngineWorld {
    type Inputs = EngineInputs;

    fn inputs(_: Workload, seed: u64, scale: Scale) -> EngineInputs {
        let (objects, requests, shards, churn, updates, budget) = match scale {
            Scale::Full => (25_000, 250_000, 16, 125, 25, 500),
            Scale::Tiny => (2_000, 20_000, 4, 10, 5, 200),
        };
        let workload = StandingWorkload::new(
            Popularity::ZIPF1.build(objects),
            requests,
            TargetRecency::Uniform { lo: 0.3, hi: 1.0 },
        );
        let (ids, targets) =
            workload.generate_columns(&mut RngStreams::new(seed).stream("population"));
        EngineInputs {
            seed,
            sizes: catalog_sizes(Workload::MassiveEngine.name(), objects, 1, 8),
            workload,
            objects: ids,
            targets,
            shards,
            churn,
            updates,
            budget,
        }
    }

    fn build(inputs: &EngineInputs, traced: bool, log: &mut SpanLog) -> Self {
        let warmup = RngStreams::new(REFERENCE_SEED);
        let catalog = Catalog::from_sizes(&inputs.sizes);
        let mut builder = StationBuilder::new(catalog.clone())
            .on_demand(OnDemandPlanner::paper_default(), inputs.budget);
        if traced {
            builder = builder.recorder(Box::new(probe::probe(InvariantMonitor::new())));
        }
        let mut station = log.span("station.build", None, || {
            builder.build().expect("valid station configuration")
        });
        let mut engine = log.span("engine.new", None, || {
            RoundEngine::new(&catalog, ScoringFunction::InverseRatio).with_shards(inputs.shards)
        });
        log.span("engine.push_columns", None, || {
            engine.push_columns(&inputs.objects, &inputs.targets)
        });
        // Fill the cache in one round with room for every object: the
        // warm-up rounds then start from a loaded cache instead of
        // spending ~200 solve-heavy rounds filling it at the budget.
        log.span("station.step_engine", None, || {
            station.set_download_budget(catalog.total_size());
            station.step_engine(&mut engine);
            station.set_download_budget(inputs.budget);
        });
        Self {
            station,
            engine,
            traced,
            seed: inputs.seed,
            workload: inputs.workload.clone(),
            churn: inputs.churn,
            updates: inputs.updates,
            budget: inputs.budget,
            churn_rng: warmup.stream("churn"),
            updates_rng: warmup.stream("updates"),
            ops: Vec::with_capacity(inputs.churn),
            counts: Counts::default(),
            totals: SimTotals::default(),
            ingest_ns: 0,
            dirty: 0,
            rescored: 0,
            resident: 0,
        }
    }

    fn prepare(&mut self, log: &mut SpanLog) {
        log.span("origin.apply_update", None, || {
            apply_updates(&mut self.station, &mut self.updates_rng, self.updates)
        });
        log.span("workload.churn", None, || {
            self.workload
                .churn_into(self.churn, &mut self.churn_rng, &mut self.ops)
        });
    }

    fn round(
        &mut self,
        log: &mut SpanLog,
        digest: Option<&mut Digest>,
    ) -> (u64, Result<(), String>) {
        let root = log.enter("round", None);
        let t0 = Instant::now();
        let ingest = log.enter("engine.retarget", root);
        for op in &self.ops {
            self.engine.retarget(op.object, op.slot_seed, op.target);
        }
        log.exit(ingest);
        let ingest_ns = elapsed_ns(t0);
        let step = log.enter("station.step_engine", root);
        let out = self.station.step_engine(&mut self.engine);
        log.exit(step);
        let host_ns = elapsed_ns(t0);
        log.exit(root);

        if let Some(d) = digest {
            d.outcome(&out);
        }
        self.counts.rounds += 1;
        self.counts.outcome(&out);
        self.totals
            .outcome(out.served, out.average_score, out.units_downloaded);
        self.ingest_ns += ingest_ns;
        self.dirty += self.engine.dirty_objects();
        self.rescored += self.engine.rescored_requests();
        self.resident += self.engine.total_requests();

        // Every standing request is answered every round.
        let checked = check_round(
            &out,
            out.units_downloaded,
            self.budget,
            self.engine.total_requests(),
        );
        (host_ns, checked)
    }

    fn begin_measure(&mut self) {
        let streams = RngStreams::new(self.seed);
        self.churn_rng = streams.stream("churn");
        self.updates_rng = streams.stream("updates");
        self.station.reset_stats();
        self.counts = Counts::default();
        self.totals = SimTotals::default();
        self.ingest_ns = 0;
        self.dirty = 0;
        self.rescored = 0;
        self.resident = 0;
        if self.traced {
            probe::reset(probe::read(self.station.recorder()));
        }
    }

    fn totals(&self) -> SimTotals {
        self.totals
    }

    fn layers(&self) -> Vec<LayerValue> {
        let mut stages = StageTotals::default();
        stages.add(probe::read(self.station.recorder()));
        let mut layers = station_layers(&stages, &self.counts, self.station.cached_units());
        let rounds = self.counts.rounds.max(1) as f64;
        layers.extend([
            ("engine.ingest_ms", self.ingest_ns as f64 / rounds / 1e6),
            ("engine.dirty_objects", self.dirty as f64 / rounds),
            ("engine.rescored_requests", self.rescored as f64 / rounds),
            (
                "engine.rescore_share",
                self.rescored as f64 / self.resident.max(1) as f64,
            ),
        ]);
        layers
    }

    fn violations(&self) -> u64 {
        if self.traced {
            probe_violations(&self.station)
        } else {
            0
        }
    }
}

/// Inputs of `cluster_l2`.
#[derive(Debug, Clone)]
pub struct ClusterInputs {
    seed: u64,
    scenario: RoamingScenario,
    backhaul: u64,
}

/// Rounds between cluster-wide update waves.
const WAVE_EVERY: u64 = 5;

/// `cluster_l2`: roaming clients over sixteen cells, a shared backhaul
/// and the regional L2 tier.
#[derive(Debug)]
pub struct ClusterWorld {
    cluster: ClusterSim,
    traced: bool,
    counts: Counts,
    totals: SimTotals,
    step_ns: u64,
    handoffs: u64,
    granted: u64,
    demanded: u64,
    /// L2 cumulative totals at the end of warm-up:
    /// `[transfers, units, invalidations, denied]` and the tier serves.
    l2_base: ([u64; 4], [u64; 3]),
}

impl ClusterWorld {
    fn l2_now(&self) -> ([u64; 4], [u64; 3]) {
        let l2 = self.cluster.l2().expect("the L2 tier is enabled");
        (
            [l2.transfers(), l2.units(), l2.invalidations(), l2.denied()],
            l2.tier_totals(),
        )
    }

    fn stations(&self) -> impl Iterator<Item = &BaseStationSim> + '_ {
        (0..self.cluster.cells() as u32).map(|i| self.cluster.station(CellId(i)))
    }
}

impl World for ClusterWorld {
    type Inputs = ClusterInputs;

    fn inputs(_: Workload, seed: u64, scale: Scale) -> ClusterInputs {
        let (cells, clients, objects, backhaul) = match scale {
            Scale::Full => (16, 1600, 300, 960),
            Scale::Tiny => (4, 80, 40, 48),
        };
        ClusterInputs {
            seed,
            scenario: RoamingScenario {
                cells,
                clients,
                objects,
                requests_per_client: 2,
                move_prob: 0.2,
            },
            backhaul,
        }
    }

    fn build(inputs: &ClusterInputs, traced: bool, log: &mut SpanLog) -> Self {
        let sizes: Vec<u64> = (0..inputs.scenario.objects as u64)
            .map(|i| 1 + i % 5)
            .collect();
        let cluster = log.span("cluster.build", None, || {
            let stations = (0..inputs.scenario.cells)
                .map(|_| {
                    let mut builder = StationBuilder::new(Catalog::from_sizes(&sizes))
                        .on_demand(OnDemandPlanner::paper_default(), 0);
                    if traced {
                        builder = builder.recorder(Box::new(probe::probe(InvariantMonitor::new())));
                    }
                    builder.build().expect("valid station configuration")
                })
                .collect();
            // The roaming population draws its batches inside
            // `ClusterSim::step`, so warm-up and measured traffic share
            // this seeded stream.
            let workload = inputs.scenario.build(&RngStreams::new(inputs.seed));
            let cluster = ClusterSim::new(
                stations,
                workload,
                BackhaulArbiter::new(ArbiterPolicy::ProportionalToDemand, inputs.backhaul),
            )
            .expect("one station per cell")
            .with_l2(L2Config {
                intercell_units_per_round: 2 * inputs.backhaul,
                ..L2Config::default()
            });
            if traced {
                cluster.with_recorder(Box::new(probe::probe(
                    InvariantMonitor::new().region_single_flight(),
                )))
            } else {
                cluster
            }
        });
        Self {
            cluster,
            traced,
            counts: Counts::default(),
            totals: SimTotals::default(),
            step_ns: 0,
            handoffs: 0,
            granted: 0,
            demanded: 0,
            l2_base: ([0; 4], [0; 3]),
        }
    }

    fn prepare(&mut self, log: &mut SpanLog) {
        // The paper's update waves land before the round of their tick.
        let tick = self.cluster.tick();
        if tick > 0 && tick.is_multiple_of(WAVE_EVERY) {
            log.span("origin.apply_update_wave", None, || {
                self.cluster.apply_update_wave()
            });
        }
    }

    fn round(
        &mut self,
        log: &mut SpanLog,
        digest: Option<&mut Digest>,
    ) -> (u64, Result<(), String>) {
        let root = log.enter("round", None);
        let t0 = Instant::now();
        let step = log.enter("cluster.step", root);
        let out = self.cluster.step();
        log.exit(step);
        let host_ns = elapsed_ns(t0);
        log.exit(root);

        let cells = self.cluster.last_outcomes();
        if let Some(d) = digest {
            d.word(out.tick);
            d.word(out.handoffs);
            d.word(out.demand_units);
            d.word(out.budget_units);
            d.word(out.l2_transfers);
            d.word(out.l2_units);
            for o in cells {
                d.outcome(o);
            }
        }
        self.counts.rounds += 1;
        for o in cells {
            self.counts.outcome(o);
        }
        self.totals
            .outcome(out.served, out.average_score, out.units_downloaded);
        self.step_ns += host_ns;
        self.handoffs += out.handoffs;
        self.granted += out.budget_units;
        self.demanded += out.demand_units;

        let budgets = self.cluster.last_budgets();
        let checked = cells
            .iter()
            .zip(budgets)
            .enumerate()
            .try_for_each(|(i, (o, &grant))| {
                let issued = self.cluster.workload().batch(CellId(i as u32)).len();
                check_round(o, o.units_downloaded, grant, issued as u64)
                    .map_err(|e| format!("cell {i}: {e}"))
            })
            .and_then(|()| {
                let granted: u64 = budgets.iter().sum();
                let backhaul = self.cluster.arbiter().total_budget();
                if granted > backhaul {
                    Err(format!(
                        "round {}: granted {granted} of a {backhaul}-unit backhaul",
                        out.tick
                    ))
                } else {
                    Ok(())
                }
            });
        (host_ns, checked)
    }

    fn begin_measure(&mut self) {
        self.counts = Counts::default();
        self.totals = SimTotals::default();
        self.step_ns = 0;
        self.handoffs = 0;
        self.granted = 0;
        self.demanded = 0;
        self.l2_base = self.l2_now();
        if self.traced {
            probe::reset(probe::read(self.cluster.recorder()));
            for s in self.stations() {
                probe::reset(probe::read(s.recorder()));
            }
        }
    }

    fn totals(&self) -> SimTotals {
        self.totals
    }

    fn layers(&self) -> Vec<LayerValue> {
        let mut stages = StageTotals::default();
        for s in self.stations() {
            stages.add(probe::read(s.recorder()));
        }
        let cached: u64 = self.stations().map(BaseStationSim::cached_units).sum();
        let mut layers = station_layers(&stages, &self.counts, cached);
        let rounds = self.counts.rounds.max(1) as f64;
        let (now, tiers) = self.l2_now();
        let (base, base_tiers) = self.l2_base;
        let delta = |i: usize| (now[i] - base[i]) as f64 / rounds;
        let served: u64 = tiers.iter().zip(&base_tiers).map(|(a, b)| a - b).sum();
        layers.extend([
            ("cluster.step_ms", self.step_ns as f64 / rounds / 1e6),
            ("cluster.handoffs", self.handoffs as f64 / rounds),
            (
                "backhaul.grant_ratio",
                self.granted as f64 / self.demanded.max(1) as f64,
            ),
            ("l2.transfers", delta(0)),
            ("l2.units", delta(1)),
            ("l2.invalidations", delta(2)),
            ("l2.denied", delta(3)),
            (
                "l2.serve_share",
                (tiers[1] - base_tiers[1]) as f64 / served.max(1) as f64,
            ),
        ]);
        layers
    }

    fn violations(&self) -> u64 {
        if !self.traced {
            return 0;
        }
        let cells: u64 = self.stations().map(probe_violations).sum();
        cells
            + probe::read(self.cluster.recorder())
                .right
                .left
                .total_violations()
    }
}
