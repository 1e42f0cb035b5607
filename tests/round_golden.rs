//! Golden digests of the base stations' round behaviour.
//!
//! Every scenario drives one station over a fixed, seeded script and
//! folds everything the round produces into a 64-bit FNV-1a digest: the
//! raw bits of each round's `RoundOutcome`, the `last_downloaded()` list
//! after each round, the final `StationStats` and the `FlightRecorder`
//! round series. The pinned values were recorded from the station's
//! round code and hold any rewrite of it to the same behaviour, bit for
//! bit — the last mantissa bit of a score fails the comparison.
//!
//! The matrix covers every policy on request batches, the recency
//! estimators, L2 plan exclusions, multi-round transfers (coalescing and
//! naive) and standing-population engine rounds. Instant in-flight
//! ledgers (`bandwidth_per_round == 0`) pin the same digest as a station
//! built without `in_flight`: the paper's same-round download model is
//! the zero-duration case of the ledger.
//!
//! The latency-aware station (`LatencyAwareSim`) is pinned the same way
//! over private and shared fixed networks: its outcomes, final
//! `LatencyStats`, link and downlink counters, a `StatsRecorder`
//! snapshot (counters and samples, including the wait decomposition)
//! and the lifecycle spans it emitted.

use basecache::core::engine::RoundEngine;
use basecache::core::estimator::{ReportEstimator, TtlEstimator};
use basecache::core::planner::{OnDemandPlanner, SolverChoice};
use basecache::core::recency::{DecayModel, ScoringFunction};
use basecache::core::{BaseStationSim, LatencyAwareSim, Policy, RoundOutcome, StationBuilder};
use basecache::net::{Catalog, Downlink, InFlightConfig, Link, ObjectId, ReportLog, SharedLink};
use basecache::obs::{FlightRecorder, LifecycleRecorder, Recorder, StatsRecorder, Tee};
use basecache::sim::{RngStreams, SimDuration, SimTime, StreamRng};
use basecache::workload::GeneratedRequest;

const OBJECTS: usize = 32;
const BUDGET: u64 = 12;
const ROUNDS: u64 = 40;

/// 64-bit FNV-1a over little-endian words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: &[u64]) {
        self.word(ws.len() as u64);
        for &w in ws {
            self.word(w);
        }
    }

    fn outcome(&mut self, o: &RoundOutcome) {
        self.words(&[
            o.tick,
            o.objects_downloaded as u64,
            o.units_downloaded,
            o.average_recency.to_bits(),
            o.average_score.to_bits(),
            o.served as u64,
            o.cache_hits as u64,
            o.arrived as u64,
            o.launched as u64,
            o.joined as u64,
            o.served_immediately as u64,
            o.served_after_wait as u64,
            o.still_waiting as u64,
        ]);
    }

    fn downloaded(&mut self, ids: &[ObjectId]) {
        let ids: Vec<u64> = ids.iter().map(|id| u64::from(id.0)).collect();
        self.words(&ids);
    }

    /// The final station state: stats (their `Debug` form prints every
    /// float in its shortest round-trip representation, so it is exact)
    /// and the flight recorder's per-round series as raw bits.
    fn station(&mut self, station: &BaseStationSim) {
        for byte in format!("{:?}", station.stats()).bytes() {
            self.word(u64::from(byte));
        }
        let rows = station
            .recorder()
            .as_any()
            .downcast_ref::<FlightRecorder>()
            .expect("a FlightRecorder was installed")
            .series()
            .rows();
        self.word(rows.len() as u64);
        for r in rows {
            self.words(&[
                r.tick,
                r.batch_size.to_bits(),
                r.mean_score.to_bits(),
                r.hit_ratio.to_bits(),
                r.downlink_util.to_bits(),
                r.units_fetched,
                r.plan_profit.to_bits(),
                r.profit_bound.to_bits(),
            ]);
        }
    }
}

/// The recorder a latency-aware script installs on each station.
type LatencyRecorder = Tee<StatsRecorder, LifecycleRecorder>;

impl Digest {
    fn bytes(&mut self, text: &str) {
        for byte in text.bytes() {
            self.word(u64::from(byte));
        }
    }

    /// A latency-aware station's final state: its stats (exact through
    /// their `Debug` form), downlink counters, the recorder's counters
    /// and samples (span timings are wall-clock, so only their counts)
    /// and every lifecycle span.
    fn latency_station(&mut self, sim: &LatencyAwareSim) {
        self.bytes(&format!("{:?}", sim.stats()));
        let downlink = sim.downlink();
        self.words(&[
            downlink.deliveries(),
            downlink.delivered_units(),
            downlink.idle_ticks(),
        ]);
        sim.observe_infrastructure();
        let recorder = sim
            .recorder()
            .as_any()
            .downcast_ref::<LatencyRecorder>()
            .expect("a stats + lifecycle tee was installed");
        let snap = recorder.left.snapshot();
        for c in &snap.counters {
            self.bytes(c.name);
            self.word(c.value);
        }
        for s in &snap.samples {
            self.bytes(s.name);
            self.words(&[
                s.count,
                s.mean.to_bits(),
                s.std_dev.to_bits(),
                s.min.to_bits(),
                s.max.to_bits(),
                s.p95.to_bits(),
            ]);
        }
        for sp in &snap.spans {
            self.bytes(sp.name);
            self.word(sp.count);
        }
        let spans = recorder.right.spans();
        self.word(spans.len() as u64);
        self.word(recorder.right.dropped());
        for s in spans {
            self.words(&[
                u64::from(s.object),
                s.version,
                s.opened_tick,
                s.launch_tick,
                s.arrived_tick,
                s.last_tick,
                u64::from(s.joined),
                u64::from(s.served),
                u64::from(s.stale),
                u64::from(s.open),
                s.seq,
            ]);
        }
    }
}

fn catalog() -> Catalog {
    let sizes: Vec<u64> = (0..OBJECTS as u64).map(|i| 1 + i % 4).collect();
    Catalog::from_sizes(&sizes)
}

fn exact() -> OnDemandPlanner {
    OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp)
}

fn on_demand(planner: OnDemandPlanner) -> Policy {
    Policy::OnDemand {
        planner,
        budget_units: BUDGET,
    }
}

fn arb_batch(rng: &mut StreamRng) -> Vec<GeneratedRequest> {
    let n = rng.random_range(0..=14u32);
    (0..n)
        .map(|_| GeneratedRequest {
            object: ObjectId(rng.random_range(0..OBJECTS as u32)),
            target_recency: rng.random_range(0.05f64..=1.0),
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq)]
enum Planning {
    Oracle,
    Ttl,
    Reports,
}

/// One batch-round script.
#[derive(Clone, Copy)]
struct Batch {
    policy: Policy,
    flight: Option<InFlightConfig>,
    planning: Planning,
    /// Exclude a rotating pair of objects from origin fetching on every
    /// other round (the regional L2 tier's hook).
    exclusions: bool,
}

impl Batch {
    fn new(policy: Policy) -> Self {
        Self {
            policy,
            flight: None,
            planning: Planning::Oracle,
            exclusions: false,
        }
    }

    fn flight(self, config: InFlightConfig) -> Self {
        Self {
            flight: Some(config),
            ..self
        }
    }

    fn planning(self, planning: Planning) -> Self {
        Self { planning, ..self }
    }

    fn exclusions(self) -> Self {
        Self {
            exclusions: true,
            ..self
        }
    }

    fn run(self, seed: u64) -> u64 {
        let mut builder = StationBuilder::new(catalog())
            .policy(self.policy)
            .recorder(Box::new(FlightRecorder::new(512, 64, 8)));
        if let Some(config) = self.flight {
            builder = builder.in_flight(config);
        }
        builder = match self.planning {
            Planning::Oracle => builder,
            Planning::Ttl => {
                builder.estimator(Box::new(TtlEstimator::new(4, DecayModel::default())))
            }
            Planning::Reports => builder.estimator(Box::new(ReportEstimator::new(
                OBJECTS,
                DecayModel::default(),
            ))),
        };
        let mut station = builder.build().expect("valid configuration");
        let mut log = ReportLog::new(station.catalog());
        let mut rng = RngStreams::new(seed).stream("golden/batch");
        let mut digest = Digest::new();
        for t in 0..ROUNDS {
            if t % 7 == 3 {
                station.apply_update_wave();
                log.record_wave();
            }
            if t % 5 == 1 {
                let o = ObjectId(rng.random_range(0..OBJECTS as u32));
                station.server_mut().apply_update(o, SimTime::from_ticks(t));
                log.record_update(o);
            }
            if self.planning == Planning::Reports && t % 2 == 0 {
                station.deliver_report(&log.cut_report(SimTime::from_ticks(t)));
            }
            if self.exclusions {
                if t % 2 == 0 {
                    let a = (t * 5 % OBJECTS as u64) as u32;
                    let b = (t * 11 % OBJECTS as u64) as u32;
                    station.set_plan_exclusions(&[ObjectId(a), ObjectId(b)]);
                } else {
                    station.clear_plan_exclusions();
                }
            }
            let batch = arb_batch(&mut rng);
            let outcome = station.step(&batch);
            digest.outcome(&outcome);
            digest.downloaded(station.last_downloaded());
        }
        digest.station(&station);
        digest.0
    }
}

/// An engine-round script: a standing population mutated between
/// rounds by pushes and retargets.
fn engine_run(flight: Option<InFlightConfig>, seed: u64) -> u64 {
    let mut builder = StationBuilder::new(catalog())
        .on_demand(OnDemandPlanner::paper_default(), BUDGET)
        .recorder(Box::new(FlightRecorder::new(512, 64, 8)));
    if let Some(config) = flight {
        builder = builder.in_flight(config);
    }
    let mut station = builder.build().expect("valid configuration");
    let mut engine = RoundEngine::new(station.catalog(), ScoringFunction::InverseRatio);
    for k in 0..160u32 {
        let target = [1.0, 0.7, 0.5, 0.3][k as usize % 4];
        engine.push_request(ObjectId(k * 11 % OBJECTS as u32), target);
    }
    let mut rng = RngStreams::new(seed).stream("golden/engine");
    let mut digest = Digest::new();
    for t in 0..ROUNDS {
        if t % 6 == 2 {
            station.apply_update_wave();
        }
        if t % 4 == 1 {
            let o = ObjectId(rng.random_range(0..OBJECTS as u32));
            station.server_mut().apply_update(o, SimTime::from_ticks(t));
        }
        let o = ObjectId(rng.random_range(0..OBJECTS as u32));
        engine.push_request(o, rng.random_range(0.05f64..=1.0));
        let o = ObjectId(rng.random_range(0..OBJECTS as u32));
        engine.retarget(o, t, rng.random_range(0.05f64..=1.0));
        let outcome = station.step_engine(&mut engine);
        digest.outcome(&outcome);
        digest.downloaded(station.last_downloaded());
    }
    digest.station(&station);
    digest.0
}

/// A latency-aware script: `stations` stations stepped in lockstep over
/// one fixed network of `bandwidth` units per tick and `latency` ticks,
/// each with its own downlink, server and request stream, under update
/// waves every few ticks. Ends with drain rounds of empty batches.
fn latency_run(bandwidth: u64, latency: u64, budget: u64, stations: usize, seed: u64) -> u64 {
    let fixed_net = SharedLink::new(Link::new(bandwidth, SimDuration::from_ticks(latency)));
    let mut sims: Vec<LatencyAwareSim> = (0..stations)
        .map(|_| {
            let recorder: LatencyRecorder =
                Tee::new(StatsRecorder::new(), LifecycleRecorder::new(16, 256));
            StationBuilder::new(catalog())
                .on_demand(exact(), budget)
                .recorder(Box::new(recorder))
                .build_latency_aware(fixed_net.clone(), Downlink::new(6, SimDuration::ZERO))
                .expect("valid latency configuration")
        })
        .collect();
    let streams = RngStreams::new(seed);
    let mut rngs: Vec<StreamRng> = (0..stations)
        .map(|i| streams.stream_indexed("golden/latency", i as u64))
        .collect();
    let mut digest = Digest::new();
    for t in 0..ROUNDS + 12 {
        for (sim, rng) in sims.iter_mut().zip(&mut rngs) {
            if t % 4 == 2 {
                sim.apply_update_wave();
            }
            if t % 5 == 1 {
                let o = ObjectId(rng.random_range(0..OBJECTS as u32));
                sim.server_mut().apply_update(o, SimTime::from_ticks(t));
            }
            let batch = if t < ROUNDS {
                arb_batch(rng)
            } else {
                Vec::new()
            };
            digest.outcome(&sim.step(&batch));
        }
    }
    {
        let link = fixed_net.lock();
        digest.words(&[link.bytes_sent(), link.transfers(), link.busy_ticks()]);
    }
    for sim in &sims {
        digest.latency_station(sim);
    }
    digest.0
}

const SEED: u64 = 41;

/// The on-demand batch digest: the exact DP, the adaptive solver (bit-
/// identical to it by contract) and both instant ledgers share it.
const ON_DEMAND: u64 = 0x7193_da0e_2158_a3df;

/// The engine-round digest, shared by both instant ledgers.
const ENGINE: u64 = 0x2c78_5352_25e1_3e0a;

#[test]
fn batch_rounds_match_their_golden_digests() {
    let adaptive_budget = Policy::OnDemandAdaptive {
        planner: exact(),
        max_budget: BUDGET,
        window: 2,
        threshold: 0.05,
    };
    let hybrid = Policy::Hybrid {
        planner: exact(),
        budget_units: BUDGET,
    };
    let plain = on_demand(exact());
    let cases: [(&str, Batch, u64); 16] = [
        ("on_demand/exact_dp", Batch::new(plain), ON_DEMAND),
        (
            "on_demand/exact_dp/instant_coalescing",
            Batch::new(plain).flight(InFlightConfig::coalescing(0)),
            ON_DEMAND,
        ),
        (
            "on_demand/exact_dp/instant_naive",
            Batch::new(plain).flight(InFlightConfig::naive(0)),
            ON_DEMAND,
        ),
        (
            "on_demand/adaptive_solver",
            Batch::new(on_demand(OnDemandPlanner::paper_default())),
            ON_DEMAND,
        ),
        (
            "lowest_recency",
            Batch::new(Policy::OnDemandLowestRecency { k_objects: 3 }),
            0x31f3_9578_3069_f403,
        ),
        (
            "async_round_robin",
            Batch::new(Policy::AsyncRoundRobin { k_objects: 3 }),
            0xbcc3_986e_5475_a93c,
        ),
        ("hybrid", Batch::new(hybrid), 0xdf59_0ec1_4d77_601e),
        (
            "on_demand_adaptive",
            Batch::new(adaptive_budget),
            0xb1ea_00d3_6bc1_0979,
        ),
        (
            "on_demand/ttl",
            Batch::new(plain).planning(Planning::Ttl),
            0x5623_7b8a_1425_9f1a,
        ),
        (
            "on_demand/reports",
            Batch::new(plain).planning(Planning::Reports),
            0x7cf4_528d_f634_242a,
        ),
        (
            "on_demand/exclusions",
            Batch::new(plain).exclusions(),
            0x1dcf_975a_f7e0_58ed,
        ),
        (
            "flight/coalescing",
            Batch::new(plain).flight(InFlightConfig::coalescing(2)),
            0x78ec_6b66_6a0e_df69,
        ),
        (
            "flight/naive",
            Batch::new(plain).flight(InFlightConfig::naive(2)),
            0x4eaf_5479_a90c_8bbe,
        ),
        (
            "flight/coalescing/ttl",
            Batch::new(plain)
                .flight(InFlightConfig::coalescing(3))
                .planning(Planning::Ttl),
            0x84d3_3dc6_8248_27af,
        ),
        (
            "flight/coalescing/exclusions",
            Batch::new(plain)
                .flight(InFlightConfig::coalescing(2))
                .exclusions(),
            0x0f09_764f_8b6a_8469,
        ),
        (
            "flight/adaptive_solver",
            Batch::new(on_demand(OnDemandPlanner::paper_default()))
                .flight(InFlightConfig::coalescing(4)),
            0xbb95_8c51_176c_c648,
        ),
    ];
    let mismatches: Vec<String> = cases
        .iter()
        .filter_map(|&(name, batch, want)| {
            let got = batch.run(SEED);
            (got != want).then(|| format!("{name}: got {got:#018x}, pinned {want:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn engine_rounds_match_their_golden_digests() {
    let cases: [(&str, Option<InFlightConfig>, u64); 5] = [
        ("engine", None, ENGINE),
        (
            "engine/instant_coalescing",
            Some(InFlightConfig::coalescing(0)),
            ENGINE,
        ),
        (
            "engine/instant_naive",
            Some(InFlightConfig::naive(0)),
            ENGINE,
        ),
        (
            "engine/flight/coalescing",
            Some(InFlightConfig::coalescing(3)),
            0xa3bf_9d4a_2944_834f,
        ),
        (
            "engine/flight/naive",
            Some(InFlightConfig::naive(3)),
            0xd4f4_cf53_8341_b4ac,
        ),
    ];
    let mismatches: Vec<String> = cases
        .iter()
        .filter_map(|&(name, flight, want)| {
            let got = engine_run(flight, SEED);
            (got != want).then(|| format!("{name}: got {got:#018x}, pinned {want:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn latency_aware_rounds_match_their_golden_digests() {
    // (name, bandwidth, latency, refresh budget, stations, digest)
    let cases: [(&str, u64, u64, u64, usize, u64); 4] = [
        (
            "latency/private/latency0",
            4,
            0,
            BUDGET,
            1,
            0xce71_eb21_5839_6e4a,
        ),
        (
            "latency/private/latency3",
            4,
            3,
            BUDGET,
            1,
            0x27c9_37ff_b70a_5e38,
        ),
        (
            "latency/private/bandwidth1",
            1,
            2,
            3,
            1,
            0x8f01_7342_e7ba_9327,
        ),
        ("latency/shared/lockstep", 5, 1, 6, 2, 0xad83_0dd0_5a1b_e1b9),
    ];
    let mismatches: Vec<String> = cases
        .iter()
        .filter_map(|&(name, bandwidth, latency, budget, stations, want)| {
            let got = latency_run(bandwidth, latency, budget, stations, SEED);
            (got != want).then(|| format!("{name}: got {got:#018x}, pinned {want:#018x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn instant_ledgers_replay_the_same_round_model_on_random_scripts() {
    // Across random scripts, a zero-bandwidth ledger (coalescing or
    // naive: nothing stays in flight across rounds, so there is nothing
    // to join or duplicate) replays a plain station bit for bit.
    let mut rng = RngStreams::new(0x601D).stream("golden/instant-scripts");
    for case in 0..6 {
        let seed = rng.next_u64();
        let plain = Batch::new(on_demand(exact()));
        let config = if case % 2 == 0 {
            InFlightConfig::coalescing(0)
        } else {
            InFlightConfig::naive(0)
        };
        assert_eq!(
            plain.run(seed),
            plain.flight(config).run(seed),
            "case {case}: batch"
        );
        assert_eq!(
            engine_run(None, seed),
            engine_run(Some(config), seed),
            "case {case}: engine"
        );
    }
}
