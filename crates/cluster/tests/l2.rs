//! The regional L2 tier's observable guarantees:
//!
//! 1. Under Markov-ring roaming with overlapping demand, enabling L2
//!    cuts origin (backhaul) bandwidth substantially — neighbors ride
//!    the inter-cell backbone instead of re-paying origin — and the
//!    armed invariant monitor confirms the region-wide single-flight
//!    invariant (an object is origin-fetched at most once per version
//!    per region) on the whole run.
//! 2. With L2 disabled, no L2 channel appears in the cluster snapshot
//!    at all (absent, not zero) — the recording path is byte-identical
//!    to the pre-L2 cluster, complementing `tests/parity.rs` which pins
//!    the simulation path itself.
//! 3. Demand declaration subtracts per-station committed in-flight
//!    units: zero in-flight (instant transfers) declares bit-identical
//!    demands to plain stations, and a finite-bandwidth backlog shrinks
//!    the declaration by exactly the committed units.

use basecache_cluster::{run_rounds, ClusterSim, DriveConfig, L2Config};
use basecache_core::planner::{OnDemandPlanner, SolverChoice};
use basecache_core::recency::ScoringFunction;
use basecache_core::{BaseStationSim, StationBuilder};
use basecache_net::{ArbiterPolicy, BackhaulArbiter, Catalog, CellId, InFlightConfig};
use basecache_obs::{Event, FlightRecorder, InvariantMonitor};
use basecache_sim::RngStreams;
use basecache_workload::{ClusterWorkload, MobilityModel, Popularity, TargetRecency};

const OBJECTS: usize = 60;

fn catalog() -> Catalog {
    let sizes: Vec<u64> = (0..OBJECTS as u64).map(|i| 1 + i % 5).collect();
    Catalog::from_sizes(&sizes)
}

fn station(flight: Option<InFlightConfig>) -> BaseStationSim {
    let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
    let mut builder = StationBuilder::new(catalog()).on_demand(planner, 0);
    if let Some(config) = flight {
        builder = builder.in_flight(config);
    }
    builder.build().expect("valid configuration")
}

fn roaming_workload(cells: u32, seed: u64) -> ClusterWorkload {
    ClusterWorkload::new(
        cells,
        25 * cells,
        Popularity::Uniform,
        Popularity::ZIPF1.build(OBJECTS),
        TargetRecency::Uniform { lo: 0.4, hi: 1.0 },
        2,
        MobilityModel::MarkovRing { move_prob: 0.2 },
        &RngStreams::new(seed),
    )
}

fn cluster(cells: u32, seed: u64, budget: u64, flight: Option<InFlightConfig>) -> ClusterSim {
    let stations: Vec<BaseStationSim> = (0..cells).map(|_| station(flight)).collect();
    ClusterSim::new(
        stations,
        roaming_workload(cells, seed),
        BackhaulArbiter::new(ArbiterPolicy::ProportionalToDemand, budget),
    )
    .expect("cell counts match")
}

const DRIVE: DriveConfig = DriveConfig {
    rounds: 40,
    wave_every: Some(5),
};

#[test]
fn l2_saves_origin_bandwidth_and_keeps_region_single_flight() {
    let mut off = cluster(8, 99, 400, None);
    let mut on = cluster(8, 99, 400, None)
        .with_l2(L2Config {
            intercell_units_per_round: 400,
            ..L2Config::default()
        })
        .with_recorder(Box::new(InvariantMonitor::new().region_single_flight()));

    let off_rounds = run_rounds(&mut off, DRIVE);
    let on_rounds = run_rounds(&mut on, DRIVE);

    let off_units: u64 = off_rounds.iter().map(|r| r.units_downloaded).sum();
    let on_units: u64 = on_rounds.iter().map(|r| r.units_downloaded).sum();
    assert!(off_units > 0, "baseline must actually download");
    let savings = 1.0 - on_units as f64 / off_units as f64;
    assert!(
        savings >= 0.20,
        "origin bandwidth savings {savings:.3} below the 20% bar \
         (off {off_units}, on {on_units})"
    );

    let l2 = on.l2().expect("tier enabled");
    assert!(l2.transfers() > 0, "the backbone carried copies");
    assert!(l2.units() > 0);
    let tiers = l2.tier_totals();
    assert!(tiers[1] > 0, "some serves attributed to L2: {tiers:?}");
    let served: u64 = on_rounds.iter().map(|r| r.served as u64).sum();
    assert_eq!(tiers.iter().sum::<u64>(), served, "every serve has a tier");
    let transfers: u64 = on_rounds.iter().map(|r| r.l2_transfers).sum();
    assert_eq!(transfers, l2.transfers(), "per-round counts reconcile");

    // The online monitor watched every origin fetch of the run: no
    // (object, version) was ever origin-fetched twice in the region.
    let monitor = on
        .recorder()
        .as_any()
        .downcast_ref::<InvariantMonitor>()
        .expect("monitor installed");
    assert_eq!(
        monitor.count(Event::RegionSingleFlightViolations),
        0,
        "region single-flight violated; offenders: {:?}",
        monitor.offenders()
    );
    assert!(monitor.is_clean(), "no other invariant tripped either");
}

#[test]
fn quality_of_service_does_not_regress_with_l2() {
    // Cheaper bandwidth must not come at the price of staler serves:
    // the L2 tier only installs copies at least as fresh as the local
    // one, so the aggregate score stays at least the baseline's.
    let mut off = cluster(8, 99, 400, None);
    let mut on = cluster(8, 99, 400, None).with_l2(L2Config {
        intercell_units_per_round: 400,
        ..L2Config::default()
    });
    let off_rounds = run_rounds(&mut off, DRIVE);
    let on_rounds = run_rounds(&mut on, DRIVE);
    let mean = |rounds: &[basecache_cluster::ClusterStepOutcome]| {
        let served: u64 = rounds.iter().map(|r| r.served as u64).sum();
        let weighted: f64 = rounds
            .iter()
            .map(|r| r.average_score * r.served as f64)
            .sum();
        weighted / served as f64
    };
    let off_score = mean(&off_rounds);
    let on_score = mean(&on_rounds);
    assert!(
        on_score >= off_score - 0.02,
        "L2 degraded quality: off {off_score:.4}, on {on_score:.4}"
    );
}

#[test]
fn disabled_l2_records_no_l2_channels() {
    let mut off = cluster(4, 7, 200, None).with_recorder(Box::new(FlightRecorder::new(512, 64, 8)));
    run_rounds(&mut off, DRIVE);
    let snapshot = off.obs_snapshot();
    for counter in &snapshot.counters {
        assert!(
            !counter.name.starts_with("l2_"),
            "L2-off run recorded {}",
            counter.name
        );
    }
    assert!(
        snapshot.attrs.iter().all(|a| a.channel != "serves_by_tier"),
        "L2-off run attributed tiers"
    );
    assert!(off.l2().is_none());
    assert!(off.last_outcomes().iter().all(|_| true));
}

#[test]
fn enabled_l2_records_transfers_and_tier_attribution() {
    let mut on = cluster(8, 99, 400, None)
        .with_l2(L2Config::default())
        .with_recorder(Box::new(FlightRecorder::new(512, 64, 8)));
    run_rounds(&mut on, DRIVE);
    let snapshot = on.obs_snapshot();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    };
    let l2 = on.l2().expect("tier enabled");
    assert_eq!(counter("l2_transfers"), Some(l2.transfers()));
    assert_eq!(counter("l2_units"), Some(l2.units()));

    let tiers: Vec<_> = snapshot
        .attrs
        .iter()
        .filter(|a| a.channel == "serves_by_tier")
        .collect();
    assert!(!tiers.is_empty(), "tier attribution channel populated");
    let weight_of = |label: &str| {
        tiers
            .iter()
            .find(|a| a.label == label)
            .map_or(0, |a| a.weight)
    };
    let totals = l2.tier_totals();
    // Three keys against top-8 tracking: counts are exact.
    assert_eq!(weight_of("tier#0"), totals[0]);
    assert_eq!(weight_of("tier#1"), totals[1]);
    assert_eq!(weight_of("tier#2"), totals[2]);
    assert!(tiers.iter().all(|a| a.error == 0), "exact, not estimated");
}

#[test]
fn instant_flight_declares_bit_identical_demands_to_plain_stations() {
    // Satellite degenerate case: with nothing ever in flight (instant
    // transfers commit zero units), the new committed-units subtraction
    // must be a no-op — declarations, allocations and outcomes are
    // bit-identical to plain stations.
    let mut plain = cluster(4, 21, 200, None);
    let mut instant = cluster(4, 21, 200, Some(InFlightConfig::coalescing(0)));
    for tick in 0..30 {
        if tick > 0 && tick % 5 == 0 {
            plain.apply_update_wave();
            instant.apply_update_wave();
        }
        let a = plain.step();
        let b = instant.step();
        assert_eq!(plain.last_demands(), instant.last_demands(), "tick {tick}");
        assert_eq!(plain.last_budgets(), instant.last_budgets(), "tick {tick}");
        assert_eq!(a, b, "tick {tick}: outcomes diverge");
        for i in 0..4 {
            let station = instant.station(CellId(i));
            assert_eq!(station.committed_units(), 0, "instant commits nothing");
        }
    }
}

#[test]
fn committed_in_flight_units_shrink_the_declared_demand() {
    // One cell, one client, one object of size 10 on a 2-units/round
    // link. Round 0 declares the full 10; while the transfer drains
    // (rounds 1..5) the same stale object is re-requested, but 2 units
    // per round are already committed on the wire — the declaration
    // must be 8, not 10.
    let catalog = Catalog::from_sizes(&[10]);
    let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
    let station = StationBuilder::new(catalog)
        .on_demand(planner, 0)
        .in_flight(InFlightConfig::coalescing(2))
        .build()
        .expect("valid configuration");
    let workload = ClusterWorkload::new(
        1,
        1,
        Popularity::Uniform,
        Popularity::Uniform.build(1),
        TargetRecency::AlwaysFresh,
        2,
        MobilityModel::Stationary,
        &RngStreams::new(5),
    );
    let mut sim = ClusterSim::new(
        vec![station],
        workload,
        BackhaulArbiter::new(ArbiterPolicy::Static, 100),
    )
    .expect("one station, one cell");

    sim.step();
    assert_eq!(sim.last_demands(), &[10], "round 0: nothing committed yet");
    for round in 1..5u64 {
        sim.step();
        assert_eq!(
            sim.last_demands(),
            &[8],
            "round {round}: 2 committed units subtracted from the stale 10"
        );
    }
    // Round 5: the wire is clear again (nothing committed any more) but
    // the arrival is only processed inside this round's step, so the
    // still-stale object declares in full one last time.
    sim.step();
    assert_eq!(sim.last_demands(), &[10], "drained wire commits nothing");
    // Round 6: the copy arrived fresh, demand is zero.
    sim.step();
    assert_eq!(sim.last_demands(), &[0], "arrived copy quenches demand");
}
