//! The time-stepped base-station simulation.
//!
//! [`BaseStationSim`] glues the substrates together exactly as the
//! paper's analyses do: a versioned [`RemoteServer`], the base-station
//! [`CacheStore`], a download policy, an [`InFlightLedger`] for the
//! fixed network, and per-tick client demand. Every simulated time unit
//! runs one staged round, whether the demand is a request batch
//! ([`BaseStationSim::step`]) or a [`RoundEngine`]'s standing population
//! ([`BaseStationSim::step_engine`]):
//!
//! 1. land the transfers due from earlier rounds, serving the requests
//!    parked on them;
//! 2. read the recency the planner sees;
//! 3. plan under the policy — the knapsack instance assembles from the
//!    batch or the engine, then both finish the same way (single-flight
//!    joiners and L2 exclusions leave it, committed bandwidth leaves the
//!    budget, far arrivals are amortized) before the solve;
//! 4. launch the downloads; an instant transfer lands at once;
//! 5. serve every request — per request for a batch, columnar for the
//!    engine — recording the recency and score delivered to each client.
//!
//! The paper's same-round download model is the ledger's zero-duration
//! case (`bandwidth_per_round == 0`, the default): there is no link,
//! nothing is ever in flight across rounds, so stage 1 never lands
//! anything and stage 5 never parks a request. A timed station queues
//! its downloads on a private latency-free [`Link`] of that bandwidth,
//! which times each transfer for the ledger and answers the plan's
//! committed-units and arrival-delay queries.
//!
//! The driver (experiment harness or example) owns the clock: it calls
//! [`BaseStationSim::apply_update_wave`] (or per-object updates) whenever
//! the remote objects change, and steps the station once per time unit.

use basecache_cache::CacheStore;
use basecache_knapsack::Item;
use basecache_net::{
    Catalog, InFlightConfig, InFlightLedger, InvalidationReport, Link, ObjectId, ParkedWaiter,
    RemoteServer, TransferTiming, Version,
};
use basecache_obs::{
    Attr, Event, LifecycleEvent, NullRecorder, Recorder, Sample, Snapshot, Span, Stage, Transition,
};
use basecache_sim::metrics::Welford;
use basecache_sim::{SimDuration, SimTime};
use basecache_workload::GeneratedRequest;

use crate::asynch::AsyncRefresher;
use crate::engine::RoundEngine;
use crate::estimator::RecencyEstimator;
use crate::outcome::RoundOutcome;
use crate::planner::{LowestRecencyFirst, OnDemandPlanner};
use crate::recency::{DecayModel, ScoringFunction};
use crate::request::RequestBatch;
use crate::scratch::PlannerScratch;

/// How the station learns the recency of its cached copies when making
/// download decisions. Delivered-quality *measurements* always use the
/// true staleness, so estimator error shows up as policy degradation —
/// exactly what the estimator experiments quantify.
#[derive(Debug)]
pub enum Estimation {
    /// The paper's assumption: the station knows the exact version lag.
    Oracle,
    /// A pluggable estimator (TTL aging, invalidation reports, …).
    Estimator(Box<dyn RecencyEstimator + Send>),
}

/// The download policy the base station runs each time unit.
#[derive(Debug, Clone, Copy)]
pub enum Policy {
    /// The paper's on-demand knapsack planner under a per-tick unit
    /// budget.
    OnDemand {
        /// The planner (scoring function + solver).
        planner: OnDemandPlanner,
        /// Download budget per time unit, in data units.
        budget_units: u64,
    },
    /// Section 3.2's unit-size on-demand policy: the `k` requested
    /// objects with the lowest cached recency.
    OnDemandLowestRecency {
        /// Objects downloaded per time unit.
        k_objects: usize,
    },
    /// The asynchronous baseline: round-robin refresh of `k` objects per
    /// time unit, independent of requests.
    AsyncRoundRobin {
        /// Objects refreshed per time unit.
        k_objects: usize,
    },
    /// Push–pull hybrid (extension; cf. Acharya et al.'s "balancing push
    /// and pull"): run the on-demand planner first, then spend whatever
    /// budget it left over on background refresh of the stalest cached
    /// objects, requested or not.
    Hybrid {
        /// The on-demand planner for the pull half.
        planner: OnDemandPlanner,
        /// Total download budget per time unit, in data units.
        budget_units: u64,
    },
    /// Adaptive budget (the paper's Section 6 future work, closed-loop):
    /// each round, read the DP solution-space trace and spend only up to
    /// the knee — the budget where the marginal recency gain per unit
    /// drops below `threshold` over the next `window` units.
    OnDemandAdaptive {
        /// The on-demand planner (knee selection forces the exact DP).
        planner: OnDemandPlanner,
        /// Hard ceiling on the per-tick budget, in data units.
        max_budget: u64,
        /// Averaging window for the marginal gain, in data units.
        window: u64,
        /// Minimum acceptable marginal gain per data unit.
        threshold: f64,
    },
}

/// Accumulated measurements since construction or the last
/// [`BaseStationSim::reset_stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StationStats {
    /// Total data units downloaded from remote servers.
    pub units_downloaded: u64,
    /// Total objects downloaded (downloads of the same object on
    /// different ticks count separately).
    pub objects_downloaded: u64,
    /// Total client requests served.
    pub requests_served: u64,
    /// Distribution of per-request delivered recency.
    pub recency: Welford,
    /// Distribution of per-request delivered score.
    pub score: Welford,
    /// Distribution of waiting times (in rounds) of requests answered on
    /// arrival of the transfer they rode (empty under instant transfers).
    pub wait_ticks: Welford,
    /// Requests answered after waiting on an in-flight transfer.
    pub waited: u64,
    /// Requests that rode a transfer launched in an earlier round
    /// instead of triggering their own fetch (single-flight coalescing).
    pub joined: u64,
}

/// In-flight download state: the ledger, the link that times its
/// transfers, and the reusable buffers the round needs, so steady-state
/// rounds stay off the heap.
#[derive(Debug)]
struct FlightState {
    ledger: InFlightLedger,
    /// The fixed network a timed station queues its downloads on; `None`
    /// when instant.
    link: Option<Link>,
    /// Waiters drained from arriving transfers, rebuilt per arrival.
    waiters: Vec<ParkedWaiter>,
    /// `(object, launched_at)` of this round's arrivals, sorted by
    /// object — the columnar serve's merge input.
    arrived: Vec<(ObjectId, u64)>,
}

impl FlightState {
    fn new(config: InFlightConfig, objects: usize) -> Self {
        let mut ledger = InFlightLedger::new(config, objects);
        // A timed link's ring grows with the backlog; pre-size it so the
        // first busy rounds stay off the heap. Instant transfers land
        // right after launch and never need more than one slot.
        let link = if ledger.is_instant() {
            None
        } else {
            ledger.reserve(objects, 0);
            Some(Link::new(config.bandwidth_per_round, SimDuration::ZERO))
        };
        Self {
            ledger,
            link,
            waiters: Vec::new(),
            arrived: Vec::new(),
        }
    }
}

/// The base-station simulation.
#[derive(Debug)]
pub struct BaseStationSim {
    catalog: Catalog,
    server: RemoteServer,
    cache: CacheStore,
    policy: Policy,
    refresher: AsyncRefresher,
    decay: DecayModel,
    scoring: ScoringFunction,
    estimation: Estimation,
    tick: u64,
    stats: StationStats,
    recorder: Box<dyn Recorder>,
    // Hot-path buffers, reused across ticks so a steady-state on-demand
    // step allocates nothing (see `tests/alloc_free.rs`).
    scratch: PlannerScratch,
    recency_buf: Vec<f64>,
    downloaded: Vec<ObjectId>,
    /// Objects the planner must not origin-fetch this round (sorted
    /// ascending): a regional L2 tier sets these when another cell
    /// already fetched — or is fetching — the current version, so the
    /// region-wide single-flight contract holds. Empty outside L2 mode,
    /// and the empty case takes the exact unfiltered planning path.
    plan_exclusions: Vec<ObjectId>,
    /// The fixed network's transfers in flight (multi-round transfers +
    /// single-flight coalescing); instant by default, the paper's model.
    flight: FlightState,
}

impl BaseStationSim {
    /// The one true constructor, fed by [`crate::builder::StationBuilder`].
    /// The cache starts empty ("we started with an empty cache"); the
    /// server starts with every object at version 0.
    pub(crate) fn assemble(
        catalog: Catalog,
        policy: Policy,
        estimation: Estimation,
        decay: DecayModel,
        scoring: ScoringFunction,
        recorder: Box<dyn Recorder>,
        flight: InFlightConfig,
    ) -> Self {
        let server = RemoteServer::new(&catalog);
        let refresher = AsyncRefresher::new(&catalog);
        // Pre-size the planner scratch for the worst case the policy can
        // pose — a full-catalog instance at the full budget — so the
        // first round (and every solve path, including the adaptive
        // pipeline's full-DP fallback) stays off the heap. Budgets past
        // the catalog's total size are equivalent to it (every solver
        // clamps the capacity), so the reserve clamps too.
        let mut scratch = PlannerScratch::new();
        if let Some(budget) = unit_budget(&policy) {
            scratch.reserve(catalog.len(), budget.min(catalog.total_size()));
        }
        let flight = FlightState::new(flight, catalog.len());
        Self {
            catalog,
            server,
            cache: CacheStore::unbounded(),
            policy,
            refresher,
            decay,
            scoring,
            estimation,
            tick: 0,
            stats: StationStats::default(),
            recorder,
            scratch,
            recency_buf: Vec::new(),
            downloaded: Vec::new(),
            plan_exclusions: Vec::new(),
            flight,
        }
    }

    /// The station's in-flight ledger — always `Some`: every station owns
    /// one, instant unless built with
    /// [`crate::builder::StationBuilder::in_flight`].
    pub fn flight_ledger(&self) -> Option<&InFlightLedger> {
        Some(&self.flight.ledger)
    }

    /// Link units that transfers already in flight take out of this
    /// round's budget — what the planner subtracts before commissioning
    /// more downloads. Zero when instant.
    pub fn committed_units(&self) -> u64 {
        let now = SimTime::from_ticks(self.tick);
        self.flight
            .link
            .as_ref()
            .map_or(0, |link| link.committed_at(now))
    }

    /// The current time unit (number of steps taken).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The catalog the station serves.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The authoritative remote server (for drivers applying per-object
    /// updates).
    pub fn server_mut(&mut self) -> &mut RemoteServer {
        &mut self.server
    }

    /// The remote server (inspection — e.g. the regional L2 exchange
    /// asking which version is current before consulting its directory).
    pub fn server(&self) -> &RemoteServer {
        &self.server
    }

    /// The cache (inspection).
    pub fn cache(&self) -> &CacheStore {
        &self.cache
    }

    /// Data units currently resident in the cache — the gauge behind the
    /// [`Sample::CachedUnits`] channel and the invariant monitor's
    /// cache-accounting check.
    pub fn cached_units(&self) -> u64 {
        self.cache.used()
    }

    /// The version of the cached copy of `id` (falling back to the
    /// server's current version when nothing is cached) — the key
    /// lifecycle serve events correlate spans by.
    fn serve_version(&self, id: ObjectId) -> u64 {
        match self.cache.peek(id) {
            Some(entry) => entry.version.0,
            None => self.server.version_of(id).0,
        }
    }

    /// Accumulated stats.
    pub fn stats(&self) -> &StationStats {
        &self.stats
    }

    /// The installed observability recorder.
    pub fn recorder(&self) -> &dyn Recorder {
        &*self.recorder
    }

    /// The policy's per-tick download allowance: data units for the
    /// budgeted policies, objects for the `k`-object ones (identical on
    /// unit-size catalogs).
    pub fn download_budget(&self) -> u64 {
        match self.policy {
            Policy::OnDemand { budget_units, .. } | Policy::Hybrid { budget_units, .. } => {
                budget_units
            }
            Policy::OnDemandAdaptive { max_budget, .. } => max_budget,
            Policy::OnDemandLowestRecency { k_objects } | Policy::AsyncRoundRobin { k_objects } => {
                k_objects as u64
            }
        }
    }

    /// Re-budget the policy for the next tick without rebuilding the
    /// station. A backhaul arbiter calls this every round to turn its
    /// global allocation into the cell's local knapsack capacity. The
    /// value is interpreted per [`Self::download_budget`].
    pub fn set_download_budget(&mut self, budget: u64) {
        match &mut self.policy {
            Policy::OnDemand { budget_units, .. } | Policy::Hybrid { budget_units, .. } => {
                *budget_units = budget;
            }
            Policy::OnDemandAdaptive { max_budget, .. } => *max_budget = budget,
            Policy::OnDemandLowestRecency { k_objects } | Policy::AsyncRoundRobin { k_objects } => {
                *k_objects = budget as usize;
            }
        }
    }

    /// Materialize everything the installed recorder observed (empty
    /// under the default [`NullRecorder`]). Allocates; call at report
    /// time.
    pub fn obs_snapshot(&self) -> Snapshot {
        self.recorder.snapshot()
    }

    /// Forget accumulated stats (end of warm-up: the paper warms the
    /// cache for 50–100 time units before measuring).
    pub fn reset_stats(&mut self) {
        self.stats = StationStats::default();
    }

    /// Update every remote object simultaneously (the paper's update
    /// waves at t = 0, 5, 10, …).
    pub fn apply_update_wave(&mut self) {
        self.server
            .apply_simultaneous_update(SimTime::from_ticks(self.tick));
    }

    /// True current recency of every object's cached copy: decayed once
    /// per missed server update; 0.0 when the object is not cached.
    pub fn recency_vec(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.fill_recency(&mut out);
        out
    }

    /// The recency vector the *planner* sees: the truth under
    /// [`Estimation::Oracle`], the estimator's belief otherwise.
    pub fn estimated_recency_vec(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.fill_estimated_recency(&mut out);
        out
    }

    /// Fill `out` with [`Self::estimated_recency_vec`] without
    /// allocating beyond `out`'s own capacity growth. Per-round callers
    /// (the cluster's demand probe) reuse one buffer across ticks.
    pub fn estimated_recency_into(&self, out: &mut Vec<f64>) {
        self.fill_estimated_recency(out);
    }

    /// Fill `out` with [`Self::recency_vec`] without allocating (beyond
    /// `out`'s own first growth).
    fn fill_recency(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.catalog.ids().map(|id| self.true_recency(id)));
    }

    /// The true recency of `id`'s cached copy: decayed once per missed
    /// server update; 0.0 when the object is not cached.
    #[inline]
    fn true_recency(&self, id: ObjectId) -> f64 {
        match self.cache.peek(id) {
            Some(entry) => self
                .decay
                .recency_for_lag(entry.lag(self.server.version_of(id))),
            None => 0.0,
        }
    }

    /// Fill `out` with [`Self::estimated_recency_vec`] without allocating.
    fn fill_estimated_recency(&self, out: &mut Vec<f64>) {
        match &self.estimation {
            Estimation::Oracle => self.fill_recency(out),
            Estimation::Estimator(est) => {
                let now = SimTime::from_ticks(self.tick);
                out.clear();
                out.extend(self.catalog.ids().map(|id| match self.cache.peek(id) {
                    Some(entry) => est.estimate(id, entry, now),
                    None => 0.0,
                }));
            }
        }
    }

    /// The objects the most recent [`Self::step`] downloaded, ascending.
    /// Empty before the first step.
    pub fn last_downloaded(&self) -> &[ObjectId] {
        &self.downloaded
    }

    /// Forbid the next step's planner from origin-fetching `objects`
    /// (the regional L2 tier already holds — or is fetching — their
    /// current versions). The list is copied, sorted and deduplicated
    /// into a reusable buffer; it stays in force until
    /// [`Self::clear_plan_exclusions`]. With an empty list the planning
    /// path is exactly the unfiltered one, bit for bit.
    pub fn set_plan_exclusions(&mut self, objects: &[ObjectId]) {
        self.plan_exclusions.clear();
        self.plan_exclusions.extend_from_slice(objects);
        self.plan_exclusions.sort_unstable();
        self.plan_exclusions.dedup();
    }

    /// Drop every planner exclusion (see [`Self::set_plan_exclusions`]).
    pub fn clear_plan_exclusions(&mut self) {
        self.plan_exclusions.clear();
    }

    /// The objects currently excluded from origin fetching, ascending.
    pub fn plan_exclusions(&self) -> &[ObjectId] {
        &self.plan_exclusions
    }

    /// The version of the cached copy of `id`, if one is resident.
    pub fn cached_version_of(&self, id: ObjectId) -> Option<Version> {
        self.cache.peek(id).map(|entry| entry.version)
    }

    /// Install a copy of `id` obtained from a remote peer (an L2
    /// neighbor cell) at the version *the peer holds* — which may lag
    /// the origin. The copy lands in the cache exactly like a download,
    /// but the recency estimator is only told about a refresh when the
    /// installed version is the origin's current one; a stale L2 copy
    /// keeps its honest staleness. Returns the object's size in units
    /// (what the transfer cost the inter-cell link).
    pub fn install_remote_copy(&mut self, id: ObjectId, version: Version) -> u64 {
        let size = self.catalog.size_of(id);
        let now = SimTime::from_ticks(self.tick);
        self.cache
            .insert(id, size, version, now)
            .expect("unbounded cache never refuses");
        if version == self.server.version_of(id) {
            if let Estimation::Estimator(est) = &mut self.estimation {
                est.on_refresh(id, now);
            }
        }
        size
    }

    /// Deliver a server invalidation report to the station's estimator
    /// (ignored under [`Estimation::Oracle`]).
    pub fn deliver_report(&mut self, report: &InvalidationReport) {
        if let Estimation::Estimator(est) = &mut self.estimation {
            est.ingest_report(report);
            self.recorder.incr(Event::ReportsIngested);
        }
    }

    /// Simulate one time unit over the given client requests, through
    /// the staged round of the module docs: each request is served from
    /// the cache or, when its object is on the wire at the current
    /// version, parked on that transfer until it lands.
    ///
    /// Under [`Policy::OnDemand`] this is allocation-free in steady
    /// state: every buffer the round touches is reused across ticks.
    pub fn step(&mut self, requests: &[GeneratedRequest]) -> RoundOutcome {
        self.round(Demand::Batch(requests))
    }

    /// Simulate one time unit against a [`RoundEngine`]'s standing
    /// request tables — the million-request round. The driver mutates
    /// the engine between steps and the engine rescores only what
    /// changed; the serve runs columnar, O(requested objects), off the
    /// engine's per-object score sums. Requests of objects on the wire
    /// count as waiting rather than being parked one by one: the
    /// population persists, so they serve in the arrival round.
    ///
    /// Same round, spans, events and samples as [`Self::step`].
    /// Allocation-free in steady state on the sequential rescore path
    /// (see `tests/alloc_free.rs`).
    ///
    /// # Panics
    ///
    /// Panics unless the station runs [`Policy::OnDemand`] under
    /// [`Estimation::Oracle`] — the columnar serve reads the recency
    /// column the planner observed, which must be the truth — and the
    /// engine's table and scoring function match the station's catalog
    /// and planner.
    pub fn step_engine(&mut self, engine: &mut RoundEngine) -> RoundOutcome {
        let Policy::OnDemand { planner, .. } = self.policy else {
            panic!("step_engine requires Policy::OnDemand");
        };
        assert!(
            matches!(self.estimation, Estimation::Oracle),
            "step_engine requires Estimation::Oracle: the columnar serve \
             reads the recency the planner observed, which must be the truth"
        );
        assert_eq!(
            engine.num_objects(),
            self.catalog.len(),
            "engine table must cover the station's catalog"
        );
        assert_eq!(
            engine.scoring(),
            planner.scoring(),
            "engine and planner must agree on the scoring function"
        );
        self.round(Demand::Engine(engine))
    }

    /// The one round body behind [`Self::step`] and
    /// [`Self::step_engine`]; the demands differ only in how the plan
    /// assembles and how the serve stage walks the requests.
    fn round(&mut self, mut demand: Demand<'_>) -> RoundOutcome {
        // The recorder leaves the station for the round so the stages can
        // borrow the rest of it; the ZST placeholder box does not allocate.
        let recorder_box = std::mem::replace(&mut self.recorder, Box::new(NullRecorder));
        let recorder: &dyn Recorder = &*recorder_box;
        let observing = recorder.enabled();
        let step_span = Span::enter(recorder, Stage::Step);
        let tick = self.tick;
        recorder.begin_round(tick);
        recorder.incr(Event::Rounds);
        let (batch_size, columnar) = match &demand {
            Demand::Batch(requests) => (requests.len() as u64, false),
            Demand::Engine(engine) => (engine.total_requests(), true),
        };
        recorder.sample(Sample::BatchSize, batch_size as f64);
        let instant = self.flight.ledger.is_instant();
        let mut tally = Tally::default();

        // (1) Land transfers launched in earlier rounds. Instant ledgers
        // never have any pending here: their transfers land in (3).
        self.flight.arrived.clear();
        if !instant {
            let _fetch_span = Span::enter(recorder, Stage::Fetch);
            self.land_due(recorder, &mut tally, columnar);
            // Pop order is launch order; the columnar serve merges in
            // object order.
            self.flight.arrived.sort_unstable();
        }

        // (2) The recency the planner sees (post-arrival), then the plan.
        let mut recency = std::mem::take(&mut self.recency_buf);
        {
            let _recency_span = Span::enter(recorder, Stage::Recency);
            self.fill_estimated_recency(&mut recency);
        }
        let mut downloaded = std::mem::take(&mut self.downloaded);
        downloaded.clear();
        {
            let _plan_span = Span::enter(recorder, Stage::Plan);
            self.plan(&mut demand, &recency, &mut downloaded, recorder);
        }

        // (3) Launch the chosen transfers. An instant one lands right
        // after its launch, so the ledger's ring never holds more than
        // one entry and the refresh runs in ascending object order.
        {
            let _refresh_span = Span::enter(recorder, Stage::Refresh);
            let now = SimTime::from_ticks(tick);
            for &id in &downloaded {
                let version = self.server.version_of(id);
                if observing {
                    let planned = LifecycleEvent::new(Transition::Planned, id.0, version.0, tick);
                    recorder.lifecycle(planned);
                }
                let size = self.catalog.size_of(id);
                let flight = &mut self.flight;
                if flight.ledger.is_object_active(id) {
                    recorder.incr(Event::DuplicateFetches);
                }
                let timing = match &mut flight.link {
                    Some(link) => link.enqueue(now, size),
                    None => TransferTiming::instant(now),
                };
                flight
                    .ledger
                    .launch_recorded(id, version, size, tick, timing, recorder);
                if instant {
                    self.land_due(recorder, &mut tally, false);
                }
            }
        }
        recorder.add(Event::FetchesIssued, downloaded.len() as u64);
        recorder.add(Event::ObjectsDownloaded, tally.arrived as u64);
        recorder.add(Event::UnitsDownloaded, tally.units);
        if let Some(budget) = unit_budget(&self.policy).filter(|&b| observing && b > 0) {
            let utilization = tally.units as f64 / budget as f64;
            recorder.sample(Sample::DownlinkUtilization, utilization);
        }

        // (4) Serve.
        {
            let _serve_span = Span::enter(recorder, Stage::Serve);
            match demand {
                Demand::Batch(batch) => self.serve_batch(batch, &downloaded, recorder, &mut tally),
                Demand::Engine(engine) => {
                    self.serve_columnar(engine, &downloaded, recorder, &mut tally)
                }
            }
        }
        let served = tally.served_now + tally.served_after_wait;
        recorder.add(Event::RequestsServed, served);
        if observing && served > 0 {
            recorder.sample(Sample::CacheHitRatio, tally.hits as f64 / served as f64);
        }

        self.stats.units_downloaded += tally.units;
        self.stats.objects_downloaded += tally.arrived as u64;
        self.stats.requests_served += served;
        self.stats.joined += tally.joined;
        let outcome = RoundOutcome {
            tick,
            objects_downloaded: tally.arrived,
            units_downloaded: tally.units,
            average_recency: tally.recency.mean().unwrap_or(1.0),
            average_score: tally.score.mean().unwrap_or(1.0),
            served: served as usize,
            cache_hits: tally.hits as usize,
            arrived: tally.arrived,
            launched: downloaded.len(),
            joined: tally.joined as usize,
            served_immediately: tally.served_now as usize,
            served_after_wait: tally.served_after_wait as usize,
            still_waiting: tally.waiting as usize,
        };
        recorder.sample(Sample::AverageRecency, outcome.average_recency);
        recorder.sample(Sample::AverageScore, outcome.average_score);
        if observing {
            recorder.sample(Sample::CachedUnits, self.cache.used() as f64);
        }
        recorder.end_round(tick);
        self.downloaded = downloaded;
        self.recency_buf = recency;
        self.tick += 1;
        drop(step_span);
        self.recorder = recorder_box;
        outcome
    }

    /// Land every transfer due by this round: refresh the cache with the
    /// copy and serve the requests parked on it. Waiters are scored at
    /// the landed copy's *true* recency: if the version was invalidated
    /// while on the wire, they get (and are scored on) what actually
    /// arrived. With `collect`, each arrival's `(object, launched_at)` is
    /// kept for the columnar serve.
    fn land_due(&mut self, recorder: &dyn Recorder, tally: &mut Tally, collect: bool) {
        let tick = self.tick;
        let now = SimTime::from_ticks(tick);
        let observing = recorder.enabled();
        loop {
            let flight = &mut self.flight;
            flight.waiters.clear();
            let Some(a) = flight
                .ledger
                .pop_arrival_recorded(tick, &mut flight.waiters, recorder)
            else {
                break;
            };
            self.cache
                .insert(a.object, a.size, a.version, now)
                .expect("unbounded cache never refuses");
            if let Estimation::Estimator(est) = &mut self.estimation {
                est.on_refresh(a.object, now);
            }
            tally.units += a.size;
            tally.arrived += 1;
            if collect {
                self.flight.arrived.push((a.object, a.launched_at));
            }
            if observing {
                let event = |transition| {
                    LifecycleEvent::new(transition, a.object.0, a.version.0, tick)
                        .at_launch(a.launched_at)
                };
                recorder.attribute(Attr::DownlinkUnitsByObject, a.object.0, a.size);
                if a.version != self.server.version_of(a.object) {
                    // The copy was invalidated while on the wire.
                    recorder.incr(Event::StaleArrivals);
                    recorder.lifecycle(event(Transition::InvalidatedStale));
                }
                let waiters = self.flight.waiters.len().min(u32::MAX as usize) as u32;
                if waiters > 0 {
                    recorder.lifecycle(event(Transition::ServedFromWait).times(waiters));
                }
            }
            if self.flight.waiters.is_empty() {
                continue;
            }
            let x = self.true_recency(a.object);
            for w in &self.flight.waiters {
                let score = self.scoring.score(x, w.target_recency);
                tally.recency.push(x);
                tally.score.push(score);
                self.stats.recency.push(x);
                self.stats.score.push(score);
                let wait = (tick - w.issued_at) as f64;
                self.stats.wait_ticks.push(wait);
                self.stats.waited += 1;
                tally.served_after_wait += 1;
                recorder.sample(Sample::FetchLatencyTicks, wait);
                if observing {
                    // Decompose the wait: ticks spent before the
                    // transfer launched (queueing) vs. riding the wire;
                    // the serve itself is same-round (0 ticks), kept as
                    // a channel so the model stays explicit.
                    let queueing = a.launched_at.saturating_sub(w.issued_at);
                    let on_wire = tick - w.issued_at.max(a.launched_at);
                    recorder.sample(Sample::WaitQueueingTicks, queueing as f64);
                    recorder.sample(Sample::WaitOnWireTicks, on_wire as f64);
                    recorder.sample(Sample::WaitServeTicks, 0.0);
                    let staleness = ((1.0 - x) * 1_000.0).round() as u64;
                    if staleness > 0 {
                        recorder.attribute(Attr::ServeStalenessByObject, a.object.0, staleness);
                    }
                }
            }
        }
    }

    /// Choose this round's downloads into `downloaded` (ascending for
    /// every policy but round-robin refresh). The knapsack instance
    /// assembles from the batch or the engine, then finishes the same way
    /// for both: joinable and L2-excluded objects leave it, committed
    /// units leave the budget, far arrivals are amortized.
    fn plan(
        &mut self,
        demand: &mut Demand<'_>,
        recency: &[f64],
        downloaded: &mut Vec<ObjectId>,
        recorder: &dyn Recorder,
    ) {
        let instant = self.flight.ledger.is_instant();
        let joining = self.flight.ledger.coalesce() && !instant;
        let Policy::OnDemand {
            planner,
            budget_units,
        } = self.policy
        else {
            let Demand::Batch(requests) = demand else {
                unreachable!("step_engine checks the policy");
            };
            self.select(requests, recency, downloaded);
            return;
        };
        match demand {
            Demand::Engine(engine) => {
                // Arrivals dirtied themselves through the recency
                // observation (their bits moved), so the incremental
                // build pays only for what landed.
                engine.observe_recency(recency);
                engine.rescore();
                recorder.sample(Sample::DirtyObjects, engine.dirty_objects() as f64);
                recorder.sample(Sample::RescoredRequests, engine.rescored_requests() as f64);
                engine.assemble_into(&mut self.scratch);
            }
            Demand::Batch(requests) => {
                planner.assemble_requests_into(requests, &self.catalog, recency, &mut self.scratch);
            }
        }

        let excluding = !self.plan_exclusions.is_empty();
        if joining || excluding {
            // Requests that can ride an in-flight transfer park on it in
            // the serve stage, so their object leaves the instance —
            // each item sums only its own object's requests, so the rest
            // are untouched. Dropping every joinable item, even a
            // zero-profit one (fresh cache, redundant transfer active),
            // keeps the single-flight contract no matter how the solver
            // tie-breaks zero profit. L2-excluded objects (the region
            // already holds or is fetching their current versions) are
            // compacted out in the same pass.
            let scratch = &mut self.scratch;
            let mut keep = 0usize;
            for i in 0..scratch.items.len() {
                let o = scratch.objects[i];
                let dropped = (joining
                    && self.flight.ledger.joinable(o, self.server.version_of(o)))
                    || (excluding && self.plan_exclusions.binary_search(&o).is_ok());
                if !dropped {
                    scratch.items[keep] = scratch.items[i];
                    scratch.objects[keep] = scratch.objects[i];
                    keep += 1;
                }
            }
            scratch.items.truncate(keep);
            scratch.objects.truncate(keep);
        }
        let budget = match &self.flight.link {
            None => budget_units,
            Some(link) => {
                let now = SimTime::from_ticks(self.tick);
                let committed = link.committed_at(now);
                if recorder.enabled() {
                    recorder.sample(Sample::CommittedUnits, committed as f64);
                }
                for item in self.scratch.items.iter_mut() {
                    let delay = link.arrival_delay(item.size(), now);
                    if delay > 1 {
                        *item = Item::new(item.size(), item.profit() / delay as f64);
                    }
                }
                budget_units.saturating_sub(committed)
            }
        };
        planner.solve_assembled(budget, &mut self.scratch, recorder);
        downloaded.extend_from_slice(self.scratch.downloads());
    }

    /// The policies that pick their downloads without a knapsack instance.
    fn select(
        &mut self,
        requests: &[GeneratedRequest],
        recency: &[f64],
        downloaded: &mut Vec<ObjectId>,
    ) {
        match self.policy {
            Policy::OnDemand { .. } => unreachable!("planned through the knapsack instance"),
            Policy::OnDemandLowestRecency { k_objects } => {
                let batch = RequestBatch::from_generated(requests);
                downloaded.extend(LowestRecencyFirst.select(&batch, recency, k_objects));
            }
            Policy::AsyncRoundRobin { k_objects } => {
                downloaded.extend(self.refresher.next_batch(k_objects));
            }
            Policy::OnDemandAdaptive {
                planner,
                max_budget,
                window,
                threshold,
            } => {
                let batch = RequestBatch::from_generated(requests);
                let (_, mapped, trace) =
                    planner.plan_with_trace(&batch, &self.catalog, recency, max_budget);
                let budget = crate::bound::knee_budget(&trace, window, threshold);
                let solution = trace.solution_at(mapped.instance(), budget);
                let mut chosen = mapped.selected_objects(&solution);
                chosen.sort_unstable();
                downloaded.extend(chosen);
            }
            Policy::Hybrid {
                planner,
                budget_units,
            } => {
                let batch = RequestBatch::from_generated(requests);
                let plan = planner.plan(&batch, &self.catalog, recency, budget_units);
                let mut chosen = plan.downloads().to_vec();
                let mut leftover = budget_units.saturating_sub(plan.download_size());
                // Spend the leftover pushing fresh copies of the stalest
                // cached objects (requested or not).
                let mut background: Vec<ObjectId> = self
                    .catalog
                    .ids()
                    .filter(|&id| recency[id.index()] < 1.0 && !chosen.contains(&id))
                    .collect();
                background.sort_by(|a, b| {
                    recency[a.index()]
                        .partial_cmp(&recency[b.index()])
                        .expect("recency values are never NaN")
                        .then_with(|| a.cmp(b))
                });
                for id in background {
                    let size = self.catalog.size_of(id);
                    if size <= leftover {
                        leftover -= size;
                        chosen.push(id);
                    }
                    if leftover == 0 {
                        break;
                    }
                }
                chosen.sort_unstable();
                downloaded.extend(chosen);
            }
        }
    }

    /// Serve a request batch one request at a time. A request whose
    /// object is on the wire at the current version parks on that
    /// transfer (the naive mode parks too — the comparison is about
    /// duplicate launches, not serving rules); everything else is
    /// answered from the cache at its true recency.
    fn serve_batch(
        &mut self,
        requests: &[GeneratedRequest],
        downloaded: &[ObjectId],
        recorder: &dyn Recorder,
        totals: &mut Tally,
    ) {
        let observing = recorder.enabled();
        let tick = self.tick;
        let instant = self.flight.ledger.is_instant();
        // `downloaded` is ascending except under round-robin refresh, so
        // pick the hit probe accordingly. Hits are counted
        // unconditionally: they feed the outcome (and cluster-level
        // aggregation), and outcomes must not depend on observation.
        let downloads_sorted = downloaded.windows(2).all(|w| w[0] <= w[1]);
        // Accumulate in a stack copy the loop can keep in registers.
        let mut tally = std::mem::take(totals);
        for r in requests {
            let x = self.true_recency(r.object);
            if !instant
                && x < 1.0
                && self
                    .flight
                    .ledger
                    .joinable(r.object, self.server.version_of(r.object))
            {
                let ledger = &mut self.flight.ledger;
                if ledger.join_recorded(r.object, r.target_recency, tick, recorder) < tick {
                    tally.joined += 1;
                    recorder.incr(Event::FetchesCoalesced);
                }
                continue;
            }
            let score = self.scoring.score(x, r.target_recency);
            tally.recency.push(x);
            tally.score.push(score);
            self.stats.recency.push(x);
            self.stats.score.push(score);
            let downloaded_now = if downloads_sorted {
                downloaded.binary_search(&r.object).is_ok()
            } else {
                downloaded.contains(&r.object)
            };
            if !downloaded_now {
                tally.hits += 1;
            }
            tally.served_now += 1;
            if observing {
                // Staleness charged in thousandths, so a request served
                // at recency 0.4 adds 600 to its object's tally.
                let staleness = ((1.0 - x) * 1_000.0).round() as u64;
                if staleness > 0 {
                    recorder.attribute(Attr::ServeStalenessByObject, r.object.0, staleness);
                }
                recorder.lifecycle(LifecycleEvent::new(
                    Transition::Served,
                    r.object.0,
                    self.serve_version(r.object),
                    tick,
                ));
            }
        }
        tally.waiting = self.flight.ledger.waiting();
        *totals = tally;
    }

    /// Serve an engine's standing population columnar: one visit per
    /// requested object, merging this round's downloads and arrivals.
    /// An instant download serves all its clients at recency (and score)
    /// 1.0; a timed launch or a joinable flight leaves them waiting; any
    /// other object serves at the recency the planner observed, which
    /// under the oracle is the truth.
    fn serve_columnar(
        &mut self,
        engine: &RoundEngine,
        downloaded: &[ObjectId],
        recorder: &dyn Recorder,
        totals: &mut Tally,
    ) {
        let observing = recorder.enabled();
        let tick = self.tick;
        let instant = self.flight.ledger.is_instant();
        let stats = &mut self.stats;
        let server = &self.server;
        let cache = &self.cache;
        let ledger = &self.flight.ledger;
        let arrived = &self.flight.arrived;
        // Accumulate in a stack copy the closure can keep in registers.
        let mut tally = std::mem::take(totals);
        let mut dl = 0usize;
        let mut ar = 0usize;
        engine.for_each_active(|a| {
            while dl < downloaded.len() && downloaded[dl] < a.object {
                dl += 1;
            }
            let downloaded_now = dl < downloaded.len() && downloaded[dl] == a.object;
            while ar < arrived.len() && arrived[ar].0 < a.object {
                ar += 1;
            }
            let mut arrived_now = false;
            let mut launched_at = 0u64;
            while ar < arrived.len() && arrived[ar].0 == a.object {
                arrived_now = true;
                launched_at = launched_at.max(arrived[ar].1);
                ar += 1;
            }
            let n = a.requests;
            let transition = if downloaded_now && instant {
                tally.recency.push_n(1.0, n);
                tally.score.push_n(1.0, n);
                stats.recency.push_n(1.0, n);
                stats.score.push_n(1.0, n);
                tally.served_now += n;
                Transition::Served
            } else if downloaded_now {
                // Launched this round: the population waits for it.
                tally.waiting += n;
                Transition::Requested
            } else if !instant
                && a.recency < 1.0
                && ledger.joinable(a.object, server.version_of(a.object))
            {
                // Riding a transfer launched in an earlier round.
                recorder.add(Event::FetchesCoalesced, n);
                tally.joined += n;
                tally.waiting += n;
                Transition::Joined
            } else {
                tally.recency.push_n(a.recency, n);
                stats.recency.push_n(a.recency, n);
                let scores = Welford::from_sums(n, a.score_sum, a.score_sq);
                tally.score.merge(&scores);
                stats.score.merge(&scores);
                if observing {
                    // Staleness charged in thousandths per request,
                    // attributed once per object for the whole batch.
                    let staleness = ((1.0 - a.recency) * 1_000.0).round() as u64;
                    if staleness > 0 {
                        recorder.attribute(Attr::ServeStalenessByObject, a.object.0, staleness * n);
                    }
                }
                if arrived_now {
                    let wait = (tick - launched_at) as f64;
                    stats.wait_ticks.push_n(wait, n);
                    stats.waited += n;
                    tally.served_after_wait += n;
                    recorder.sample(Sample::FetchLatencyTicks, wait);
                    if observing && n > 0 {
                        // Standing requests wait from the launch round,
                        // so the whole wait rides the wire; the serve is
                        // same-round.
                        recorder.sample(Sample::WaitQueueingTicks, 0.0);
                        recorder.sample(Sample::WaitOnWireTicks, wait);
                        recorder.sample(Sample::WaitServeTicks, 0.0);
                    }
                    Transition::ServedFromWait
                } else {
                    tally.hits += n;
                    tally.served_now += n;
                    Transition::Served
                }
            };
            if observing && n > 0 {
                // Serves carry the cached copy's version, waits the
                // version on the wire.
                let version = match (transition, cache.peek(a.object)) {
                    (Transition::Served | Transition::ServedFromWait, Some(entry)) => entry.version,
                    _ => server.version_of(a.object),
                };
                let mut event = LifecycleEvent::new(transition, a.object.0, version.0, tick)
                    .times(n.min(u64::from(u32::MAX)) as u32);
                if transition == Transition::ServedFromWait {
                    event = event.at_launch(launched_at);
                }
                recorder.lifecycle(event);
            }
        });
        *totals = tally;
    }
}

/// What a round serves.
enum Demand<'a> {
    /// A flat batch of this round's requests, served one by one.
    Batch(&'a [GeneratedRequest]),
    /// A round engine's standing population, served columnar.
    Engine(&'a mut RoundEngine),
}

/// One round's running totals, filled by the landing and serve stages.
#[derive(Default)]
struct Tally {
    recency: Welford,
    score: Welford,
    /// Units and transfers that landed this round.
    units: u64,
    arrived: usize,
    /// Requests served in their own round; the cache hits among them;
    /// requests served on arrival of the transfer they waited for.
    served_now: u64,
    hits: u64,
    served_after_wait: u64,
    /// Requests that joined a transfer launched in an earlier round.
    joined: u64,
    /// Requests left waiting on a transfer at the end of the round.
    waiting: u64,
}

/// The policy's per-round budget in data units (`None` for the
/// `k`-object policies).
fn unit_budget(policy: &Policy) -> Option<u64> {
    match *policy {
        Policy::OnDemand { budget_units, .. } | Policy::Hybrid { budget_units, .. } => {
            Some(budget_units)
        }
        Policy::OnDemandAdaptive { max_budget, .. } => Some(max_budget),
        Policy::OnDemandLowestRecency { .. } | Policy::AsyncRoundRobin { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::SolverChoice;

    fn req(id: u32) -> GeneratedRequest {
        GeneratedRequest {
            object: ObjectId(id),
            target_recency: 1.0,
        }
    }

    fn station(catalog: Catalog, policy: Policy) -> BaseStationSim {
        crate::builder::StationBuilder::new(catalog)
            .policy(policy)
            .build()
            .expect("test configurations are valid")
    }

    fn on_demand_station(n: usize, budget: u64) -> BaseStationSim {
        station(
            Catalog::uniform_unit(n),
            Policy::OnDemand {
                planner: OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp),
                budget_units: budget,
            },
        )
    }

    #[test]
    fn uncached_requested_objects_are_downloaded_and_score_one() {
        let mut s = on_demand_station(10, 100);
        let out = s.step(&[req(0), req(1), req(1)]);
        assert_eq!(s.last_downloaded(), &[ObjectId(0), ObjectId(1)]);
        assert_eq!(out.objects_downloaded, 2);
        assert_eq!(out.units_downloaded, 2);
        assert_eq!(out.average_score, 1.0);
        assert_eq!(out.average_recency, 1.0);
        assert_eq!(out.served, 3);
    }

    #[test]
    fn fresh_cached_objects_are_not_redownloaded() {
        let mut s = on_demand_station(5, 100);
        s.step(&[req(2)]);
        let out = s.step(&[req(2)]);
        assert!(
            s.last_downloaded().is_empty(),
            "no update happened: cache copy is fresh"
        );
        assert_eq!(out.objects_downloaded, 0);
        assert_eq!(out.average_score, 1.0);
    }

    #[test]
    fn update_wave_makes_copies_stale_and_triggers_redownload() {
        let mut s = on_demand_station(5, 100);
        s.step(&[req(2)]);
        s.apply_update_wave();
        let recency = s.recency_vec();
        assert!((recency[2] - 0.5).abs() < 1e-12, "one missed update → 1/2");
        assert_eq!(recency[0], 0.0, "never cached");
        let out = s.step(&[req(2)]);
        assert_eq!(s.last_downloaded(), &[ObjectId(2)]);
        assert_eq!(out.average_score, 1.0);
    }

    #[test]
    fn zero_budget_serves_stale_data() {
        let mut s = on_demand_station(5, 0);
        // Nothing can ever be downloaded: scores reflect pure staleness.
        let out = s.step(&[req(0)]);
        assert!(s.last_downloaded().is_empty());
        assert!(out.average_score < 1.0);
        assert_eq!(out.average_recency, 0.0);
    }

    #[test]
    fn budget_limits_per_tick_downloads() {
        let mut s = on_demand_station(10, 3);
        let reqs: Vec<_> = (0..8).map(req).collect();
        let out = s.step(&reqs);
        assert_eq!(out.units_downloaded, 3);
        assert_eq!(out.objects_downloaded, 3);
    }

    #[test]
    fn async_policy_ignores_requests() {
        let mut s = station(
            Catalog::uniform_unit(6),
            Policy::AsyncRoundRobin { k_objects: 2 },
        );
        let out = s.step(&[req(5)]);
        assert_eq!(
            s.last_downloaded(),
            &[ObjectId(0), ObjectId(1)],
            "round robin, not demand"
        );
        assert_eq!(
            out.average_score, 0.5,
            "request for 5 served with nothing cached"
        );
        let out = s.step(&[]);
        assert_eq!(s.last_downloaded(), &[ObjectId(2), ObjectId(3)]);
        assert_eq!(out.average_score, 1.0, "empty batch scores 1 by convention");
    }

    #[test]
    fn lowest_recency_policy_picks_stalest_requested() {
        let mut s = station(
            Catalog::uniform_unit(4),
            Policy::OnDemandLowestRecency { k_objects: 1 },
        );
        // Cache 0 and 1; object 1 then misses two waves, 0 misses one.
        s.step(&[req(1)]);
        s.apply_update_wave();
        s.step(&[req(0)]);
        s.apply_update_wave();
        // Both requested; 1 has lag 2 (recency 1/3), 0 has lag 1 (1/2).
        s.step(&[req(0), req(1)]);
        assert_eq!(s.last_downloaded(), &[ObjectId(1)]);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut s = on_demand_station(5, 100);
        s.step(&[req(0), req(1)]);
        s.step(&[req(0)]);
        let st = s.stats();
        assert_eq!(st.requests_served, 3);
        assert_eq!(st.units_downloaded, 2);
        assert_eq!(st.recency.count(), 3);
        s.reset_stats();
        assert_eq!(s.stats().requests_served, 0);
        assert_eq!(s.tick(), 2, "reset keeps the clock");
    }

    #[test]
    fn adaptive_budget_downloads_high_gain_objects_only() {
        let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
        // Sizes: one cheap object, one expensive one.
        let mut s = station(
            Catalog::from_sizes(&[1, 30]),
            Policy::OnDemandAdaptive {
                planner,
                max_budget: 100,
                window: 2,
                threshold: 0.05,
            },
        );
        // Warm both, then stale them.
        let both = [req(0), req(1)];
        s.step(&both);
        s.step(&both);
        s.apply_update_wave();
        // One client wants each. The cheap stale object yields ~0.33
        // benefit for 1 unit (~0.17/unit over the 2-unit window); the
        // big one yields ~0.33 for 30 units (~0.011/unit, under the
        // 0.05 threshold): the adaptive budget stops after the cheap
        // download. (The window must match the object-size scale — a
        // window much wider than the cheap object dilutes its spike.)
        let out = s.step(&both);
        assert_eq!(s.last_downloaded(), &[ObjectId(0)]);
        assert_eq!(out.units_downloaded, 1);
    }

    #[test]
    fn adaptive_with_zero_threshold_downloads_everything_stale() {
        let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
        let mut s = station(
            Catalog::from_sizes(&[1, 30]),
            Policy::OnDemandAdaptive {
                planner,
                max_budget: 100,
                window: 10,
                threshold: 0.0,
            },
        );
        let both = [req(0), req(1)];
        s.step(&both);
        s.step(&both);
        s.apply_update_wave();
        s.step(&both);
        assert_eq!(s.last_downloaded(), &[ObjectId(0), ObjectId(1)]);
    }

    #[test]
    fn hybrid_spends_leftover_budget_on_background_refresh() {
        let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
        let mut s = station(
            Catalog::uniform_unit(6),
            Policy::Hybrid {
                planner,
                budget_units: 4,
            },
        );
        // Warm the cache with everything (two rounds: the 4-unit budget
        // caches 4 objects per round), then make it all stale.
        let all: Vec<_> = (0..6).map(req).collect();
        s.step(&all);
        s.step(&all);
        assert_eq!(s.cache().len(), 6, "cache fully warmed");
        s.apply_update_wave();
        // Only object 0 is requested (1 unit); 3 units remain for the
        // stalest cached objects 1, 2, 3.
        let out = s.step(&[req(0)]);
        assert_eq!(out.units_downloaded, 4, "full budget spent");
        assert_eq!(
            s.last_downloaded(),
            &[ObjectId(0), ObjectId(1), ObjectId(2), ObjectId(3)]
        );
    }

    #[test]
    fn hybrid_with_no_leftover_reduces_to_on_demand() {
        let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
        let mut hybrid = station(
            Catalog::uniform_unit(8),
            Policy::Hybrid {
                planner,
                budget_units: 3,
            },
        );
        let mut pure = station(
            Catalog::uniform_unit(8),
            Policy::OnDemand {
                planner,
                budget_units: 3,
            },
        );
        // More stale demand than budget: the planner consumes everything.
        let reqs: Vec<_> = (0..8).map(req).collect();
        hybrid.step(&reqs);
        pure.step(&reqs);
        assert_eq!(hybrid.last_downloaded(), pure.last_downloaded());
    }

    #[test]
    fn ttl_estimation_drives_planning_but_not_measurement() {
        use crate::estimator::TtlEstimator;
        use crate::recency::DecayModel;

        // TTL assumes updates every 1000 ticks: the estimator believes
        // everything stays fresh, so after the real update wave the
        // planner downloads nothing — and the *measured* score honestly
        // reports the resulting staleness.
        let mut s = crate::builder::StationBuilder::new(Catalog::uniform_unit(4))
            .on_demand(
                OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp),
                100,
            )
            .estimator(Box::new(TtlEstimator::new(1000, DecayModel::default())))
            .build()
            .expect("valid configuration");
        s.step(&[req(0)]);
        s.apply_update_wave();
        let out = s.step(&[req(0)]);
        assert!(
            s.last_downloaded().is_empty(),
            "optimistic TTL sees no staleness"
        );
        assert!(out.average_score < 1.0, "measurement uses the truth");
    }

    #[test]
    fn report_estimation_restores_oracle_behaviour_when_complete() {
        use crate::estimator::ReportEstimator;
        use crate::recency::DecayModel;
        use basecache_net::ReportLog;

        let catalog = Catalog::uniform_unit(4);
        let mut log = ReportLog::new(&catalog);
        let mut s = crate::builder::StationBuilder::new(catalog)
            .on_demand(
                OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp),
                100,
            )
            .estimator(Box::new(ReportEstimator::new(4, DecayModel::default())))
            .build()
            .expect("valid configuration");
        s.step(&[req(0)]);
        // Server updates; the report reaches the station.
        s.apply_update_wave();
        log.record_wave();
        let report = log.cut_report(SimTime::from_ticks(1));
        s.deliver_report(&report);
        let out = s.step(&[req(0)]);
        assert_eq!(
            s.last_downloaded(),
            &[ObjectId(0)],
            "report reveals the staleness"
        );
        assert_eq!(out.average_score, 1.0);
    }

    #[test]
    fn engine_rounds_honour_plan_exclusions() {
        let mut s = on_demand_station(4, 100);
        let mut engine = RoundEngine::new(s.catalog(), ScoringFunction::InverseRatio);
        engine.push_request(ObjectId(1), 1.0);
        engine.push_request(ObjectId(2), 1.0);
        s.step_engine(&mut engine);
        s.apply_update_wave();
        // The regional tier holds object 1's current version: this cell
        // must not re-buy it from origin, stale as its copy is.
        s.set_plan_exclusions(&[ObjectId(1)]);
        s.step_engine(&mut engine);
        assert_eq!(s.last_downloaded(), &[ObjectId(2)]);
    }

    #[test]
    fn score_when_served_stale_matches_scoring_function() {
        let mut s = on_demand_station(3, 0);
        s.server_mut().apply_update(ObjectId(0), SimTime::ZERO);
        let out = s.step(&[req(0)]);
        // Not cached: x = 0 → deviation 1 → score 1/2.
        assert!((out.average_score - 0.5).abs() < 1e-12);
    }
}
