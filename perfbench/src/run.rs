//! The closed loop: set-up, warm-up, timed rounds, checks and
//! the metrics of one run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::alloc;
use crate::probe::SpanLog;
use crate::stats::{median, percentile, tail, Digest};
use crate::workloads::{
    shape, BatchWorld, ClusterWorld, EngineWorld, Scale, Shape, SimTotals, Workload, World,
};

/// End-to-end metrics of a timed run (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("round_p50_ms", "ms"),
    ("round_tail_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("score_mean", "score"),
    ("origin_units_per_request", "units"),
    ("response_rounds_mean", "rounds"),
    ("peak_heap_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of a traced run (`--trace 1`), with units. A
/// metric whose layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("station.step_ms", "ms"),
    ("station.recency_ms", "ms"),
    ("station.plan_ms", "ms"),
    ("station.refresh_ms", "ms"),
    ("station.serve_ms", "ms"),
    ("station.fetch_ms", "ms"),
    ("station.unattributed_ms", "ms"),
    ("planner.aggregate_ms", "ms"),
    ("planner.knapsack_items", "count"),
    ("knapsack.solve_ms", "ms"),
    ("knapsack.dp_cells", "count"),
    ("knapsack.core_size", "count"),
    ("knapsack.fixed_share", "ratio"),
    ("knapsack.certified_share", "ratio"),
    ("engine.ingest_ms", "ms"),
    ("engine.dirty_objects", "count"),
    ("engine.rescored_requests", "count"),
    ("engine.rescore_share", "ratio"),
    ("inflight.launched", "count"),
    ("inflight.joined_share", "ratio"),
    ("inflight.still_waiting", "count"),
    ("inflight.still_waiting_slope", "count"),
    ("inflight.duplicate_fetches", "count"),
    ("inflight.stale_arrivals", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.cached_units", "units"),
    ("cluster.step_ms", "ms"),
    ("cluster.handoffs", "count"),
    ("backhaul.grant_ratio", "ratio"),
    ("l2.transfers", "count"),
    ("l2.units", "units"),
    ("l2.invalidations", "count"),
    ("l2.denied", "count"),
    ("l2.serve_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.round_p50_ms", "ms"),
    ("trace.untraced_round_p50_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.rounds", "count"),
    ("trace.monitor_violations", "count"),
];

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds of rounds to measure (split between the untraced and the
    /// traced phase in a traced run).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    /// Every check passed and no round failed.
    pub correct: bool,
    /// Rounds attempted (warm-up included).
    pub attempted: u64,
    /// Rounds that panicked or failed an output check.
    pub failed: u64,
    /// The run's metrics, in list order.
    pub metrics: Vec<Metric>,
    /// Digest of the measured prefix's outcomes.
    pub digest: String,
    /// Human-readable context: tail percentile, sample counts, failures.
    pub notes: Vec<String>,
    /// The benchmark's own spans (traced runs), Chrome trace JSON.
    pub spans_json: Option<String>,
}

/// Failure messages kept per run (the count is always exact).
const KEPT_ERRORS: usize = 8;

#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < KEPT_ERRORS {
            self.errors.push(message);
        }
    }

    fn checked(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.fail(e);
        }
    }
}

/// Rounds one phase measured.
#[derive(Debug, Default)]
struct Phase {
    host_ns: Vec<u64>,
    digest: Digest,
    prefix: SimTotals,
    all: SimTotals,
}

impl Phase {
    /// An empty phase with room for `rounds` rounds, reserved up front
    /// so the benchmark's own bookkeeping does not grow while the heap
    /// is measured.
    fn with_capacity(rounds: usize) -> Self {
        Self {
            host_ns: Vec::with_capacity(rounds),
            ..Self::default()
        }
    }

    fn p50_ms(&self) -> f64 {
        let sorted = self.sorted_ms();
        if sorted.is_empty() {
            0.0
        } else {
            percentile(&sorted, 50.0)
        }
    }

    fn sorted_ms(&self) -> Vec<f64> {
        let mut ms: Vec<f64> = self.host_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        ms
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Build a world and warm it up; returns it with its set-up seconds
/// (input generation for the warm-up rounds excluded).
fn setup<W: World>(
    inputs: &W::Inputs,
    shape: &Shape,
    traced: bool,
    log: &mut SpanLog,
    tally: &mut Tally,
) -> Option<(W, f64)> {
    let t0 = Instant::now();
    let mut untimed = 0.0;
    let built = catch_unwind(AssertUnwindSafe(|| {
        let mut world = W::build(inputs, traced, log);
        for _ in 0..shape.warmup {
            let p0 = Instant::now();
            world.prepare(log);
            untimed += p0.elapsed().as_secs_f64();
            let (_, checked) = world.round(log, None);
            tally.checked(checked);
        }
        world.begin_measure();
        world
    }));
    match built {
        Ok(world) => Some((world, t0.elapsed().as_secs_f64() - untimed)),
        Err(payload) => {
            tally.attempted += 1;
            tally.fail(format!("set-up panicked: {}", panic_message(&*payload)));
            None
        }
    }
}

/// Run measured rounds until the prefix is complete and `seconds` have
/// passed. A panicking round ends the phase.
fn measure<W: World>(
    world: &mut W,
    shape: &Shape,
    seconds: f64,
    log: &mut SpanLog,
    tally: &mut Tally,
    mut phase: Phase,
) -> Phase {
    let start = Instant::now();
    let mut r = 0u64;
    while r < shape.prefix || start.elapsed().as_secs_f64() < seconds {
        log.set_round(r);
        world.prepare(log);
        let digest = (r < shape.prefix).then_some(&mut phase.digest);
        match catch_unwind(AssertUnwindSafe(|| world.round(log, digest))) {
            Ok((host_ns, checked)) => {
                phase.host_ns.push(host_ns);
                tally.checked(checked);
            }
            Err(payload) => {
                tally.attempted += 1;
                tally.fail(format!("round {r} panicked: {}", panic_message(&*payload)));
                break;
            }
        }
        r += 1;
        if r == shape.prefix {
            phase.prefix = world.totals();
        }
    }
    phase.all = world.totals();
    phase
}

/// Run one workload as configured.
pub fn run(config: &Config) -> Report {
    match config.workload {
        Workload::PaperFlight | Workload::ByteCatalog => run_world::<BatchWorld>(config),
        Workload::MassiveEngine => run_world::<EngineWorld>(config),
        Workload::ClusterL2 => run_world::<ClusterWorld>(config),
    }
}

/// Round-time slots reserved before measuring, so the benchmark's own
/// bookkeeping does not grow inside the heap measurement.
const ROUND_SLOTS: usize = 1 << 17;

fn run_world<W: World>(config: &Config) -> Report {
    let shape = shape(config.workload, config.scale);
    let inputs = W::inputs(config.workload, config.seed, config.scale);
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let mut report = Report {
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        digest: String::new(),
        notes: Vec::new(),
        spans_json: None,
    };

    if config.trace {
        traced_run::<W>(config, &shape, &inputs, &mut tally, &mut notes, &mut report);
    } else {
        timed_run::<W>(config, &shape, &inputs, &mut tally, &mut notes, &mut report);
    }

    report.correct = tally.failed == 0;
    report.attempted = tally.attempted.max(1);
    report.failed = tally.failed;
    notes.push(format!(
        "round_fail_ratio {} ({} of {} rounds failed)",
        tally.failed as f64 / report.attempted as f64,
        tally.failed,
        report.attempted
    ));
    notes.extend(tally.errors.iter().map(|e| format!("FAILED: {e}")));
    report.notes = notes;
    report
}

fn timed_run<W: World>(
    config: &Config,
    shape: &Shape,
    inputs: &W::Inputs,
    tally: &mut Tally,
    notes: &mut Vec<String>,
    report: &mut Report,
) {
    let mut log = SpanLog::new(false);
    let mut setups = Vec::with_capacity(shape.setups);
    let phase = Phase::with_capacity(ROUND_SLOTS);
    let baseline = alloc::reset_peak();
    let mut world = None;
    for _ in 0..shape.setups {
        // The previous world is dropped before the next is built, so the
        // peak is one world's.
        world = None;
        match setup::<W>(inputs, shape, false, &mut log, tally) {
            Some((w, secs)) => {
                setups.push(secs);
                world = Some(w);
            }
            None => break,
        }
    }
    let Some(mut world) = world else { return };
    let above = |bytes: usize| bytes.saturating_sub(baseline) as f64 / (1u64 << 20) as f64;
    let setup_peak = above(alloc::peak_bytes());
    let phase = measure(&mut world, shape, config.seconds, &mut log, tally, phase);
    let run_peak = above(alloc::peak_bytes());
    for failure in world.final_checks() {
        tally.fail(failure);
    }
    drop(world);

    let sorted = phase.sorted_ms();
    if sorted.is_empty() {
        return;
    }
    let in_order: Vec<f64> = phase.host_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let tail = tail(&in_order);
    let host_s: f64 = phase.host_ns.iter().map(|&ns| ns as f64 / 1e9).sum();
    let prefix = phase.prefix;
    let served = prefix.served.max(1) as f64;
    let values = [
        percentile(&sorted, 50.0),
        tail.value,
        phase.all.served as f64 / host_s,
        prefix.score_sum / served,
        prefix.origin_units as f64 / served,
        1.0 + prefix.wait_sum / served,
        setup_peak,
        median(&setups),
    ];
    report.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    report.digest = phase.digest.hex();
    notes.push(format!(
        "round_tail_ms is the median over {} window(s) of at least {} rounds of each window's p{} \
         ({} measured rounds)",
        tail.windows,
        tail.window_rounds,
        tail.percentile,
        sorted.len()
    ));
    notes.push(format!(
        "peak_heap_mb covers the set-ups; with the measured rounds the peak was {run_peak:.3} MiB"
    ));
    notes.push(format!(
        "simulated metrics and digest cover the first {} measured rounds; setup_s is the median of {} set-ups",
        shape.prefix,
        setups.len()
    ));
}

fn traced_run<W: World>(
    config: &Config,
    shape: &Shape,
    inputs: &W::Inputs,
    tally: &mut Tally,
    notes: &mut Vec<String>,
    report: &mut Report,
) {
    let half = config.seconds / 2.0;
    // Untraced phase: the reference round time and digest.
    let mut quiet = SpanLog::new(false);
    let Some((mut world, _)) = setup::<W>(inputs, shape, false, &mut quiet, tally) else {
        return;
    };
    let untraced = measure(
        &mut world,
        shape,
        half,
        &mut quiet,
        tally,
        Phase::with_capacity(ROUND_SLOTS),
    );
    for failure in world.final_checks() {
        tally.fail(failure);
    }
    drop(world);

    // Traced phase: the same seed with probes on every station and the
    // benchmark's own spans recorded.
    let mut log = SpanLog::new(true);
    let Some((mut world, _)) = setup::<W>(inputs, shape, true, &mut log, tally) else {
        return;
    };
    let traced = measure(
        &mut world,
        shape,
        half,
        &mut log,
        tally,
        Phase::with_capacity(ROUND_SLOTS),
    );
    for failure in world.final_checks() {
        tally.fail(failure);
    }
    let violations = world.violations();
    if violations > 0 {
        tally.fail(format!("invariant monitor counted {violations} violations"));
    }
    if traced.digest != untraced.digest {
        tally.fail(format!(
            "traced digest {} differs from untraced digest {}",
            traced.digest.hex(),
            untraced.digest.hex()
        ));
    }
    let layers = world.layers();
    drop(world);

    let (p50_traced, p50_untraced) = (traced.p50_ms(), untraced.p50_ms());
    let extra = [
        ("trace.overhead", p50_traced / p50_untraced),
        ("trace.round_p50_ms", p50_traced),
        ("trace.untraced_round_p50_ms", p50_untraced),
        ("trace.spans", log.len() as f64),
        ("trace.rounds", traced.host_ns.len() as f64),
        ("trace.monitor_violations", violations as f64),
    ];
    report.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: layers
                .iter()
                .chain(extra.iter())
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v),
            unit,
        })
        .collect();
    let absent: Vec<&str> = PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .filter(|n| !layers.iter().chain(extra.iter()).any(|(m, _)| m == n))
        .collect();
    if !absent.is_empty() {
        notes.push(format!(
            "layers this workload does not run (read 0): {}",
            absent.join(" ")
        ));
    }
    report.digest = traced.digest.hex();
    notes.push(format!(
        "untraced digest {} over the first {} measured rounds",
        untraced.digest.hex(),
        shape.prefix
    ));
    report.spans_json = Some(log.to_chrome_json());
}
