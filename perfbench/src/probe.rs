//! What the traced run attaches and records.
//!
//! The program's own instrumentation is read through its public
//! recorder seam: each station (and the cluster) gets a [`Probe`] — the
//! workspace's `StatsRecorder` for stage spans, counters and samples,
//! armed with the `InvariantMonitor`, plus a [`MethodTally`] for the one
//! distribution the stats sink folds into a mean. The benchmark's own
//! spans around every public call it makes go to a [`SpanLog`], kept in
//! memory and written out at exit.

use std::cell::Cell;
use std::fmt::Write as _;
use std::time::Instant;

use basecache_obs::{
    Event, InvariantMonitor, Recorder, Sample, Snapshot, Stage, StatsRecorder, Tee,
};

/// The recorder a traced station or cluster carries.
pub type Probe = Tee<StatsRecorder, Tee<InvariantMonitor, MethodTally>>;

/// A probe around `monitor`.
pub fn probe(monitor: InvariantMonitor) -> Probe {
    Tee::new(
        StatsRecorder::new(),
        Tee::new(monitor, MethodTally::default()),
    )
}

/// The probe behind a recorder handed out by a station or cluster.
///
/// # Panics
///
/// Panics if the recorder is not a [`Probe`] (an untraced world).
pub fn read(recorder: &dyn Recorder) -> &Probe {
    recorder
        .as_any()
        .downcast_ref::<Probe>()
        .expect("traced worlds carry a probe")
}

/// Per-stage totals and counters read off one probe since its last
/// reset (summed over probes for a cluster's cells).
#[derive(Debug, Clone, Default)]
pub struct StageTotals {
    /// Nanoseconds per [`Stage`], indexed by [`Stage::index`].
    pub stage_ns: [u64; Stage::COUNT],
    /// Knapsack items handed to the solver.
    pub knapsack_items: u64,
    /// DP cells the solver swept.
    pub dp_cells: u64,
    /// Sum of the adaptive solver's core sizes.
    pub core_size_sum: f64,
    /// Sum of items the adaptive solver fixed by bounds.
    pub items_fixed_sum: f64,
    /// Adaptive solves.
    pub solves: u64,
    /// Solves that ended in a bound certificate.
    pub certified: u64,
    /// Duplicate fetches launched.
    pub duplicate_fetches: u64,
    /// Transfers that landed already invalidated.
    pub stale_arrivals: u64,
}

impl StageTotals {
    /// Add one probe's totals.
    pub fn add(&mut self, p: &Probe) {
        let snap = p.left.snapshot();
        for stage in Stage::ALL {
            if let Some(s) = snap.span(stage.name()) {
                self.stage_ns[stage.index()] += s.total_ns;
            }
        }
        let count = |e: Event| snap.counter(e.name()).unwrap_or(0);
        let sum = |s: Sample, snap: &Snapshot| {
            snap.sample(s.name())
                .map_or(0.0, |x| x.mean * x.count as f64)
        };
        self.knapsack_items += count(Event::KnapsackItems);
        self.dp_cells += count(Event::DpCellsTouched);
        self.duplicate_fetches += count(Event::DuplicateFetches);
        self.stale_arrivals += count(Event::StaleArrivals);
        self.core_size_sum += sum(Sample::CoreSize, &snap);
        self.items_fixed_sum += sum(Sample::ItemsFixed, &snap);
        self.solves += p.right.right.solves();
        self.certified += p.right.right.certified();
    }

    /// Milliseconds of `stage` per round over `rounds` rounds.
    pub fn ms(&self, stage: Stage, rounds: u64) -> f64 {
        self.stage_ns[stage.index()] as f64 / rounds.max(1) as f64 / 1e6
    }
}

/// Reset a probe's aggregate sinks (the end of warm-up). The monitor
/// keeps counting: a violation during warm-up still fails the run.
pub fn reset(p: &Probe) {
    p.left.reset();
    p.right.right.reset();
}

/// Counts the adaptive solver's terminal strategy per solve
/// (`Sample::SolverChosen`), which the stats sink only averages.
#[derive(Debug, Default)]
pub struct MethodTally {
    by_code: [Cell<u64>; 4],
}

impl MethodTally {
    /// Solves seen.
    pub fn solves(&self) -> u64 {
        self.by_code.iter().map(Cell::get).sum()
    }

    /// Solves ending in a bound certificate: certified greedy (code 0)
    /// or the certified expanding core (code 3).
    pub fn certified(&self) -> u64 {
        self.by_code[0].get() + self.by_code[3].get()
    }

    fn reset(&self) {
        for c in &self.by_code {
            c.set(0);
        }
    }
}

impl Recorder for MethodTally {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, _event: Event, _n: u64) {}

    fn sample(&self, sample: Sample, value: f64) {
        if sample == Sample::SolverChosen {
            if let Some(c) = self.by_code.get(value as usize) {
                c.set(c.get() + 1);
            }
        }
    }

    fn span_ns(&self, _stage: Stage, _ns: u64) {}

    fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Index of a span in a [`SpanLog`].
pub type SpanId = usize;

#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    round: u64,
}

/// The benchmark's own spans, kept in memory until the run ends. A
/// disabled log records nothing and reads no clock.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    round: u64,
    spans: Vec<SpanRecord>,
}

/// Spans kept per run at most; later ones are counted, not stored.
const SPAN_CAPACITY: usize = 1 << 20;

impl SpanLog {
    /// An empty log; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            round: 0,
            spans: Vec::new(),
        }
    }

    /// Tag later spans with round `round`.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Open a span; close it with [`SpanLog::exit`].
    pub fn enter(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled || self.spans.len() >= SPAN_CAPACITY {
            return None;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(SpanRecord {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            round: self.round,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`SpanLog::enter`].
    pub fn exit(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(name, parent);
        let out = f();
        self.exit(id);
        out
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Chrome trace / Perfetto JSON: one complete (`"X"`) event per
    /// span, with its round and parent span index as arguments.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"round\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.round
            );
        }
        out.push_str("]}\n");
        out
    }
}
