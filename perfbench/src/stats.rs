//! Order statistics over round times and run results, and the outcome
//! digest.

use basecache_core::RoundOutcome;

/// Percentiles the tail metric may report, highest first. Coarse steps
/// keep a run's percentile from flipping between runs of similar
/// length.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Fewest rounds in a tail window.
pub const TAIL_WINDOW: usize = 200;

/// Most windows a run's tail is split into.
pub const TAIL_WINDOWS: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in percent).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest ladder percentile with at least [`TAIL_BEYOND`] of
/// `samples` above it (the median when there are too few for any).
pub fn tail_percentile(samples: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| {
            let rank = ((p / 100.0) * samples as f64).ceil() as usize;
            samples.saturating_sub(rank.max(1)) >= TAIL_BEYOND
        })
        .unwrap_or(50.0)
}

/// A run's tail round time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median over windows of each window's tail percentile.
    pub value: f64,
    /// The percentile taken in every window.
    pub percentile: f64,
    /// Windows the run was split into.
    pub windows: usize,
    /// Rounds in the smallest window.
    pub window_rounds: usize,
}

/// Tail of a series in measurement order: split it into up to
/// [`TAIL_WINDOWS`] consecutive windows of at least [`TAIL_WINDOW`]
/// rounds (one window when shorter), take in each the highest ladder
/// percentile with at least [`TAIL_BEYOND`] rounds beyond it, and
/// report the median over the windows — so a burst of host interference
/// in one window does not move the whole run's figure.
///
/// # Panics
///
/// Panics on an empty series.
pub fn tail(series: &[f64]) -> Tail {
    assert!(!series.is_empty(), "tail of no samples");
    let windows = (series.len() / TAIL_WINDOW).clamp(1, TAIL_WINDOWS);
    let per = series.len() / windows;
    let p = tail_percentile(per);
    let tails: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                series.len()
            } else {
                (w + 1) * per
            };
            let mut window = series[w * per..end].to_vec();
            window.sort_by(f64::total_cmp);
            percentile(&window, p)
        })
        .collect();
    Tail {
        value: median(&tails),
        percentile: p,
        windows,
        window_rounds: per,
    }
}

/// Median of unsorted values (mean of the middle two for even counts),
/// as Python's `statistics.median` computes it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them; a single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// FNV-1a over the bit patterns of every folded value: equal digests
/// mean bit-identical outcome streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one 64-bit word.
    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a float by its bit pattern.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Fold every field of a station round.
    pub fn outcome(&mut self, o: &RoundOutcome) {
        self.word(o.tick);
        self.word(o.objects_downloaded as u64);
        self.word(o.units_downloaded);
        self.float(o.average_recency);
        self.float(o.average_score);
        for n in [
            o.served,
            o.cache_hits,
            o.arrived,
            o.launched,
            o.joined,
            o.served_immediately,
            o.served_after_wait,
            o.still_waiting,
        ] {
            self.word(n as u64);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 3.5));
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(300), 95.0);
        assert_eq!(tail_percentile(150), 90.0);
        assert_eq!(tail_percentile(5), 50.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
    }

    #[test]
    fn tail_is_the_median_of_window_tails() {
        // Ten windows of 1000 rounds; the first holds a burst of slow
        // rounds, the others 20 moderately slow rounds each.
        let mut series = vec![1.0; 10_000];
        for x in &mut series[..100] {
            *x = 50.0;
        }
        for (i, x) in series.iter_mut().enumerate().skip(1000) {
            if i % 50 == 0 {
                *x = 2.0;
            }
        }
        let t = tail(&series);
        assert_eq!((t.windows, t.window_rounds, t.percentile), (10, 1000, 99.0));
        assert_eq!(t.value, 2.0);
        // Shorter runs get fewer, smaller windows and a lower percentile.
        let t = tail(&series[..1000]);
        assert_eq!((t.windows, t.window_rounds, t.percentile), (5, 200, 95.0));
        let t = tail(&series[..150]);
        assert_eq!((t.windows, t.percentile, t.value), (1, 90.0, 50.0));
    }
}
