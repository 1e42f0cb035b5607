//! Comparison mode: read two sets of timed-run result files and judge,
//! per workload and end-to-end metric, whether side B is worse than
//! side A by more than the metric's bound in `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use basecache_obs::json::{self, Value};

use crate::stats::{median, quartiles};

/// An end-to-end metric's gate, as `BENCHMARK.json` states it.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of side A's median.
    pub bound: f64,
}

/// The spread of one metric's runs is exempt from the bound (set-up
/// time is gated on its median only).
const SPREAD_EXEMPT: &str = "setup_s";

/// Read the end-to-end gates from a `BENCHMARK.json`.
pub fn gates(benchmark: &str) -> Result<Vec<Gate>, String> {
    let doc = json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or("metric without `better`")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            Ok(Gate {
                name: name.to_string(),
                lower_is_better: better == "lower",
                bound,
            })
        })
        .collect()
}

/// One set of runs: per workload, per metric, every run's value; and
/// per workload and seed, the digest.
#[derive(Debug, Default)]
pub struct RunSet {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    digests: BTreeMap<(String, u64), String>,
    incorrect: usize,
}

impl RunSet {
    /// Add one result file's contents (traced runs are skipped).
    pub fn add(&mut self, contents: &str) -> Result<(), String> {
        let doc = json::parse(contents).map_err(|e| e.to_string())?;
        if doc.get("trace").and_then(Value::as_f64) != Some(0.0) {
            return Ok(());
        }
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("result without a workload")?
            .to_string();
        if doc.get("correct") != Some(&Value::Bool(true)) {
            self.incorrect += 1;
        }
        if let (Some(seed), Some(digest)) = (
            doc.get("seed").and_then(Value::as_f64),
            doc.get("digest").and_then(Value::as_str),
        ) {
            self.digests
                .insert((workload.clone(), seed as u64), digest.to_string());
        }
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("result without metrics")?;
        let per = self.values.entry(workload).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                per.entry(name.clone()).or_default().push(v);
            }
        }
        Ok(())
    }

    /// Load every `*.json` result file in `dir`.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let mut set = Self::default();
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut paths: Vec<_> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .filter(|p| !p.to_string_lossy().ends_with(".spans.json"))
            .collect();
        paths.sort();
        for p in paths {
            let contents =
                std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            set.add(&contents)
                .map_err(|e| format!("{}: {e}", p.display()))?;
        }
        Ok(set)
    }
}

/// Median, quartiles and spread (interquartile distance over the
/// median) of one side's runs.
#[derive(Debug, Clone, Copy)]
struct Summary {
    median: f64,
    q1: f64,
    q3: f64,
    spread: f64,
    runs: usize,
}

fn summarize(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    let median = median(values);
    Summary {
        median,
        q1,
        q3,
        spread: if median != 0.0 {
            (q3 - q1) / median.abs()
        } else {
            0.0
        },
        runs: values.len(),
    }
}

/// Compare set `b` against set `a`. Returns the printed table and
/// whether every metric on every workload held its bound.
pub fn compare(a: &RunSet, b: &RunSet, gates: &[Gate]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = a.incorrect == 0 && b.incorrect == 0;
    let _ = writeln!(
        out,
        "{:<15} {:<25} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median [q1, q3] spread",
        "B median [q1, q3] spread",
        "worse",
        "bound"
    );
    let workloads: Vec<&String> = a
        .values
        .keys()
        .filter(|w| b.values.contains_key(*w))
        .collect();
    for w in &workloads {
        for gate in gates {
            let (Some(va), Some(vb)) = (a.values[*w].get(&gate.name), b.values[*w].get(&gate.name))
            else {
                ok = false;
                let _ = writeln!(out, "{w:<15} {:<25} missing on one side", gate.name);
                continue;
            };
            let (sa, sb) = (summarize(va), summarize(vb));
            let worse = if sa.median == 0.0 {
                0.0
            } else if gate.lower_is_better {
                (sb.median - sa.median) / sa.median.abs()
            } else {
                (sa.median - sb.median) / sa.median.abs()
            };
            let spread_checked = gate.name != SPREAD_EXEMPT;
            let verdict = if spread_checked && (sa.spread > gate.bound || sb.spread > gate.bound) {
                ok = false;
                "UNRESOLVED: spread over bound"
            } else if worse > gate.bound {
                ok = false;
                "WORSE beyond bound"
            } else if spread_checked
                && (sa.spread > gate.bound / 3.0 || sb.spread > gate.bound / 3.0)
            {
                "within bound (spread over a third of it)"
            } else {
                "within bound"
            };
            let side = |s: Summary| {
                format!(
                    "{:.5} [{:.5}, {:.5}] {:.4} n{}",
                    s.median, s.q1, s.q3, s.spread, s.runs
                )
            };
            let _ = writeln!(
                out,
                "{w:<15} {:<25} {:>34} {:>34} {:>+8.4} {:>6}  {verdict}",
                gate.name,
                side(sa),
                side(sb),
                worse,
                gate.bound
            );
        }
    }
    let (mut same, mut differ) = (0, 0);
    for (key, da) in &a.digests {
        match b.digests.get(key) {
            Some(db) if db == da => same += 1,
            Some(_) => differ += 1,
            None => {}
        }
    }
    let _ = writeln!(
        out,
        "digests: {same} seed(s) identical, {differ} differ (a difference means the outcomes changed)"
    );
    if a.incorrect + b.incorrect > 0 {
        let _ = writeln!(
            out,
            "incorrect runs: {} in A, {} in B",
            a.incorrect, b.incorrect
        );
    }
    if workloads.is_empty() {
        ok = false;
        let _ = writeln!(out, "no workload has timed runs on both sides");
    }
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_file(workload: &str, seed: u64, p50: f64, digest: &str) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": 0, \"correct\": true, \
             \"digest\": \"{digest}\", \"metrics\": {{\"round_p50_ms\": {{\"value\": {p50}, \"unit\": \"ms\"}}}}}}"
        )
    }

    fn gate() -> Vec<Gate> {
        gates(r#"{"end_to_end": [{"name": "round_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#)
            .expect("valid gates")
    }

    #[test]
    fn equal_sets_hold_and_a_slowdown_beyond_the_bound_fails() {
        let mut a = RunSet::default();
        let mut same = RunSet::default();
        let mut slow = RunSet::default();
        for seed in 0..5 {
            let v = 1.0 + seed as f64 * 0.001;
            a.add(&run_file("w", seed, v, "d")).unwrap();
            same.add(&run_file("w", seed, v, "d")).unwrap();
            slow.add(&run_file("w", seed, v * 1.5, "e")).unwrap();
        }
        let (table, ok) = compare(&a, &same, &gate());
        assert!(ok, "{table}");
        assert!(table.contains("5 seed(s) identical"));
        let (table, ok) = compare(&a, &slow, &gate());
        assert!(!ok);
        assert!(table.contains("WORSE beyond bound"), "{table}");
        assert!(table.contains("5 differ"));
    }
}
