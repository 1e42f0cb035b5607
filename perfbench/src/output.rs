//! Rendering a run: the human-readable report, the one-line JSON result
//! printed last, and the result file (with run metadata) that the
//! comparison mode reads back.

use std::fmt::Write as _;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::run::{Config, Report};

/// Where and on what a run was made.
#[derive(Debug, Clone)]
pub struct Meta {
    /// Hardware threads the host reports.
    pub nproc: usize,
    /// Worker-pool threads the workloads run: none, every round runs
    /// on the calling thread.
    pub pool_threads: usize,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the code under test, when known.
    pub git_rev: String,
    /// Seconds since the Unix epoch.
    pub unix_time: u64,
}

impl Meta {
    /// Collect the metadata of a run that just finished.
    pub fn collect() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_threads: 0,
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            git_rev: git_rev(),
            unix_time: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        }
    }
}

/// `GIT_REV` from the environment, else the current directory's git
/// HEAD, else `unknown` (a source export has no history).
fn git_rev() -> String {
    if let Ok(rev) = std::env::var("GIT_REV") {
        return rev;
    }
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// ISO 8601 UTC for a Unix time.
pub fn utc(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    // Days-to-civil conversion (proleptic Gregorian calendar).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

/// A JSON number: the value with all its digits (JSON has no NaN or
/// infinity; those print as `null`).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(report: &Report) -> String {
    let body: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                num(m.value),
                string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line printed last on standard output.
pub fn result_line(report: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics_json(report)
    )
}

/// The human-readable report: every metric by name with its unit,
/// the notes, the digest and the metadata.
pub fn text(config: &Config, report: &Report, meta: &Meta) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} seed {} ({} run, closed loop: one caller, one round at a time)",
        config.workload.name(),
        config.seed,
        if config.trace { "traced" } else { "timed" }
    );
    for m in &report.metrics {
        let _ = writeln!(out, "  {:<30} {:>16} {}", m.name, num(m.value), m.unit);
    }
    for note in &report.notes {
        let _ = writeln!(out, "  {note}");
    }
    let _ = writeln!(out, "  digest {}", report.digest);
    let _ = writeln!(
        out,
        "  meta nproc={} pool_threads={} rustc=\"{}\" git_rev={} seed={} timestamp={}",
        meta.nproc,
        meta.pool_threads,
        meta.rustc,
        meta.git_rev,
        config.seed,
        utc(meta.unix_time)
    );
    out
}

/// The result file: the result line's fields plus workload, seed,
/// digest, notes and metadata.
pub fn file_json(config: &Config, report: &Report, meta: &Meta) -> String {
    let notes: Vec<String> = report.notes.iter().map(|n| string(n)).collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"trace\": {},\n  \"seconds\": {},\n  \
         \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"digest\": {},\n  \
         \"meta\": {{\"nproc\": {}, \"pool_threads\": {}, \"rustc\": {}, \"git_rev\": {}, \
         \"seed\": {}, \"unix_time\": {}, \"timestamp\": {}}},\n  \"notes\": [{}],\n  \
         \"metrics\": {}\n}}\n",
        string(config.workload.name()),
        config.seed,
        u8::from(config.trace),
        num(config.seconds),
        report.correct,
        report.attempted,
        report.failed,
        string(&report.digest),
        meta.nproc,
        meta.pool_threads,
        string(&meta.rustc),
        string(&meta.git_rev),
        config.seed,
        meta.unix_time,
        string(&utc(meta.unix_time)),
        notes.join(", "),
        metrics_json(report)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_formats_known_instants() {
        assert_eq!(utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc(1_700_000_000), "2023-11-14T22:13:20Z");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
