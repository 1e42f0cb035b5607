//! Command-line entry point.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! perfbench compare DIR_A DIR_B [--benchmark FILE]
//! ```
//!
//! A run prints every metric by name with its unit, then one JSON
//! result line, and writes the result (with run metadata) to
//! `DIR/<workload>-seed<N>-trace<T>.json`; a traced run also writes its
//! spans beside it. It exits 1 when a round or check failed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use basecache_perfbench::alloc::CountingAlloc;
use basecache_perfbench::compare::{self, RunSet};
use basecache_perfbench::output::{self, Meta};
use basecache_perfbench::run::{self, Config};
use basecache_perfbench::workloads::{Scale, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  perfbench --workload paper_flight|massive_engine|cluster_l2|byte_catalog \
--seed N --seconds S --trace 0|1 [--out DIR]
  perfbench compare DIR_A DIR_B [--benchmark BENCHMARK.json]";

/// Results land inside the benchmark's own directory by default.
const DEFAULT_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out/runs");

fn parse_run(args: &[String]) -> Result<(Config, PathBuf), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(DEFAULT_OUT);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                });
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let config = Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
    };
    Ok((config, out))
}

fn write_file(path: &Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn run_command(args: &[String]) -> ExitCode {
    let (config, out) = match parse_run(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run::run(&config);
    let meta = Meta::collect();
    print!("{}", output::text(&config, &report, &meta));

    match std::fs::create_dir_all(&out) {
        Ok(()) => {
            let stem = format!(
                "{}-seed{}-trace{}",
                config.workload.name(),
                config.seed,
                u8::from(config.trace)
            );
            write_file(
                &out.join(format!("{stem}.json")),
                &output::file_json(&config, &report, &meta),
            );
            if let Some(spans) = &report.spans_json {
                let path = out.join(format!("{stem}.spans.json"));
                write_file(&path, spans);
                println!("  spans written to {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not create {}: {e}", out.display()),
    }

    println!("{}", output::result_line(&report));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn compare_command(args: &[String]) -> ExitCode {
    let mut dirs = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            match it.next() {
                Some(path) => benchmark = PathBuf::from(path),
                None => {
                    eprintln!("--benchmark needs a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        } else {
            dirs.push(PathBuf::from(arg));
        }
    }
    let [a, b] = dirs.as_slice() else {
        eprintln!("compare takes two result directories\n{USAGE}");
        return ExitCode::from(2);
    };
    let loaded = std::fs::read_to_string(&benchmark)
        .map_err(|e| format!("{}: {e}", benchmark.display()))
        .and_then(|text| compare::gates(&text))
        .and_then(|gates| Ok((gates, RunSet::load(a)?, RunSet::load(b)?)));
    match loaded {
        Ok((gates, set_a, set_b)) => {
            let (table, ok) = compare::compare(&set_a, &set_b, &gates);
            print!("{table}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare_command(&args[1..]),
        Some(_) => run_command(&args),
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
