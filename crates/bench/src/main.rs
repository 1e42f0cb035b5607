//! `cargo run -p basecache-bench --release` — the headline planner
//! benchmark suite, including the observability overhead comparison.
//! Writes `BENCH_planner.json` at the repo root; see
//! [`basecache_bench::planner_suite`] for what is measured (`cargo bench
//! -p basecache-bench --bench planner` runs the same suite). Its
//! regression gate is `basecache-trace diff`, which compares a fresh
//! `BENCH_planner.json` against the committed baseline.
//!
//! `cargo run -p basecache-bench --release -- massive [--smoke]` runs
//! the round-engine suite ([`basecache_bench::massive_suite`]) on its
//! own, without rewriting the JSON.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `massive [--smoke]`: the round-engine suite standalone — `--smoke`
    // runs it at reduced scale (scripts/check.sh uses this so the
    // pipeline executes on every check).
    if args.first().map(String::as_str) == Some("massive") {
        basecache_bench::massive_suite::run_standalone(args.iter().any(|a| a == "--smoke"));
    } else {
        basecache_bench::planner_suite::run();
    }
}
