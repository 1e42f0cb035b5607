//! The benchmark's own tests: every workload runs at tiny scale with
//! every check passing and every metric printed with its unit, and the
//! output checker catches corrupted outcomes.

use basecache_core::RoundOutcome;
use basecache_perfbench::output::{self, Meta};
use basecache_perfbench::run::{self, Config, Report, END_TO_END, PER_LAYER};
use basecache_perfbench::workloads::{check_round, Scale, Workload};

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
    }
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

fn assert_prints(config: &Config, report: &Report, list: &[(&str, &str)]) {
    let text = output::text(config, report, &Meta::collect());
    let line = output::result_line(report);
    for &(name, unit) in list {
        let row = text
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("{name} not printed:\n{text}"));
        assert!(
            row.ends_with(&format!(" {unit}")),
            "{name} printed without {unit}: {row}"
        );
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": "))
                && line.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} missing from the result line: {line}"
        );
    }
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

#[test]
fn every_workload_runs_tiny_with_every_metric_and_check() {
    for workload in Workload::ALL {
        let config = tiny(workload, false);
        let timed = run::run(&config);
        assert!(timed.correct, "{}: {:?}", workload.name(), timed.notes);
        assert_eq!(timed.failed, 0);
        assert_prints(&config, &timed, &END_TO_END);

        let config = tiny(workload, true);
        let traced = run::run(&config);
        assert!(
            traced.correct,
            "{} traced: {:?}",
            workload.name(),
            traced.notes
        );
        assert_prints(&config, &traced, &PER_LAYER);
        assert_eq!(
            traced.digest,
            timed.digest,
            "{}: traced and timed runs of one seed diverged",
            workload.name()
        );
        assert!(traced
            .spans_json
            .as_deref()
            .is_some_and(|s| s.contains("\"round\"")));

        let stages: f64 = [
            "station.recency_ms",
            "station.plan_ms",
            "station.refresh_ms",
            "station.serve_ms",
            "station.fetch_ms",
            "station.unattributed_ms",
        ]
        .iter()
        .map(|n| value(&traced, n))
        .sum();
        let step = value(&traced, "station.step_ms");
        assert!(step > 0.0, "{}: no station step recorded", workload.name());
        assert!(
            (stages - step).abs() <= 1e-9 * step,
            "{}: stages {stages} do not sum to step {step}",
            workload.name()
        );
    }
}

#[test]
fn simulated_metrics_and_digest_repeat_exactly_for_a_seed() {
    for workload in [Workload::PaperFlight, Workload::ClusterL2] {
        let a = run::run(&tiny(workload, false));
        let b = run::run(&tiny(workload, false));
        assert_eq!(a.digest, b.digest);
        for name in [
            "score_mean",
            "origin_units_per_request",
            "response_rounds_mean",
        ] {
            assert_eq!(
                value(&a, name).to_bits(),
                value(&b, name).to_bits(),
                "{name}"
            );
        }
        let other = run::run(&Config {
            seed: 8,
            ..tiny(workload, false)
        });
        assert_ne!(a.digest, other.digest, "another seed gives other inputs");
    }
}

fn valid_outcome() -> RoundOutcome {
    RoundOutcome {
        tick: 3,
        objects_downloaded: 2,
        units_downloaded: 10,
        average_recency: 0.9,
        average_score: 0.95,
        served: 5,
        cache_hits: 3,
        arrived: 2,
        launched: 2,
        joined: 0,
        served_immediately: 4,
        served_after_wait: 1,
        still_waiting: 2,
    }
}

#[test]
fn the_checker_passes_a_valid_round() {
    // 10 units spent of a 10-unit budget; 7 requests pending, 5 served
    // and 2 still waiting.
    assert_eq!(check_round(&valid_outcome(), 10, 10, 7), Ok(()));
}

#[test]
fn the_checker_catches_corrupted_outcomes() {
    let ok = valid_outcome();
    let overshoot = check_round(&ok, 11, 10, 7).unwrap_err();
    assert!(overshoot.contains("over budget"), "{overshoot}");

    let lost = check_round(&ok, 10, 10, 8).unwrap_err();
    assert!(lost.contains("pending"), "{lost}");

    for bad in [
        RoundOutcome {
            average_score: 1.2,
            ..ok
        },
        RoundOutcome {
            average_score: f64::NAN,
            ..ok
        },
        RoundOutcome {
            average_recency: -0.1,
            ..ok
        },
        RoundOutcome {
            cache_hits: 6,
            ..ok
        },
    ] {
        assert!(check_round(&bad, 10, 10, 7).is_err(), "{bad:?} passed");
    }
}
