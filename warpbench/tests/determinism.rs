//! The benchmark's own checks: at a small size, every workload passes all
//! of its correctness checks on two seeds, the counts it reports repeat
//! exactly across two runs of one seed, and it reports exactly the metric
//! names `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use warpbench::report::Report;
use warpbench::{run, RunOptions, WORKLOADS};

fn small(seed: u64, trace: bool) -> RunOptions {
    RunOptions {
        seed,
        seconds: 1,
        trace,
        scale: 0.05,
    }
}

fn values(report: &Report, traced: bool) -> BTreeMap<String, f64> {
    let metrics = if traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    metrics
        .0
        .iter()
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

/// Metrics that are counts of work done, which must repeat exactly.
const EXACT_UNTRACED: [&str; 2] = ["store_bytes_per_request", "success_share"];
const EXACT_TRACED: [&str; 25] = [
    "store.appends_per_request",
    "store.append_bytes_per_request",
    "store.syncs",
    "store.atomic_writes",
    "store.atomic_bytes",
    "writer.records",
    "writer.batches",
    "writer.largest_batch",
    "ttdb.versions",
    "ttdb.live_rows",
    "history.actions",
    "gc.actions_removed",
    "gc.versions_removed",
    "recover.records_replayed",
    "recover.from_checkpoint",
    "repair.app_runs_reexecuted",
    "repair.app_runs_total",
    "repair.reexec_share",
    "repair.queries_reexecuted",
    "repair.page_visits_reexecuted",
    "repair.partitions_total",
    "repair.escalations",
    "repair.bounded_clone_fallbacks",
    "repair.dirty_rows",
    "repair.conflicts",
];

#[test]
fn counts_repeat_exactly_for_a_seed() {
    for workload in WORKLOADS {
        for (traced, exact) in [(false, &EXACT_UNTRACED[..]), (true, &EXACT_TRACED[..])] {
            let first = run(workload, &small(5, traced)).expect("known workload");
            let second = run(workload, &small(5, traced)).expect("known workload");
            assert!(first.correct(), "{workload}: {}", first.render(traced));
            let (a, b) = (values(&first, traced), values(&second, traced));
            for name in exact {
                assert_eq!(a.get(*name), b.get(*name), "{workload} {name} must repeat");
                assert!(a.contains_key(*name), "{workload} must report {name}");
            }
            assert_eq!(
                first.checks.attempted, second.checks.attempted,
                "{workload}: checked operations must repeat"
            );
        }
    }
}

#[test]
fn a_second_seed_passes_every_check() {
    for workload in WORKLOADS {
        for traced in [false, true] {
            let report = run(workload, &small(9, traced)).expect("known workload");
            assert!(report.correct(), "{workload}: {}", report.render(traced));
        }
    }
}

#[test]
fn attack_repair_counts_the_known_victims_at_start_failures() {
    let report = run("attack_repair", &small(5, false)).expect("known workload");
    for known in &report.checks.known {
        assert!(
            known.contains("victims at start")
                && (known.starts_with("SQL injection") || known.starts_with("ACL error")),
            "only the documented scenarios may be excused: {known}"
        );
    }
    let share = values(&report, false)["success_share"];
    let expected = report.checks.passed as f64 / report.checks.attempted as f64;
    assert_eq!(share, expected, "known failures stay in the denominator");
}

/// Metric names declared under `key` in `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} in BENCHMARK.json"));
    let section = &text[start..];
    let end = section.find(']').expect("section closes");
    section[..end]
        .split("\"name\":")
        .skip(1)
        .map(|rest| {
            rest.trim()
                .trim_start_matches('"')
                .split('"')
                .next()
                .expect("quoted name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_reports_exactly_the_declared_metrics() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    let workloads = declared("workloads");
    assert_eq!(workloads, WORKLOADS);
    for workload in WORKLOADS {
        for (traced, names) in [(false, &e2e), (true, &layers)] {
            let report = run(workload, &small(3, traced)).expect("known workload");
            let reported: Vec<String> = values(&report, traced).into_keys().collect();
            let mut expected = names.clone();
            expected.sort();
            assert_eq!(reported, expected, "{workload} traced={traced}");
        }
    }
}
