//! Smoke tests for the report binaries: every `table*` bin (and
//! `loc_report`) must answer `--help` with exit status 0, and the
//! scale-taking bins must complete a trivial-size run. This keeps the
//! binaries that regenerate the paper's tables from silently rotting — they
//! are compiled and executed on every `cargo test`.

use std::path::{Path, PathBuf};
use std::process::Command;
use warp_bench::report::gates;

/// `(path, trivial-mode args)` for every report binary in this crate.
/// `CARGO_BIN_EXE_*` is set by cargo for the package's own binaries.
const BINS: &[(&str, &[&str])] = &[
    (env!("CARGO_BIN_EXE_loc_report"), &[]),
    (env!("CARGO_BIN_EXE_table2_attacks"), &[]),
    (env!("CARGO_BIN_EXE_table3_recovery"), &["2"]),
    (env!("CARGO_BIN_EXE_table4_browser"), &["1"]),
    (env!("CARGO_BIN_EXE_table5_comparison"), &[]),
    (env!("CARGO_BIN_EXE_table6_overhead"), &["3"]),
    (env!("CARGO_BIN_EXE_table7_repair_100"), &["2"]),
    (env!("CARGO_BIN_EXE_table8_repair_5000"), &["4"]),
    (env!("CARGO_BIN_EXE_table9_recovery"), &["6"]),
    (env!("CARGO_BIN_EXE_table10_commit"), &["50"]),
    (env!("CARGO_BIN_EXE_table11_serve"), &["40"]),
    (env!("CARGO_BIN_EXE_table12_storage"), &["40"]),
    (env!("CARGO_BIN_EXE_table13_replication"), &["40"]),
    (env!("CARGO_BIN_EXE_bench_gate"), &["--help"]),
];

#[test]
fn every_table_bin_answers_help() {
    for (bin, _) in BINS {
        let out = Command::new(bin).arg("--help").output().expect("spawn");
        assert!(out.status.success(), "{bin} --help exited {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("usage:"),
            "{bin} --help printed no usage: {stdout}"
        );
    }
}

#[test]
fn every_table_bin_runs_in_trivial_mode() {
    for (bin, args) in BINS {
        let out = Command::new(bin).args(*args).output().expect("spawn");
        assert!(
            out.status.success(),
            "{bin} {args:?} exited {:?}\nstderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(!out.stdout.is_empty(), "{bin} {args:?} printed nothing");
    }
}

fn temp_report(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("warp-bench-smoke-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Runs a table binary with `--json`-style `args` and returns the text of
/// the report it wrote to `report`.
fn run_table(bin: &str, args: &[&str], report: &Path) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("spawn table bin");
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(report).unwrap_or_else(|e| panic!("{bin} wrote no report: {e}"))
}

/// The CI benchmark-report flow end to end: every table binary writes its
/// machine-readable report at trivial scale, and one `bench_gate` run
/// evaluates all seven at the real thresholds. Trivial-scale timings may
/// miss a threshold, so this checks the plumbing (every gate reads its
/// report and prints a verdict; exit 1 at worst, never 2), while the unit
/// tests in `report.rs` check each gate's pass/fail logic.
#[test]
fn bench_report_and_gate_flow() {
    let [repair, frontier, recovery, commit, serve, storage, replication] = [
        "BENCH_repair.json",
        "BENCH_frontier.json",
        "BENCH_recovery.json",
        "BENCH_commit.json",
        "BENCH_serve.json",
        "BENCH_storage.json",
        "BENCH_replication.json",
    ]
    .map(temp_report);
    let path = |p: &PathBuf| p.to_str().expect("utf-8 temp path").to_string();
    let text = run_table(
        env!("CARGO_BIN_EXE_table7_repair_100"),
        &[
            "3",
            "--workers",
            "2",
            "--json",
            &path(&repair),
            "--frontier",
            &path(&frontier),
        ],
        &repair,
    );
    assert!(
        text.contains("\"table\":\"table7_repair_100\""),
        "unexpected report: {text}"
    );
    assert!(text.contains("\"workers\":2"));
    assert!(
        text.contains("\"workers\":0"),
        "sequential baseline records must be present"
    );
    let text = std::fs::read_to_string(&frontier).expect("frontier report written");
    assert!(text.contains("\"mode\":\"column_aware\""));
    assert!(text.contains("\"mode\":\"partition_grained\""));
    run_table(
        env!("CARGO_BIN_EXE_table9_recovery"),
        &["6", "--json", &path(&recovery)],
        &recovery,
    );
    let text = run_table(
        env!("CARGO_BIN_EXE_table10_commit"),
        &["50", "--json", &path(&commit)],
        &commit,
    );
    assert!(text.contains("\"mode\":\"delta\""));
    assert!(text.contains("\"mode\":\"snapshot\""));
    let text = run_table(
        env!("CARGO_BIN_EXE_table11_serve"),
        &["40", "--json", &path(&serve)],
        &serve,
    );
    for tier in ["relaxed", "group", "immediate"] {
        assert!(
            text.contains(&format!("\"durability\":\"{tier}\"")),
            "serve report missing tier {tier}: {text}"
        );
    }
    let text = run_table(
        env!("CARGO_BIN_EXE_table12_storage"),
        &["40", "--json", &path(&storage)],
        &storage,
    );
    assert!(text.contains("\"kind\":\"serve\""));
    assert!(text.contains("\"mode\":\"incremental\""));
    assert!(text.contains("\"mode\":\"whole_state\""));
    let text = run_table(
        env!("CARGO_BIN_EXE_table13_replication"),
        &["40", "--json", &path(&replication)],
        &replication,
    );
    assert!(text.contains("\"kind\":\"lag\""));
    assert!(text.contains("\"kind\":\"failover\""));

    let out = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .arg(&repair)
        .arg("--recovery")
        .arg(&recovery)
        .arg("--commit")
        .arg(&commit)
        .arg("--serve")
        .arg(&serve)
        .arg("--frontier")
        .arg(&frontier)
        .arg("--storage")
        .arg(&storage)
        .arg("--replication")
        .arg(&replication)
        .output()
        .expect("spawn bench_gate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "seven-report bench_gate exited {:?}: stdout={stdout} stderr={}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let names = [
        "repair",
        "recovery",
        "commit",
        "serve",
        "shards",
        "frontier",
        "storage",
        "replication",
    ];
    assert_eq!(names.len(), gates().len());
    for name in names {
        let verdict = |word: &str| stdout.contains(&format!("bench_gate: {name}: {word}"));
        assert!(
            verdict("PASS") || verdict("FAIL") || verdict("SKIP"),
            "gate `{name}` printed no verdict: {stdout}"
        );
    }

    // A missing report is an error, never a silent pass: for the required
    // report and for every flag.
    for gate in gates() {
        let missing = format!("/nonexistent/{}", gate.report);
        let mut command = Command::new(env!("CARGO_BIN_EXE_bench_gate"));
        match gate.flag {
            Some(flag) => command.arg(&repair).arg(flag).arg(&missing),
            None => command.arg(&missing),
        };
        let out = command.output().expect("spawn bench_gate");
        assert_eq!(
            out.status.code(),
            Some(2),
            "missing {} must exit 2",
            gate.report
        );
    }

    for report in [
        repair,
        frontier,
        recovery,
        commit,
        serve,
        storage,
        replication,
    ] {
        let _ = std::fs::remove_file(report);
    }
}
