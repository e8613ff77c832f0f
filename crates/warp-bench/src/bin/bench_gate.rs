//! The CI benchmark-regression gate.
//!
//! Reads the required `BENCH_repair.json` report and every optional report
//! named by a flag, runs each gate of [`warp_bench::report::gates`] over
//! its report and prints the figures it judged. Exit code 1 means a gate
//! found a regression; exit code 2 means a report was missing or
//! incomplete — the gate never passes silently on missing data.

use std::path::PathBuf;
use warp_bench::report::{gates, load_records, Gate};

fn usage(gates: &[Gate]) {
    let mut line = String::from("usage: bench_gate");
    let mut listed: Vec<Option<&str>> = Vec::new();
    for gate in gates {
        if listed.contains(&gate.flag) {
            continue;
        }
        listed.push(gate.flag);
        match gate.flag {
            Some(flag) => line += &format!(" [{flag} {}]", gate.report),
            None => line += &format!(" {}", gate.report),
        }
    }
    println!("{line}");
    println!();
    println!("Runs each gate over its report; exit 1 if any gate fails:");
    for gate in gates {
        println!(
            "  {:<17} {}",
            gate.flag.unwrap_or(gate.report),
            gate.description
        );
    }
    println!("Exit 2: a report is missing or holds no comparable records.");
}

/// The report path each gate reads (`None`: the gate is not run).
fn parse_args(raw: &[String], gates: &[Gate]) -> Result<Vec<Option<PathBuf>>, String> {
    let mut paths: Vec<(Option<&str>, PathBuf)> = Vec::new();
    let mut args = raw.iter();
    while let Some(arg) = args.next() {
        if arg.starts_with("--") {
            let flag = gates
                .iter()
                .find_map(|g| g.flag.filter(|f| f == arg))
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            let path = args
                .next()
                .ok_or_else(|| format!("{flag} requires a path"))?;
            paths.push((Some(flag), PathBuf::from(path)));
        } else if paths.iter().any(|(flag, _)| flag.is_none()) {
            return Err(format!("unexpected argument `{arg}`"));
        } else {
            paths.push((None, PathBuf::from(arg)));
        }
    }
    if !paths.iter().any(|(flag, _)| flag.is_none()) {
        return Err("missing BENCH_repair.json path".to_string());
    }
    Ok(gates
        .iter()
        .map(|g| {
            paths
                .iter()
                .rev()
                .find(|(flag, _)| *flag == g.flag)
                .map(|(_, path)| path.clone())
        })
        .collect())
}

fn main() {
    let gates = gates();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw.iter().any(|a| a == "--help" || a == "-h") {
        usage(&gates);
        std::process::exit(if raw.is_empty() { 2 } else { 0 });
    }
    let paths = parse_args(&raw, &gates).unwrap_or_else(|e| {
        eprintln!("bench_gate: {e}");
        usage(&gates);
        std::process::exit(2);
    });
    let mut failed = false;
    for (gate, path) in gates.iter().zip(paths) {
        let Some(path) = path else { continue };
        let verdict = load_records(&path)
            .and_then(|records| (gate.evaluate)(&records))
            .unwrap_or_else(|e| {
                eprintln!("bench_gate: {e}");
                std::process::exit(2);
            });
        for line in verdict.lines() {
            println!("bench_gate: {line}");
        }
        failed |= !verdict.pass;
    }
    if failed {
        std::process::exit(1);
    }
}
