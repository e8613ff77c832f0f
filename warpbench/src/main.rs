//! Command line of the Warp benchmark.
//!
//! ```text
//! warpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric by name with its unit and sample count, the
//! correctness verdict, and as the last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
//! untraced, per-layer metrics traced).

use std::process::ExitCode;
use warpbench::{run, RunOptions, WORKLOADS};

fn usage() -> String {
    format!(
        "usage: warpbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<(String, RunOptions), String> {
    let mut workload = None;
    let mut opts = RunOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("an integer"))?;
                if opts.seconds == 0 {
                    return Err(bad("at least 1"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("warpbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = run(&workload, &opts).expect("workload names are checked by parse");
    print!("{}", report.render(opts.trace));
    println!("{}", report.json(opts.trace));
    ExitCode::SUCCESS
}
