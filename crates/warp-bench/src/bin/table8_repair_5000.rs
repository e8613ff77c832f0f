//! Regenerates Table 8: repair scaling with workload size.
fn main() {
    let args = warp_bench::cli::bench_args(
        "table8_repair_5000",
        "Regenerates Table 8: repair scaling with workload size. \
         With --workers, also times sequential vs partitioned parallel repair. With \
         --frontier, also measures column-aware vs partition-grained frontier pruning.",
        "MAX_USERS",
        40,
    );
    warp_bench::table8_scaling(&[args.scale / 4, args.scale]);
    if args.workers.is_some() || args.json.is_some() {
        let workers = args.workers.unwrap_or(4);
        let records = warp_bench::repair_benchmark(
            "table8_repair_5000",
            &[args.scale / 4, args.scale],
            workers,
        );
        if let Some(path) = args.json {
            warp_bench::cli::write_report(&path, &records);
        }
    }
    if let Some(path) = args.frontier {
        let records = warp_bench::frontier_benchmark("table8_repair_5000", args.scale);
        warp_bench::cli::write_report(&path, &records);
    }
}
