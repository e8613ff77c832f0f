//! Regenerates Table 7: repair performance, including the victims-at-start variant.
fn main() {
    let args = warp_bench::cli::bench_args(
        "table7_repair_100",
        "Regenerates Table 7: repair performance, including the victims-at-start variant. \
         With --workers, also times sequential vs partitioned parallel repair. With \
         --frontier, also measures column-aware vs partition-grained frontier pruning.",
        "USERS",
        20,
    );
    warp_bench::table3_and_7(args.scale, false);
    warp_bench::table3_and_7(args.scale, true);
    if args.workers.is_some() || args.json.is_some() {
        let workers = args.workers.unwrap_or(4);
        let records = warp_bench::repair_benchmark("table7_repair_100", &[args.scale], workers);
        if let Some(path) = args.json {
            warp_bench::cli::write_report(&path, &records);
        }
    }
    if let Some(path) = args.frontier {
        let records = warp_bench::frontier_benchmark("table7_repair_100", args.scale);
        warp_bench::cli::write_report(&path, &records);
    }
}
