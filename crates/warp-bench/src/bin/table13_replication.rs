//! Regenerates "Table 13" (a replication addition over the paper):
//! steady-state standby lag under the concurrent serving workload, and
//! failover time — promoting the warm standby — against cold log-replay
//! over the primary's full history.
fn main() {
    let args = warp_bench::cli::bench_args(
        "table13_replication",
        "Measures log-shipping replication: standby lag (in log records) \
         while client threads hammer the primary, and the cost of promoting \
         the warm standby after the primary dies versus cold-replaying the \
         primary's full log. The standby checkpoints as it applies, so \
         promotion should beat cold replay by a growing margin as the \
         history grows.",
        "ACTIONS",
        400,
    );
    let records = warp_bench::table13_replication(args.scale);
    if let Some(path) = args.json {
        warp_bench::cli::write_report(&path, &records);
    }
}
