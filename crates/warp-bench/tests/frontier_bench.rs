//! The frontier benchmark must produce records that pass its own CI gate:
//! ≥ 5x fewer re-executed history nodes column-aware vs partition-grained,
//! with byte-identical canonical dumps.

use warp_bench::report::evaluate_frontier_gate;

#[test]
fn frontier_benchmark_passes_its_own_gate() {
    let records = warp_bench::frontier_benchmark("frontier_smoke", 8);
    assert_eq!(records.len(), 2);
    let verdict = evaluate_frontier_gate(&records).expect("both modes recorded");
    assert!(
        verdict.pass,
        "frontier gate must pass at smoke scale: {verdict:?}"
    );
}
