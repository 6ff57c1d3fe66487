//! The sweep runner's central promise: parallelism changes wall-clock,
//! never results. Each task is a self-contained deterministic simulation,
//! results merge in task order, so any thread count serializes to the
//! same bytes.

use lease_bench::run_sim_sweep;
use lease_workload::VTrace;

#[test]
fn sweep_output_is_byte_identical_across_thread_counts() {
    let trace = VTrace::calibrated(1989).generate();
    let seeds = [7u64, 8];
    let terms = [0.0, 1.0, 10.0];
    let serial = run_sim_sweep(&trace, &seeds, &terms, 1);
    for threads in [2, 4] {
        let parallel = run_sim_sweep(&trace, &seeds, &terms, threads);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap(),
            "threads={threads} must serialize to the same bytes as serial"
        );
    }
}

#[test]
fn sweep_rows_are_seed_major_grid_order() {
    let trace = VTrace::calibrated(1989).generate();
    let rows = run_sim_sweep(&trace, &[7, 8], &[0.0, 10.0], 4);
    let grid: Vec<(u64, f64)> = rows.iter().map(|r| (r.seed, r.term_s)).collect();
    assert_eq!(grid, vec![(7, 0.0), (7, 10.0), (8, 0.0), (8, 10.0)]);
}
