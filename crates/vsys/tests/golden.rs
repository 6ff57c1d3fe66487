//! Golden reports: the whole `RunReport` of two fixed simulations, as
//! `Debug` text.
//!
//! A change that only makes the simulator faster must leave every count
//! it reports where it was. These strings were recorded before the
//! renewal path lost its sort and its SipHash; a change that moves one
//! of them changed the protocol's behaviour, not its speed, and must say
//! so (and re-record them) on purpose.

use lease_clock::Dur;
use lease_vsys::{run_trace, RunReport, SystemConfig, TermSpec};
use lease_workload::{PoissonWorkload, VTrace};

fn fixed(term_secs: u64) -> SystemConfig {
    SystemConfig {
        term: TermSpec::Fixed(Dur::from_secs(term_secs)),
        ..SystemConfig::default()
    }
}

fn text(r: &RunReport) -> String {
    format!("{r:#?}")
}

/// The V compile trace at the benchmark's 120 modules (`sim_vtrace`):
/// one client, every held lease riding every miss.
#[test]
fn vtrace_120_modules_report_is_pinned() {
    let trace = VTrace::scaled(1, 120).generate();
    assert_eq!(text(&run_trace(&fixed(10), &trace)), VTRACE_120);
}

/// `determinism_same_seed_same_report`'s shared Poisson workload: four
/// clients with writes, so approvals and concurrent requests are in it.
#[test]
fn shared_poisson_report_is_pinned() {
    let trace = PoissonWorkload::v_rates(4, 4, Dur::from_secs(300), 21).generate();
    assert_eq!(text(&run_trace(&fixed(10), &trace)), SHARED_POISSON);
}

const VTRACE_120: &str = r"RunReport {
    consistency_msgs: 608,
    data_msgs: 242,
    approval_msgs: 0,
    hits: 2344,
    remote_reads: 304,
    writes: 121,
    temp_ops: 360,
    op_failures: 0,
    read_delay: HistogramSummary {
        count: 2648,
        mean: 0.00034590193429003045,
        min: 0.0,
        max: 0.004493357,
        p50: 0.0,
        p95: 0.003,
        p99: 0.003,
    },
    write_delay: HistogramSummary {
        count: 121,
        mean: 0.0030132239338842995,
        min: 0.003,
        max: 0.004017309,
        p50: 0.003,
        p95: 0.003,
        p99: 0.003582787,
    },
    all_delay: HistogramSummary {
        count: 2769,
        mean: 0.0004624588002889098,
        min: 0.0,
        max: 0.004493357,
        p50: 0.0,
        p95: 0.003,
        p99: 0.003,
    },
    window_secs: 3131.019072099,
    sim_events: 4406,
}";

const SHARED_POISSON: &str = r"RunReport {
    consistency_msgs: 511,
    data_msgs: 100,
    approval_msgs: 183,
    hits: 858,
    remote_reads: 164,
    writes: 50,
    temp_ops: 0,
    op_failures: 0,
    read_delay: HistogramSummary {
        count: 1022,
        mean: 0.00048140900195694754,
        min: 0.0,
        max: 0.003,
        p50: 0.0,
        p95: 0.003,
        p99: 0.003,
    },
    write_delay: HistogramSummary {
        count: 50,
        mean: 0.006750000000000005,
        min: 0.003,
        max: 0.007,
        p50: 0.007,
        p95: 0.007,
        p99: 0.007,
    },
    all_delay: HistogramSummary {
        count: 1072,
        mean: 0.0007737873134328363,
        min: 0.0,
        max: 0.007,
        p50: 0.0,
        p95: 0.003,
        p99: 0.007,
    },
    window_secs: 419.797071065,
    sim_events: 2037,
}";
