//! Golden reports of the §6 baselines: the whole `RunReport` of the
//! Andrew callback server and the NFS TTL server on one small Poisson
//! run, fault-free and with two clients cut off for a minute, as `Debug`
//! text.
//!
//! The strings were recorded while each baseline was still an actor of
//! its own that counted its messages by name. A change to how a baseline
//! runs or is counted must leave them as they are; one that moves a count
//! changed the protocol, and must say so (and re-record them) on purpose.

use lease_baselines::Baseline;
use lease_clock::Dur;
use lease_vsys::SystemConfig;
use lease_workload::PoissonWorkload;

const ANDREW: Baseline = Baseline::AndrewCallbacks {
    poll: Some(Dur::from_secs(600)),
};
const NFS: Baseline = Baseline::NfsTtl {
    ttl: Dur::from_secs(30),
};

/// Four clients with writes, the `baselines` binary's warm-up and
/// retries; with `cut`, clients 0 and 1 are unreachable from 100 s to
/// 160 s.
fn report(b: Baseline, cut: bool) -> String {
    let trace = PoissonWorkload::v_rates(4, 4, Dur::from_secs(300), 21).generate();
    let mut cfg = SystemConfig {
        warmup: Dur::from_secs(60),
        ..SystemConfig::default()
    };
    cfg.client.max_retries = 500;
    if cut {
        let (from, until) = (Dur::from_secs(100), Dur::from_secs(160));
        cfg.faults = cfg.faults.cut(from, until, 0).cut(from, until, 1);
    }
    format!("{:#?}", b.run(&cfg, &trace).0)
}

#[test]
fn andrew_fault_free_report_is_pinned() {
    assert_eq!(report(ANDREW, false), ANDREW_FREE);
}

#[test]
fn andrew_cut_report_is_pinned() {
    assert_eq!(report(ANDREW, true), ANDREW_CUT);
}

#[test]
fn nfs_fault_free_report_is_pinned() {
    assert_eq!(report(NFS, false), NFS_FREE);
}

#[test]
fn nfs_cut_report_is_pinned() {
    assert_eq!(report(NFS, true), NFS_CUT);
}

const ANDREW_FREE: &str = r"RunReport {
    consistency_msgs: 317,
    data_msgs: 70,
    approval_msgs: 131,
    hits: 722,
    remote_reads: 93,
    writes: 35,
    temp_ops: 0,
    op_failures: 0,
    read_delay: HistogramSummary {
        count: 815,
        mean: 0.00034233128834355853,
        min: 0.0,
        max: 0.003,
        p50: 0.0,
        p95: 0.003,
        p99: 0.003,
    },
    write_delay: HistogramSummary {
        count: 35,
        mean: 0.003485714285714288,
        min: 0.003,
        max: 0.0035,
        p50: 0.0035,
        p95: 0.0035,
        p99: 0.0035,
    },
    all_delay: HistogramSummary {
        count: 850,
        mean: 0.0004717647058823533,
        min: 0.0,
        max: 0.0035,
        p50: 0.0,
        p95: 0.003,
        p99: 0.0035,
    },
    window_secs: 359.797071065,
    sim_events: 1901,
}";

const ANDREW_CUT: &str = r"RunReport {
    consistency_msgs: 265,
    data_msgs: 70,
    approval_msgs: 111,
    hits: 684,
    remote_reads: 131,
    writes: 35,
    temp_ops: 0,
    op_failures: 0,
    read_delay: HistogramSummary {
        count: 815,
        mean: 2.0818029705165597,
        min: 0.0,
        max: 58.503,
        p50: 0.0,
        p95: 19.157812428,
        p99: 48.576438874,
    },
    write_delay: HistogramSummary {
        count: 35,
        mean: 2.5034428571428586,
        min: 0.003,
        max: 34.003,
        p50: 0.0035,
        p95: 23.0035,
        p99: 34.003,
    },
    all_delay: HistogramSummary {
        count: 850,
        mean: 2.0991646129070545,
        min: 0.0,
        max: 58.503,
        p50: 0.0,
        p95: 19.157812428,
        p99: 48.576438874,
    },
    window_secs: 359.797071065,
    sim_events: 2123,
}";

const NFS_FREE: &str = r"RunReport {
    consistency_msgs: 28,
    data_msgs: 70,
    approval_msgs: 0,
    hits: 801,
    remote_reads: 14,
    writes: 35,
    temp_ops: 0,
    op_failures: 0,
    read_delay: HistogramSummary {
        count: 815,
        mean: 5.153374233128835e-5,
        min: 0.0,
        max: 0.003,
        p50: 0.0,
        p95: 0.0,
        p99: 0.003,
    },
    write_delay: HistogramSummary {
        count: 35,
        mean: 0.0030000000000000014,
        min: 0.003,
        max: 0.003,
        p50: 0.003,
        p95: 0.003,
        p99: 0.003,
    },
    all_delay: HistogramSummary {
        count: 850,
        mean: 0.00017294117647058833,
        min: 0.0,
        max: 0.003,
        p50: 0.0,
        p95: 0.003,
        p99: 0.003,
    },
    window_secs: 359.797071065,
    sim_events: 1287,
}";

const NFS_CUT: &str = r"RunReport {
    consistency_msgs: 34,
    data_msgs: 70,
    approval_msgs: 0,
    hits: 735,
    remote_reads: 80,
    writes: 35,
    temp_ops: 0,
    op_failures: 0,
    read_delay: HistogramSummary {
        count: 815,
        mean: 1.8156397730650298,
        min: 0.0,
        max: 47.004265246,
        p50: 0.0,
        p95: 18.067765313,
        p99: 36.470380875,
    },
    write_delay: HistogramSummary {
        count: 35,
        mean: 2.503035192857143,
        min: 0.003,
        max: 34.003,
        p50: 0.003,
        p95: 23.003,
        p99: 34.003,
    },
    all_delay: HistogramSummary {
        count: 850,
        mean: 1.8439442903505856,
        min: 0.0,
        max: 47.004265246,
        p50: 0.0,
        p95: 18.067765313,
        p99: 36.470380875,
    },
    window_secs: 359.797071065,
    sim_events: 1633,
}";
