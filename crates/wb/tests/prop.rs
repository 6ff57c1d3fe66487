//! Property tests: random workloads and crash schedules through the
//! write-back system, judged by the discard-aware single-copy oracle.

use lease_clock::{Dur, Time};
use lease_faults::check_history;
use lease_vsys::{CrashEvent, NodeSel};
use lease_wb::{run_wb_with_history, WbClientConfig, WbConfig};
use lease_workload::PoissonWorkload;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random rates, sharing, terms, and flush intervals: consistent.
    #[test]
    fn random_writeback_runs_are_consistent(
        seed in 0u64..1000,
        term_s in 1u64..20,
        flush_s in 1u64..30,
        s in 1u32..4,
        w_rate in 0.05f64..1.0,
    ) {
        let trace = PoissonWorkload {
            n: s * 2,
            r: 1.0,
            w: w_rate,
            s,
            duration: Dur::from_secs(120),
            seed,
        }
        .generate();
        let cfg = WbConfig {
            term: Dur::from_secs(term_s),
            client: WbClientConfig {
                flush_interval: Dur::from_secs(flush_s),
                ..WbClientConfig::default()
            },
            seed,
            ..WbConfig::default()
        };
        let (r, h) = run_wb_with_history(&cfg, &trace);
        prop_assert_eq!(r.op_failures, 0);
        let res = check_history(&h.borrow());
        prop_assert!(res.is_ok(), "violations: {:?}", res.err());
    }

    /// Random client crashes: buffered writes may be lost, consistency may
    /// not.
    #[test]
    fn random_crashes_lose_writes_not_consistency(
        seed in 0u64..1000,
        crash_at in 10u64..100,
        victim in 0u32..4,
        comeback in proptest::option::of(5u64..30),
    ) {
        let trace = PoissonWorkload {
            n: 4,
            r: 1.0,
            w: 0.4,
            s: 2,
            duration: Dur::from_secs(120),
            seed,
        }
        .generate();
        let cfg = WbConfig {
            crashes: vec![CrashEvent {
                at: Time::from_secs(crash_at),
                node: NodeSel::Client(victim),
                recover_at: comeback.map(|d| Time::from_secs(crash_at + d)),
            }],
            seed,
            ..WbConfig::default()
        };
        let (_, h) = run_wb_with_history(&cfg, &trace);
        let res = check_history(&h.borrow());
        prop_assert!(res.is_ok(), "violations: {:?}", res.err());
    }
}
