//! The simulator behind every figure allocates less than once per event.
//!
//! An event that reaches an actor hands its cache or server one input
//! and applies what comes back; the outputs land in a buffer the actor
//! keeps, a cancelled timer is a freed slot in the world's slab, and a
//! reply's grants are built in place. What allocates is what the
//! protocol sends: the messages' own grant and renewal lists. So the V
//! compile trace at `sim_vtrace`'s size (120 modules, seed 1, 10 s terms)
//! must cost at most one allocation per simulated event; a buffer
//! returned per handler call puts it near two.
//!
//! ```text
//! cargo test -p lease-bench --features alloc-count --test sim_allocs
//! ```
//!
//! Alone in this file for the same reason as `zero_alloc`: the counting
//! allocator is process-global.
#![cfg(feature = "alloc-count")]

use lease_bench::allocations;
use lease_clock::Dur;
use lease_vsys::{run_trace, SystemConfig, TermSpec};
use lease_workload::VTrace;

#[test]
fn a_simulated_event_allocates_less_than_once() {
    let trace = VTrace::scaled(1, 120).generate();
    let cfg = SystemConfig {
        term: TermSpec::Fixed(Dur::from_secs(10)),
        ..SystemConfig::default()
    };
    // The harness's main thread does its own bookkeeping just after
    // starting this test; the counters are process-wide, so let it park
    // before anything is counted.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let before = allocations().expect("alloc-count feature is on");
    let report = run_trace(&cfg, &trace);
    let allocs = allocations().expect("alloc-count feature is on") - before;

    let per_event = allocs as f64 / report.sim_events as f64;
    assert!(
        per_event <= 1.0,
        "{allocs} allocations for {} events: {per_event:.2} per event",
        report.sim_events
    );
}
