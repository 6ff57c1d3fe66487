//! `sim_vtrace`: the simulator that regenerates every figure of the
//! paper, timed on the synthetic V compile trace at the size `sim_bench`
//! uses (120 modules), with 10 s leases and the default `SystemConfig`.
//!
//! Single-threaded and deterministic. `lease_vsys::run_trace` is called
//! back to back, cycling over a few simulation seeds, until the window
//! is full; one reference run (the first seed) is repeated at the start
//! and at the end, and its counts must agree to the last digit — which
//! checks the program and calibrates the harness at once.

use std::time::Instant;

use lease_clock::Dur;
use lease_vsys::{run_trace, RunReport, SystemConfig, TermSpec};
use lease_workload::{Trace, VTrace};

use crate::alloc;
use crate::gen::{Digest, Rng};
use crate::harness::{self, Probe, RunSpec, Trace as SpanTrace, Window, WindowPlan};
use crate::report::Outcome;
use crate::service;
use crate::span::Tracer;

const MODULES: u32 = 120;
const TERM: Dur = Dur::from_secs(10);
/// Simulation seeds cycled through inside a window.
const SIM_SEEDS: u64 = 8;
/// Set-ups timed before each window of an untraced run; `setup_s` is the
/// median of them all. One takes tens of microseconds, and the machine
/// runs a quarter slower for seconds at a time, so it takes many, spread
/// over the whole run, for the median to hold still.
const SETUPS: usize = 20;

fn client_ops(r: &RunReport) -> u64 {
    r.hits + r.remote_reads + r.writes + r.temp_ops
}

struct Rig {
    trace: Trace,
    seed: u64,
    next: u64,
    attempted: u64,
    failed: u64,
    events: u64,
    tracer: Tracer,
}

/// Generating the trace is all the set-up a simulation has. Returns
/// the trace and the seconds it took.
fn set_up(seed: u64) -> (Trace, f64) {
    let t0 = Instant::now();
    let trace = VTrace::scaled(Rng::new(seed, 0).next_u64(), MODULES).generate();
    (trace, t0.elapsed().as_secs_f64())
}

impl Rig {
    fn new(trace: Trace, seed: u64, epoch: Instant, traced: bool) -> Rig {
        let mut tracer = Tracer::new(traced, epoch, 1 << 12);
        tracer.set_on(false);
        Rig {
            trace,
            seed,
            next: 0,
            attempted: 0,
            failed: 0,
            events: 0,
            tracer,
        }
    }

    fn digest(&self) -> String {
        let mut d = Digest::default();
        for r in &self.trace.records {
            d.word(r.at.as_nanos());
            d.word(u64::from(r.client));
            d.word(r.op.file());
            d.word(u64::from(r.op.is_read()));
        }
        d.hex()
    }

    fn simulate(&mut self, k: u64) -> RunReport {
        let cfg = SystemConfig {
            term: TermSpec::Fixed(TERM),
            seed: Rng::new(self.seed, 1 + k).next_u64(),
            ..SystemConfig::default()
        };
        let s = self.tracer.enter("vsys.run_trace", k);
        let report = run_trace(&cfg, &self.trace);
        self.tracer.exit(s);
        self.attempted += client_ops(&report) + report.op_failures;
        self.failed += report.op_failures;
        self.events += report.sim_events;
        report
    }

    fn window(&mut self, plan: WindowPlan) -> Window {
        self.tracer.set_on(plan.traced);
        alloc::set_counting(plan.traced);
        let from = Probe::now();
        let until = Instant::now() + plan.len;
        let mut ops = 0;
        loop {
            let k = self.next % SIM_SEEDS;
            self.next += 1;
            ops += client_ops(&self.simulate(k));
            if Instant::now() >= until {
                break;
            }
        }
        let w = Window::close(&from, plan.traced, ops, 0);
        alloc::set_counting(false);
        self.tracer.set_on(false);
        w
    }
}

/// The reference run's counts, as text so that "equal" means equal.
fn exact_counts(r: &RunReport) -> Vec<(&'static str, String)> {
    let ops = client_ops(r) as f64;
    vec![
        ("sim.events", r.sim_events.to_string()),
        ("vsys.client_ops", client_ops(r).to_string()),
        ("vsys.consistency_msgs", r.consistency_msgs.to_string()),
        ("vsys.hits", r.hits.to_string()),
        ("vsys.remote_reads", r.remote_reads.to_string()),
        ("vsys.writes", r.writes.to_string()),
        ("vsys.op_failures", r.op_failures.to_string()),
        (
            "vsys.mean_added_delay_ms",
            format!("{:?}", r.mean_delay_ms()),
        ),
        (
            "sim.events_per_op",
            format!("{:?}", r.sim_events as f64 / ops),
        ),
    ]
}

pub fn run(spec: RunSpec) -> Result<Outcome, String> {
    let mut out = Outcome::new("sim_vtrace", spec.seed, spec.seconds, spec.traced);
    service::pin_client_side();
    let epoch = Instant::now();
    let (trace, first) = set_up(spec.seed);
    let mut setups = vec![first];
    let mut rig = Rig::new(trace, spec.seed, epoch, spec.traced);
    out.digest = rig.digest();

    // Warm-up is the reference run, with allocations counted in a traced
    // run (counting is exact here: one thread, no clock in the program).
    alloc::set_counting(spec.traced);
    let allocs_before = alloc::stats();
    let reference = rig.simulate(0);
    let reference_allocs = alloc::stats().since(allocs_before).allocs;
    alloc::set_counting(false);
    while epoch.elapsed() < spec.warmup() {
        rig.simulate(0);
    }

    let mut windows = Vec::new();
    let mut events_per_s = Vec::new();
    for plan in spec.windows(1.0) {
        for _ in 0..spec.setups(SETUPS) {
            setups.push(std::hint::black_box(set_up(spec.seed)).1);
        }
        let before = rig.events;
        let w = rig.window(plan);
        events_per_s.push((rig.events - before) as f64 / w.wall_s);
        windows.push(w);
    }

    out.put_windows("setup_s", &setups);

    let again = rig.simulate(0);
    let (first, second) = (exact_counts(&reference), exact_counts(&again));
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        if a != b {
            rig.failed += 1;
            out.notes
                .push(format!("{name} did not repeat: {a} then {b}"));
        }
        out.exact.insert(name.to_string(), a.clone());
    }
    out.attempted = rig.attempted;
    out.failed = rig.failed;
    harness::put_common(&mut out, &windows);
    harness::put_failed_share(&mut out);
    if !spec.traced {
        return Ok(out);
    }

    out.exact
        .insert("sim.allocs".to_string(), reference_allocs.to_string());
    let ops = client_ops(&reference) as f64;
    out.put_windows("sim.events_per_s", &events_per_s);
    out.put_value("sim.events_per_op", reference.sim_events as f64 / ops);
    out.put_value(
        "sim.allocs_per_event",
        reference_allocs as f64 / reference.sim_events as f64,
    );
    out.put_value(
        "vsys.consistency_msgs_per_op",
        reference.consistency_msgs as f64 / ops,
    );
    out.put_value("vsys.hit_rate", reference.hit_rate());
    out.put_value("vsys.mean_added_delay_ms", reference.mean_delay_ms());
    let traced_ops: u64 = windows.iter().filter(|w| w.traced).map(|w| w.ops).sum();
    let trace = SpanTrace::finish("sim_vtrace", spec.seed, rig.tracer.into_spans());
    out.put_value(
        "trace.spans_per_op",
        trace.spans as f64 / traced_ops.max(1) as f64,
    );
    Ok(out)
}
