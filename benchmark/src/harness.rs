//! What every workload shares: how a run's `--seconds` are cut into
//! windows, what is read from the kernel at each window edge, and how
//! window records become reported metrics.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::alloc::{self, AllocStats};
use crate::procstat::{self, CpuTimes, ThreadStat};
use crate::report::Outcome;
use crate::span::{self, NameTotals, Span};

/// A generator thread that needs more than this share of a core is
/// measuring itself.
pub const GEN_CPU_LIMIT: f64 = 0.75;

/// A paced phase that sends more than this share of its bursts late is
/// measuring the scheduler.
pub const LATE_LIMIT: f64 = 0.05;

/// The name every generator thread carries, so `/proc` can tell the
/// generator's CPU from the program's.
pub const GEN_THREAD: &str = "bench-gen";

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

impl RunSpec {
    /// Warm-up before the first window: a second, or a fifth of a run
    /// shorter than five.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 5.0).min(1.0))
    }

    /// The closed-loop windows: five untraced ones, or six alternating
    /// untraced/traced so that one server instance gives both sides of
    /// `trace.overhead_share`. `share` is the part of `--seconds` this
    /// phase gets.
    pub fn windows(&self, share: f64) -> Vec<WindowPlan> {
        let n = if self.traced { 6 } else { 5 };
        let len = Duration::from_secs_f64(self.seconds * share / n as f64);
        (0..n)
            .map(|i| WindowPlan {
                len,
                traced: self.traced && i % 2 == 1,
            })
            .collect()
    }

    /// How often to set up: `untraced` times when `setup_s` is reported
    /// (so that it is a median and not one draw), once otherwise.
    pub fn setups(&self, untraced: usize) -> usize {
        if self.traced {
            1
        } else {
            untraced
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct WindowPlan {
    pub len: Duration,
    pub traced: bool,
}

/// Kernel and allocator accounts at one instant.
pub struct Probe {
    at: Instant,
    cpu: CpuTimes,
    threads: BTreeMap<String, ThreadStat>,
    alloc: AllocStats,
}

impl Probe {
    pub fn now() -> Probe {
        Probe {
            threads: procstat::threads_by_group(),
            alloc: alloc::stats(),
            cpu: procstat::process_cpu(),
            at: Instant::now(),
        }
    }
}

/// One measured window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub traced: bool,
    pub ops: u64,
    pub wall_s: f64,
    pub cpu: CpuTimes,
    pub threads: BTreeMap<String, ThreadStat>,
    pub alloc: AllocStats,
    /// How many generator threads ran it.
    pub gen_threads: usize,
    /// Whether the generator-health guard accepted it.
    pub valid: bool,
}

impl Window {
    /// Closes a window opened at `from`, in which `gen_threads` generator
    /// threads completed `ops`.
    pub fn close(from: &Probe, traced: bool, ops: u64, gen_threads: usize) -> Window {
        let to = Probe::now();
        let mut w = Window {
            traced,
            ops,
            wall_s: to.at.duration_since(from.at).as_secs_f64(),
            cpu: to.cpu.since(from.cpu),
            threads: procstat::threads_since(&to.threads, &from.threads),
            alloc: to.alloc.since(from.alloc),
            gen_threads,
            valid: true,
        };
        w.valid = w.gen_cpu_share() <= GEN_CPU_LIMIT;
        w
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    fn per_op(&self, x: f64) -> f64 {
        x / self.ops.max(1) as f64
    }

    /// The account of thread group `name`. The kernel keeps 15 bytes of
    /// a thread's name, so `lease-net-reader-0` is listed as
    /// `lease-net-reade`, and is found under that.
    pub fn group(&self, name: &str) -> ThreadStat {
        let listed = &name[..name.len().min(15)];
        self.threads.get(listed).copied().unwrap_or_default()
    }

    /// CPU of thread group `name`, µs per op.
    pub fn group_cpu_us_per_op(&self, name: &str) -> f64 {
        self.per_op(self.group(name).run_ns as f64 / 1e3)
    }

    /// A generator thread's share of one core (thread accounts are
    /// summed per group, so this is the mean over the generator threads).
    pub fn gen_cpu_share(&self) -> f64 {
        self.group(GEN_THREAD).run_ns as f64 / 1e9 / self.wall_s / self.gen_threads.max(1) as f64
    }
}

/// Runs `f` on a thread named as a generator, so that `/proc` files its
/// CPU under [`GEN_THREAD`].
pub fn on_generator_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name(format!("{GEN_THREAD}-0"))
            .spawn_scoped(s, f)
            .expect("spawn the generator")
            .join()
            .expect("the generator does not panic")
    })
}

/// Sets up `n` times, tearing down all but the last; returns that one and
/// the seconds each set-up took.
pub fn timed_setups<R>(
    n: usize,
    mut set_up: impl FnMut() -> R,
    mut tear_down: impl FnMut(R),
) -> (R, Vec<f64>) {
    let mut seconds = Vec::with_capacity(n);
    loop {
        let t0 = Instant::now();
        let rig = set_up();
        seconds.push(t0.elapsed().as_secs_f64());
        if seconds.len() >= n {
            return (rig, seconds);
        }
        tear_down(rig);
    }
}

/// Runs `window` once, and once more if the guard rejects it. A window
/// rejected twice is kept, with its `valid` flag down and a note: on a
/// shared host a stolen core can spoil both, and a run that ends without
/// a result tells the reader less than one that says which of its
/// numbers to doubt (`gen.invalid_windows`).
pub fn guarded(what: &str, mut window: impl FnMut() -> Window, notes: &mut Vec<String>) -> Window {
    let first = window();
    if first.valid {
        return first;
    }
    let second = window();
    notes.push(format!(
        "{what}: window re-run{}",
        if second.valid {
            ""
        } else {
            ", rejected again and KEPT: its numbers measure the generator or the scheduler"
        }
    ));
    second
}

fn per_window(windows: &[&Window], f: impl Fn(&Window) -> f64) -> Vec<f64> {
    windows.iter().map(|w| f(w)).collect()
}

/// The metrics every workload derives the same way from its closed-loop
/// windows. End-to-end numbers come from the untraced windows only.
pub fn put_common(out: &mut Outcome, windows: &[Window]) {
    let untraced: Vec<&Window> = windows.iter().filter(|w| !w.traced).collect();
    out.put_windows("ops_per_s", &per_window(&untraced, Window::ops_per_s));
    out.notes.push(format!(
        "ops_per_s by window: {:.0?}",
        per_window(&windows.iter().collect::<Vec<_>>(), Window::ops_per_s)
    ));
    out.put_windows(
        "cpu_us_per_op",
        &per_window(&untraced, |w| w.per_op(w.cpu.total_us() as f64)),
    );
    if let Some(mb) = procstat::peak_rss_mb() {
        out.put_value("peak_rss_mb", mb);
    }
    out.put_value(
        "gen.invalid_windows",
        windows.iter().filter(|w| !w.valid).count() as f64,
    );
    if !out.traced {
        return;
    }
    let traced: Vec<&Window> = windows.iter().filter(|w| w.traced).collect();
    out.put_windows(
        "proc.ctxsw_per_op",
        &per_window(&traced, |w| {
            w.per_op(w.threads.values().map(|t| t.ctxsw).sum::<u64>() as f64)
        }),
    );
    out.put_windows(
        "proc.sys_cpu_share",
        &per_window(&traced, |w| {
            w.cpu.sys_us as f64 / w.cpu.total_us().max(1) as f64
        }),
    );
    out.put_windows(
        "alloc.allocs_per_op",
        &per_window(&traced, |w| w.per_op(w.alloc.allocs as f64)),
    );
    out.put_windows(
        "alloc.bytes_per_op",
        &per_window(&traced, |w| w.per_op(w.alloc.bytes as f64)),
    );
    out.put_windows(
        "gen.cpu_us_per_op",
        &per_window(&traced, |w| w.group_cpu_us_per_op(GEN_THREAD)),
    );
    out.put_windows(
        "gen.cpu_share_of_wall",
        &per_window(&traced, Window::gen_cpu_share),
    );
    let (u, t) = (
        crate::stats::median(&per_window(&untraced, Window::ops_per_s)),
        crate::stats::median(&per_window(&traced, Window::ops_per_s)),
    );
    if let (Some(u), Some(t)) = (u, t) {
        out.put_value("trace.overhead_share", 1.0 - t / u);
    }
}

/// `failed_share`, once every check has had its say.
pub fn put_failed_share(out: &mut Outcome) {
    out.put_value(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
}

/// Shard-thread accounts, for the three workloads that run a service.
pub fn put_shard(out: &mut Outcome, windows: &[Window]) {
    let traced: Vec<&Window> = windows.iter().filter(|w| w.traced).collect();
    const SHARD: &str = "lease-shard";
    out.put_windows(
        "svc.shard_cpu_us_per_op",
        &per_window(&traced, |w| w.group_cpu_us_per_op(SHARD)),
    );
    out.put_windows(
        "svc.shard_ctxsw_per_op",
        &per_window(&traced, |w| w.per_op(w.group(SHARD).ctxsw as f64)),
    );
    out.put_windows(
        "svc.shard_runq_wait_share",
        &per_window(&traced, |w| {
            let g = w.group(SHARD);
            g.wait_ns as f64 / (g.run_ns + g.wait_ns).max(1) as f64
        }),
    );
}

/// Per-op CPU of a thread group over the traced windows.
pub fn put_group_cpu(out: &mut Outcome, windows: &[Window], metric: &str, group: &str) {
    let v: Vec<f64> = windows
        .iter()
        .filter(|w| w.traced)
        .map(|w| w.group_cpu_us_per_op(group))
        .collect();
    out.put_windows(metric, &v);
}

/// Span totals of a finished traced run, and where they were written.
pub struct Trace {
    pub totals: BTreeMap<&'static str, NameTotals>,
    pub spans: usize,
}

impl Trace {
    /// Writes `benchmark/out/trace-<workload>.json` and keeps the totals.
    pub fn finish(workload: &str, seed: u64, spans: Vec<Span>) -> Trace {
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        let path = dir.join(format!("trace-{workload}.json"));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, span::to_json(workload, seed, &spans)));
        match written {
            Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
            Err(e) => println!("spans: could not write {}: {e}", path.display()),
        }
        Trace {
            totals: span::totals(&spans),
            spans: spans.len(),
        }
    }

    pub fn get(&self, name: &str) -> NameTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Self time of `name`, ns per `per` (ops, frames, calls).
    pub fn self_ns_per(&self, name: &str, per: u64) -> f64 {
        self.get(name).self_ns as f64 / per.max(1) as f64
    }

    /// Mean self time of one `name` span.
    pub fn self_ns_per_span(&self, name: &str) -> f64 {
        let t = self.get(name);
        t.self_ns as f64 / t.count.max(1) as f64
    }
}

/// Times `f` run `reps` times and returns ns per item, `items` per rep.
pub fn time_ns_per(items: u64, reps: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_nanos() as f64 / (items * u64::from(reps)).max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_plans_split_the_seconds() {
        let plain = RunSpec {
            seed: 1,
            seconds: 10.0,
            traced: false,
        };
        let w = plain.windows(1.0);
        assert_eq!(w.len(), 5);
        assert!(w
            .iter()
            .all(|p| !p.traced && p.len == Duration::from_secs(2)));
        assert_eq!(plain.warmup(), Duration::from_secs(1));
        assert_eq!(plain.setups(3), 3);

        let traced = RunSpec {
            traced: true,
            ..plain
        };
        let w = traced.windows(0.6);
        assert_eq!(w.len(), 6);
        assert_eq!(w.iter().filter(|p| p.traced).count(), 3);
        assert_eq!(w[0].len, Duration::from_secs(1));
        assert_eq!(traced.setups(3), 1);

        let smoke = RunSpec {
            seconds: 0.2,
            ..plain
        };
        assert_eq!(smoke.warmup(), Duration::from_millis(40));
    }

    #[test]
    fn guard_reruns_once_then_keeps_the_window_marked() {
        let busy = || {
            let mut w = Window {
                wall_s: 1.0,
                ..Window::default()
            };
            w.threads.insert(
                GEN_THREAD.to_string(),
                ThreadStat {
                    run_ns: 900_000_000,
                    ..ThreadStat::default()
                },
            );
            w.valid = w.gen_cpu_share() <= GEN_CPU_LIMIT;
            w
        };
        let calm = || Window {
            wall_s: 1.0,
            valid: true,
            ..Window::default()
        };
        let mut notes = Vec::new();
        assert!(guarded("w", calm, &mut notes).valid);
        assert!(notes.is_empty());

        let mut calls = 0;
        let flaky = || {
            calls += 1;
            if calls == 1 {
                busy()
            } else {
                calm()
            }
        };
        assert!(guarded("w", flaky, &mut notes).valid);
        assert_eq!(notes.len(), 1);

        assert!(!guarded("w", busy, &mut notes).valid);
        assert!(notes[1].contains("KEPT"));
    }
}
