//! What the kernel says about this process, read from outside the
//! program: CPU time (`getrusage`), peak resident set (`VmHWM`) and the
//! per-thread scheduler accounts in `/proc/self/task/*`, keyed on the
//! thread names the program already sets (`lease-shard-*`, `net-reader`,
//! `net-writer-*`, `lease-client-*`, `lease-net-reader-*`).

use std::collections::BTreeMap;

/// Process CPU time so far, split the way `getrusage` splits it.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user_us: u64,
    pub sys_us: u64,
}

impl CpuTimes {
    pub fn total_us(self) -> u64 {
        self.user_us + self.sys_us
    }

    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_us: self.user_us.saturating_sub(earlier.user_us),
            sys_us: self.sys_us.saturating_sub(earlier.sys_us),
        }
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// User and system CPU consumed by the whole process.
pub fn process_cpu() -> CpuTimes {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a properly sized, writable `struct rusage`; the
    // call writes it and keeps no pointer.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    CpuTimes {
        user_us: ru.utime.sec as u64 * 1_000_000 + ru.utime.usec as u64,
        sys_us: ru.stime.sec as u64 * 1_000_000 + ru.stime.usec as u64,
    }
}

/// Asks the kernel to fire the calling thread's timed waits as close to
/// their deadline as it can (default slack is 50 µs, a third of a paced
/// tick). Best effort: a refusal only makes `gen.max_lag_us` larger.
pub fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // no memory of ours.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Peak resident set size in MB (`VmHWM`), or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&status, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// The `kB` figure of one `/proc/*/status` line.
fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| {
        l.strip_prefix(key)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// `0-1,4` as `[0, 1, 4]`: the format of `Cpus_allowed_list`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    list.trim()
        .split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.trim().parse().ok()?..=hi.trim().parse().ok()?)
        })
        .flatten()
        .collect()
}

/// The CPUs this process may run on when it starts. A container is often
/// given some other pair than 0 and 1.
pub fn allowed_cpus() -> Vec<usize> {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
            Some(parse_cpu_list(line))
        })
        .unwrap_or_default()
}

/// One thread's scheduler account.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadStat {
    /// Time on a CPU, ns (`schedstat` field 1).
    pub run_ns: u64,
    /// Time runnable but waiting for a CPU, ns (`schedstat` field 2).
    pub wait_ns: u64,
    /// Voluntary + involuntary context switches (`status`).
    pub ctxsw: u64,
}

impl ThreadStat {
    pub fn since(self, earlier: ThreadStat) -> ThreadStat {
        ThreadStat {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            ctxsw: self.ctxsw.saturating_sub(earlier.ctxsw),
        }
    }

    fn add(&mut self, other: ThreadStat) {
        self.run_ns += other.run_ns;
        self.wait_ns += other.wait_ns;
        self.ctxsw += other.ctxsw;
    }
}

/// `schedstat` is `run_ns wait_ns timeslices`.
fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut f = text.split_whitespace();
    Some((f.next()?.parse().ok()?, f.next()?.parse().ok()?))
}

/// Sum of the two `*_ctxt_switches` lines of a thread's `status`.
fn parse_ctxsw(status: &str) -> u64 {
    status
        .lines()
        .filter(|l| l.contains("ctxt_switches"))
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

/// The group a thread name belongs to: its name with a trailing `-<n>`
/// index removed, so `net-writer-0` and `net-writer-1` add up.
pub fn thread_group(comm: &str) -> &str {
    let comm = comm.trim();
    match comm.rsplit_once('-') {
        Some((head, tail)) if !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit()) => head,
        _ => comm,
    }
}

/// Scheduler accounts of every live thread, summed per [`thread_group`].
/// Threads that exit between the directory listing and the reads are
/// skipped. Empty off Linux.
pub fn threads_by_group() -> BTreeMap<String, ThreadStat> {
    let mut out: BTreeMap<String, ThreadStat> = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let p = entry.path();
        let (Ok(comm), Ok(sched), Ok(status)) = (
            std::fs::read_to_string(p.join("comm")),
            std::fs::read_to_string(p.join("schedstat")),
            std::fs::read_to_string(p.join("status")),
        ) else {
            continue;
        };
        let Some((run_ns, wait_ns)) = parse_schedstat(&sched) else {
            continue;
        };
        out.entry(thread_group(&comm).to_string())
            .or_default()
            .add(ThreadStat {
                run_ns,
                wait_ns,
                ctxsw: parse_ctxsw(&status),
            });
    }
    out
}

/// Per-group difference of two [`threads_by_group`] snapshots.
pub fn threads_since(
    now: &BTreeMap<String, ThreadStat>,
    earlier: &BTreeMap<String, ThreadStat>,
) -> BTreeMap<String, ThreadStat> {
    now.iter()
        .map(|(k, v)| {
            let base = earlier.get(k).copied().unwrap_or_default();
            (k.clone(), v.since(base))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tlease-shard-0\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\n\
                          VmRSS:\t   10240 kB\nvoluntary_ctxt_switches:\t41\n\
                          nonvoluntary_ctxt_switches:\t1\n";

    #[test]
    fn status_parser_reads_kb_and_context_switches() {
        assert_eq!(parse_status_kb(STATUS, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kb(STATUS, "VmRSS"), Some(10240));
        assert_eq!(parse_status_kb(STATUS, "Vm"), None);
        assert_eq!(parse_status_kb(STATUS, "VmSwap"), None);
        assert_eq!(parse_ctxsw(STATUS), 42);
        assert_eq!(parse_ctxsw("Name:\tx\n"), 0);
    }

    #[test]
    fn cpu_list_parser_expands_ranges() {
        assert_eq!(parse_cpu_list("\t0-1\n"), [0, 1]);
        assert_eq!(parse_cpu_list("2,6-8"), [2, 6, 7, 8]);
        assert_eq!(parse_cpu_list("5"), [5]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
        if cfg!(target_os = "linux") {
            assert!(!allowed_cpus().is_empty());
        }
    }

    #[test]
    fn schedstat_parser_takes_run_and_wait() {
        assert_eq!(parse_schedstat("1234567 89 42\n"), Some((1234567, 89)));
        assert_eq!(parse_schedstat("17\n"), None);
        assert_eq!(parse_schedstat("a b c"), None);
    }

    #[test]
    fn thread_names_group_by_role() {
        assert_eq!(thread_group("lease-shard-0\n"), "lease-shard");
        assert_eq!(thread_group("net-writer-12"), "net-writer");
        assert_eq!(thread_group("net-reader"), "net-reader");
        assert_eq!(thread_group("lease-net-reader-1"), "lease-net-reader");
        assert_eq!(thread_group("bench-gen"), "bench-gen");
        assert_eq!(thread_group("trailing-"), "trailing-");
    }

    #[test]
    fn live_process_has_a_main_thread_and_burns_cpu() {
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu().total_us() > 0);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
            assert!(!threads_by_group().is_empty());
        }
    }

    #[test]
    fn deltas_saturate_and_keep_new_groups() {
        let mut a = BTreeMap::new();
        a.insert(
            "g".to_string(),
            ThreadStat {
                run_ns: 10,
                wait_ns: 5,
                ctxsw: 2,
            },
        );
        let mut b = a.clone();
        b.get_mut("g").unwrap().run_ns = 25;
        b.insert(
            "new".to_string(),
            ThreadStat {
                run_ns: 7,
                wait_ns: 0,
                ctxsw: 1,
            },
        );
        let d = threads_since(&b, &a);
        assert_eq!(d["g"].run_ns, 15);
        assert_eq!(d["g"].wait_ns, 0);
        assert_eq!(d["new"].run_ns, 7);
    }
}
