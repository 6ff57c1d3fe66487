//! Data-parallel experiment sweeps.
//!
//! Every paper-reproduction experiment has the same shape: a list of
//! independent, deterministic tasks (one simulated run per seed or term)
//! whose results are reported in task order. [`run`] fans those tasks
//! across scoped worker threads that pull indices from a shared atomic
//! counter (work-stealing in the only sense that matters here: a fast
//! worker drains more of the queue), stores each result in its task's
//! slot, and merges in task order — so the output is **byte-identical
//! regardless of thread count**. Parallelism changes wall-clock, never
//! results.
//!
//! The `--threads N|auto` flag lives here too; the sweep binaries
//! (`fig1`, `fig2`, `fig3`, `table2`, `chaos` and `overload burst`) share
//! this one implementation.
//!
//! # Examples
//!
//! ```
//! let squares = lease_bench::sweep::run(4, &[1u64, 2, 3], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use lease_core::affinity::pin_to_core;

/// The host's available parallelism (1 when it cannot be determined).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses a `--threads` value: a positive integer or `auto` (the host's
/// available parallelism).
fn parse_threads(v: &str) -> Result<usize, String> {
    if v == "auto" {
        return Ok(available_cores());
    }
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "--threads wants a positive number or `auto`, got {v}"
        )),
    }
}

/// Extracts a `--threads N|auto` flag from an argument list (removing it)
/// and returns the thread count, or `default` when the flag is absent.
///
/// Shared by the sweep binaries so they all accept the same flag with the
/// same spelling and the same error message.
pub fn take_threads_arg(args: &mut Vec<String>, default: usize) -> Result<usize, String> {
    let Some(i) = args.iter().position(|a| a == "--threads") else {
        return Ok(default);
    };
    let Some(v) = args.get(i + 1).cloned() else {
        return Err("--threads wants a value (a number or `auto`)".into());
    };
    let n = parse_threads(&v)?;
    args.drain(i..=i + 1);
    Ok(n)
}

/// Runs `f(index, &task)` for every task, on up to `threads` worker
/// threads, and returns the results **in task order**.
///
/// * `threads <= 1` (or a single task) runs inline on the caller's
///   thread: no spawn, no pinning, bit-for-bit the serial loop the sweep
///   binaries used to write by hand.
/// * `threads > 1` spawns scoped workers, pins them round-robin across
///   cores (best effort, Linux only), and hands out task indices from a
///   shared atomic counter — a fast worker simply claims more tasks, so
///   uneven task costs don't leave threads idle behind a static split.
/// * Results are written into per-task slots and merged in index order,
///   so for a deterministic `f` the returned vector is identical for any
///   thread count.
///
/// Panics in `f` propagate to the caller once all workers stop.
pub fn run<T, R, F>(threads: usize, tasks: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, tasks.len().max(1));
    if threads <= 1 {
        return tasks.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for w in 0..threads {
            let next = &next;
            let slots = &slots;
            let f = &f;
            s.spawn(move || {
                pin_to_core(w);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(i) else { break };
                    let r = f(i, task);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed task stores a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_task_order_for_any_thread_count() {
        let tasks: Vec<u64> = (0..97).collect();
        let serial = run(1, &tasks, |i, &t| (i as u64) * 1000 + t);
        for threads in [2, 3, 4, 8] {
            let parallel = run(threads, &tasks, |i, &t| (i as u64) * 1000 + t);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_task_sets() {
        let none: Vec<u32> = run(4, &[], |_, t: &u32| *t);
        assert!(none.is_empty());
        assert_eq!(run(4, &[7u32], |_, &t| t + 1), vec![8]);
    }

    #[test]
    fn uneven_task_costs_still_merge_in_order() {
        // Early tasks sleep longer: a static split would finish them last,
        // the shared index hands later tasks to free workers either way.
        let tasks: Vec<u64> = (0..16).collect();
        let out = run(4, &tasks, |i, &t| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            t * 2
        });
        assert_eq!(out, (0..16).map(|t| t * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parse_threads_accepts_auto_and_numbers() {
        assert_eq!(parse_threads("3"), Ok(3));
        assert!(parse_threads("auto").unwrap() >= 1);
        assert!(parse_threads("0").is_err());
        assert!(parse_threads("-1").is_err());
        assert!(parse_threads("four").is_err());
    }

    #[test]
    fn take_threads_arg_removes_the_flag() {
        let mut args: Vec<String> = ["--quick", "--threads", "2", "--json", "x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(take_threads_arg(&mut args, 1), Ok(2));
        assert_eq!(args, vec!["--quick", "--json", "x"]);
        assert_eq!(take_threads_arg(&mut args, 1), Ok(1));
        let mut missing: Vec<String> = vec!["--threads".into()];
        assert!(take_threads_arg(&mut missing, 1).is_err());
    }
}
