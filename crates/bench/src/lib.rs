#![warn(missing_docs)]

//! Shared utilities for the experiment regenerators.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index) and prints the same rows/series the
//! paper reports, optionally persisting machine-readable results under
//! `results/`.

use std::fmt::Write as _;
use std::path::PathBuf;

use lease_clock::Dur;
use lease_vsys::{run_trace, RunReport, SystemConfig, TermSpec};
use lease_workload::Trace;

mod alloc_count;
pub mod sweep;
pub mod term_file;

pub use alloc_count::{allocations, live_bytes};

/// The value at quantile `p` (0.0–1.0) of an ascending-sorted slice;
/// zero when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Renders an aligned text table.
///
/// # Examples
///
/// ```
/// let t = lease_bench::table(
///     &["term", "load"],
///     &[vec!["0".into(), "1.00".into()], vec!["10".into(), "0.10".into()]],
/// );
/// assert!(t.contains("term"));
/// ```
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "{:>w$}  ", h, w = widths[i]);
    }
    out.push('\n');
    for (i, _) in headers.iter().enumerate() {
        let _ = write!(out, "{}  ", "-".repeat(widths[i]));
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "{:>w$}  ", cell, w = widths[i]);
        }
        out.push('\n');
    }
    out
}

/// A tiny ASCII rendition of a decreasing curve, for terminal output.
pub fn spark(values: &[f64]) -> String {
    const LEVELS: &[char] = &['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| {
            let idx = ((v - min) / span * (LEVELS.len() - 1) as f64).round() as usize;
            LEVELS[idx.min(LEVELS.len() - 1)]
        })
        .collect()
}

/// The directory experiment outputs are written to (`results/` beside the
/// workspace root, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("LEASE_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let p = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&p);
    p
}

/// Persists a serializable result as pretty JSON under [`results_dir`].
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

/// Runs the simulated system at a fixed term over `trace` with standard
/// experiment settings (60 s warmup, batched extensions).
pub fn run_at_term(trace: &Trace, term: Dur, seed: u64) -> RunReport {
    let cfg = SystemConfig {
        term: TermSpec::Fixed(term),
        warmup: Dur::from_secs(60),
        seed,
        ..SystemConfig::default()
    };
    run_trace(&cfg, trace)
}

/// One cell of a simulation sweep: the headline results of running the
/// trace at `(seed, term)`. The fields are exactly what the figure
/// binaries and the determinism tests consume; equality of two rows means
/// the two runs were observationally identical.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimSweepRow {
    /// RNG seed of the run.
    pub seed: u64,
    /// Lease term, seconds.
    pub term_s: f64,
    /// Consistency messages at the server (the Figure 1–3 y-axis input).
    pub consistency_msgs: u64,
    /// Cache hits.
    pub hits: u64,
    /// Reads that contacted the server.
    pub remote_reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Mean added delay per operation, milliseconds.
    pub mean_delay_ms: f64,
    /// Simulator events processed.
    pub sim_events: u64,
}

/// Runs the full `seeds × terms` grid of simulations over `trace` on up
/// to `threads` workers (see [`sweep::run`]) and returns one row per
/// cell, in grid order (seed-major). Each cell is a self-contained
/// deterministic simulation, so the output is identical for any thread
/// count.
pub fn run_sim_sweep(
    trace: &Trace,
    seeds: &[u64],
    terms: &[f64],
    threads: usize,
) -> Vec<SimSweepRow> {
    let tasks: Vec<(u64, f64)> = seeds
        .iter()
        .flat_map(|&s| terms.iter().map(move |&t| (s, t)))
        .collect();
    sweep::run(threads, &tasks, |_, &(seed, term_s)| {
        let r = run_at_term(trace, Dur::from_secs_f64(term_s), seed);
        SimSweepRow {
            seed,
            term_s,
            consistency_msgs: r.consistency_msgs,
            hits: r.hits,
            remote_reads: r.remote_reads,
            writes: r.writes,
            mean_delay_ms: r.mean_delay_ms(),
            sim_events: r.sim_events,
        }
    })
}

/// The standard term grid used by the figures (seconds).
pub fn figure_terms() -> Vec<f64> {
    let mut v = vec![
        0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0, 15.0, 20.0, 25.0, 30.0,
    ];
    v.dedup();
    v
}

/// Formats a float with three significant decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("a"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn spark_renders_monotone() {
        let s = spark(&[1.0, 0.5, 0.25, 0.1]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('█'));
        assert!(s.ends_with('▁'));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(pct(0.271), "27.1%");
    }

    #[test]
    fn percentile_picks_expected_ranks() {
        let v = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&v, 0.0), 10);
        assert_eq!(percentile(&v, 0.5), 60);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn figure_terms_start_at_zero() {
        let t = figure_terms();
        assert_eq!(t[0], 0.0);
        assert!(t.windows(2).all(|w| w[1] > w[0]));
    }
}
