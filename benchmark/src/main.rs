//! The repo's one benchmark. See `benchmark/README.md` for what each
//! workload and metric is for; `BENCHMARK.json` at the repo root is the
//! contract an outside judge runs it by.
//!
//! The server always runs in this process, started through the
//! program's public functions; nothing inside the program is
//! instrumented. Every number is taken on the generator's clock or read
//! from the kernel's accounts of this process.

mod alloc;
mod cache_mix;
mod gen;
mod harness;
mod ladder;
mod procstat;
mod report;
mod service;
mod sim_vtrace;
mod span;
mod stats;
mod svc_depth;
mod wire_batched;

use std::process::{Command, ExitCode};

use serde::Value;

use harness::RunSpec;
use report::{Outcome, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
lease-benchmark: four workloads, end-to-end metrics with fixed bounds, per-layer metrics

  --workload NAME [--seed N] [--seconds S] [--trace 0|1]
        run one workload (wire_batched, cache_mix, svc_depth, sim_vtrace) in this
        process; the last line printed is the result as one JSON object
  --all [--seed N] [--seconds S] [--trace] [--json PATH]
        run every workload, each in a process of its own; with --trace, run each
        once more with spans on for the per-layer numbers. Results are written to
        PATH (default benchmark/out/all-seed<N>.json)
  --compare A.json B.json
        one row per judged metric and workload; exits 1 when B is worse than A by
        more than the metric's bound, or a declared-exact count differs
  --selfcheck [--seed N] [--seconds S]
        two full sets back to back, compared both ways
  --smoke
        every workload for 200 ms, traced: a compile-and-run check

Defaults: --seed 1, --seconds 20, --trace 0.";

/// Seconds per run when the command line does not say: the figure
/// `BENCHMARK.json` gives as `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args(Vec<String>);

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn after(&self, flag: &str, n: usize) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + n).map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.after(flag, 1) {
            None if self.has(flag) => Err(format!("{flag} needs a value")),
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")),
        }
    }

    /// `--trace`, `--trace 1` and `--trace 0`.
    fn traced(&self) -> bool {
        self.has("--trace") && self.after("--trace", 1) != Some("0")
    }

    fn spec(&self) -> Result<RunSpec, String> {
        let seconds: f64 = self.number("--seconds", DEFAULT_SECONDS)?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds}: want a positive number"));
        }
        Ok(RunSpec {
            seed: self.number("--seed", 1)?,
            seconds,
            traced: self.traced(),
        })
    }
}

fn run_workload(name: &str, spec: RunSpec) -> Result<Outcome, String> {
    match name {
        "wire_batched" => wire_batched::run(spec),
        "cache_mix" => cache_mix::run(spec),
        "svc_depth" => svc_depth::run(spec),
        "sim_vtrace" => sim_vtrace::run(spec),
        other => Err(format!(
            "no workload {other:?}; the workloads are {WORKLOADS:?}"
        )),
    }
}

/// Marks the line of a child's output that carries its full outcome.
const DETAIL: &str = "detail ";

/// `--workload`: everything by name for people, then the outcome for
/// `--all`, then the driver's line, last.
fn one(name: &str, spec: RunSpec) -> Result<(), String> {
    let outcome = run_workload(name, spec)?;
    outcome.print_table();
    println!(
        "{DETAIL}{}",
        serde_json::to_string(&outcome.to_value()).expect("a value tree always prints")
    );
    println!("{}", outcome.driver_line());
    Ok(())
}

/// Runs one workload in a process of its own, so that peak memory,
/// allocator counts and thread lists of one never leak into the next.
fn in_child(name: &str, spec: RunSpec) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--seconds", &spec.seconds.to_string()])
        .args(["--trace", if spec.traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in text.lines() {
        match line.strip_prefix(DETAIL) {
            Some(d) => detail = Some(d.to_string()),
            None if line.starts_with('{') => {}
            None => println!("{line}"),
        }
    }
    if !output.status.success() {
        return Err(format!("{name} exited with {}", output.status));
    }
    let detail = detail.ok_or_else(|| format!("{name} printed no outcome"))?;
    let value: Value = serde_json::from_str(&detail).map_err(|e| format!("{name}: {e}"))?;
    Outcome::from_value(&value)
}

fn run_all(spec: RunSpec) -> Result<Vec<Outcome>, String> {
    let mut outcomes = Vec::new();
    for name in WORKLOADS {
        outcomes.push(in_child(
            name,
            RunSpec {
                traced: false,
                ..spec
            },
        )?);
        if spec.traced {
            outcomes.push(in_child(
                name,
                RunSpec {
                    traced: true,
                    ..spec
                },
            )?);
        }
    }
    Ok(outcomes)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn save(path: &str, outcomes: &[Outcome]) -> Result<(), String> {
    let doc = Value::Map(vec![
        ("nproc".to_string(), Value::U64(nproc() as u64)),
        (
            "outcomes".to_string(),
            Value::Seq(outcomes.iter().map(Outcome::to_value).collect()),
        ),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("a value tree always prints");
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text + "\n").map_err(|e| format!("{path}: {e}"))
}

fn load(path: &str) -> Result<Vec<Outcome>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("outcomes") {
        Some(Value::Seq(items)) => items
            .iter()
            .map(|v| Outcome::from_value(v).map_err(|e| format!("{path}: {e}")))
            .collect(),
        _ => Err(format!("{path}: no list of outcomes")),
    }
}

/// Prints the comparison; `false` when `b` regressed against `a`, an exact
/// count differs, or either side failed an op.
fn judge(a: &[Outcome], b: &[Outcome]) -> bool {
    let (rows, exact_diffs) = report::compare(a, b);
    report::print_rows(&rows);
    for d in &exact_diffs {
        println!("EXACT COUNT DIFFERS  {d}");
    }
    let incorrect: Vec<&Outcome> = a.iter().chain(b).filter(|o| !o.correct()).collect();
    for o in &incorrect {
        println!(
            "INCORRECT  {}: {} of {} ops failed",
            o.workload, o.failed, o.attempted
        );
    }
    rows.iter().all(|r| !r.regressed) && exact_diffs.is_empty() && incorrect.is_empty()
}

fn dispatch(args: &Args) -> Result<bool, String> {
    if args.has("--help") || args.0.is_empty() {
        println!("{USAGE}");
        return Ok(true);
    }
    if let Some(name) = args.after("--workload", 1) {
        one(name, args.spec()?)?;
        return Ok(true);
    }
    if args.has("--all") {
        let spec = args.spec()?;
        let outcomes = run_all(spec)?;
        let default = format!(
            "{}/out/all-seed{}.json",
            env!("CARGO_MANIFEST_DIR"),
            spec.seed
        );
        let path = args.after("--json", 1).unwrap_or(&default);
        save(path, &outcomes)?;
        println!("nproc={} results written to {path}", nproc());
        return Ok(outcomes.iter().all(Outcome::correct));
    }
    if args.has("--compare") {
        let (Some(a), Some(b)) = (args.after("--compare", 1), args.after("--compare", 2)) else {
            return Err("--compare needs two result files".to_string());
        };
        return Ok(judge(&load(a)?, &load(b)?));
    }
    if args.has("--selfcheck") {
        let spec = RunSpec {
            traced: false,
            ..args.spec()?
        };
        let (a, b) = (run_all(spec)?, run_all(spec)?);
        println!("-- second set against the first");
        let forward = judge(&a, &b);
        println!("-- first set against the second");
        let backward = judge(&b, &a);
        return Ok(forward && backward);
    }
    if args.has("--smoke") {
        let spec = RunSpec {
            seed: 1,
            seconds: 0.2,
            traced: true,
        };
        for name in WORKLOADS {
            if !in_child(name, spec)?.correct() {
                return Ok(false);
            }
        }
        return Ok(true);
    }
    Err(format!("nothing to do\n{USAGE}"))
}

fn main() -> ExitCode {
    match dispatch(&Args(std::env::args().skip(1).collect())) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("lease-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
