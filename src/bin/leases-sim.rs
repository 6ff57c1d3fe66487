//! `leases-sim`: command-line front end to the leases reproduction.
//!
//! ```text
//! leases-sim trace [--kind vtrace|poisson|bursty] [--seed N] [--clients N]
//!                  [--sharing S] [--duration SECS] [--out FILE]
//! leases-sim stats --trace FILE
//! leases-sim run   [--trace FILE | --kind ...] [--term SECS] [--loss P]
//!                  [--wan] [--installed] [--writeback] [--seed N]
//! leases-sim model [--sharing S] [--max-term SECS] [--wan]
//! leases-sim sweep [--trace FILE | --kind ...] [--terms "0,1,2,5,10,30"]
//! ```
//!
//! Everything the subcommands do is a thin layer over the library; see
//! `examples/` and `crates/bench/src/bin/` for richer drivers.

use std::collections::HashMap;
use std::process::ExitCode;

use leases::analytic::Params;
use leases::clock::Dur;
use leases::faults::{check_history, FaultPlan};
use leases::vsys::{run_trace_with_history, InstalledMode, NetParams, SystemConfig, TermSpec};
use leases::wb::{run_wb_with_history, WbConfig};
use leases::workload::{BurstyWorkload, PoissonWorkload, Trace, TraceStats, VTrace};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_opts(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "trace" => cmd_trace(&opts),
        "stats" => cmd_stats(&opts),
        "run" => cmd_run(&opts),
        "model" => cmd_model(&opts),
        "sweep" => cmd_sweep(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
leases-sim — drive the Gray & Cheriton (SOSP 1989) leases reproduction

commands:
  trace   generate a workload trace (JSON)
  stats   print Table-2 style statistics of a trace
  run     simulate one configuration and report load/delay/consistency
  model   print the analytic model's curves (section 3.1)
  sweep   run a trace across a set of lease terms
  help    print this message

common options:
  --kind vtrace|poisson|bursty   workload generator (default vtrace)
  --seed N         RNG seed (default 1989)
  --clients N      client count for poisson/bursty (default 4)
  --sharing S      sharing degree (default 2)
  --duration SECS  trace length for poisson/bursty (default 300)
  --trace FILE     read a trace instead of generating one
  --out FILE       where `trace` writes its JSON
  --term SECS      lease term (default 10; 0 = check-on-read)
  --terms LIST     comma-separated terms for `sweep`
  --loss P         message loss probability (default 0)
  --wan            use the 100 ms round-trip network of Figure 3
  --installed      enable the section-4 installed-file multicast
  --writeback      use the non-write-through (token) extension
  --max-term SECS  sweep bound for `model` (default 30)
  --crash-rate N   host crashes per day for the failure-aware optimum (default 1)";

type Opts = HashMap<String, String>;

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument `{a}`"));
        };
        match key {
            "wan" | "installed" | "writeback" => {
                out.insert(key.to_string(), "true".to_string());
            }
            _ => {
                let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                out.insert(key.to_string(), v.clone());
            }
        }
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(opts: &Opts, key: &str, default: T) -> Result<T, String> {
    match opts.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse `{v}`")),
        None => Ok(default),
    }
}

fn load_or_generate(opts: &Opts) -> Result<Trace, String> {
    if let Some(path) = opts.get("trace") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let trace = Trace::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        trace.validate()?;
        return Ok(trace);
    }
    let seed: u64 = get(opts, "seed", 1989)?;
    let n: u32 = get(opts, "clients", 4)?;
    let s: u32 = get(opts, "sharing", 2)?;
    let duration: u64 = get(opts, "duration", 300)?;
    let kind = opts.get("kind").map(String::as_str).unwrap_or("vtrace");
    let trace = match kind {
        "vtrace" => VTrace::calibrated(seed).generate(),
        "poisson" => PoissonWorkload {
            n,
            r: 0.864,
            w: 0.04,
            s,
            duration: Dur::from_secs(duration),
            seed,
        }
        .generate(),
        "bursty" => BurstyWorkload {
            n,
            r: 0.864,
            w: 0.04,
            s,
            on: Dur::from_secs(5),
            off: Dur::from_secs(20),
            duration: Dur::from_secs(duration),
            seed,
        }
        .generate(),
        other => return Err(format!("unknown workload kind `{other}`")),
    };
    Ok(trace)
}

fn cmd_trace(opts: &Opts) -> Result<(), String> {
    let trace = load_or_generate(opts)?;
    let stats = TraceStats::from_trace(&trace);
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, trace.to_json()).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {} records to {path}", trace.records.len());
        }
        None => println!("{}", trace.to_json()),
    }
    eprintln!("\n{}", stats.table());
    Ok(())
}

fn cmd_stats(opts: &Opts) -> Result<(), String> {
    let trace = load_or_generate(opts)?;
    println!("{}", TraceStats::from_trace(&trace).table());
    Ok(())
}

fn sys_config(opts: &Opts) -> Result<SystemConfig, String> {
    let term: f64 = get(opts, "term", 10.0)?;
    let mut cfg = SystemConfig {
        term: TermSpec::Fixed(Dur::from_secs_f64(term)),
        faults: FaultPlan::default().drop_messages(get(opts, "loss", 0.0)?),
        warmup: Dur::from_secs(30),
        seed: get(opts, "seed", 1989)?,
        ..SystemConfig::default()
    };
    if opts.contains_key("wan") {
        cfg.net = NetParams::wan_100ms();
    }
    if opts.contains_key("installed") {
        cfg.installed = InstalledMode::Multicast {
            tick: Dur::from_secs(30),
            term: Dur::from_secs(60),
        };
    }
    Ok(cfg)
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    let trace = load_or_generate(opts)?;
    if opts.contains_key("writeback") {
        let cfg = WbConfig {
            term: Dur::from_secs_f64(get(opts, "term", 10.0)?),
            warmup: Dur::from_secs(30),
            seed: get(opts, "seed", 1989)?,
            ..WbConfig::default()
        };
        let (report, h) = run_wb_with_history(&cfg, &trace);
        let verdict = check_history(&h.borrow());
        print_report(&report, verdict.is_ok());
        return Ok(());
    }
    let cfg = sys_config(opts)?;
    let (report, handle) = run_trace_with_history(&cfg, &trace);
    let verdict = check_history(&handle.history.borrow());
    print_report(&report, verdict.is_ok());
    Ok(())
}

fn print_report(r: &leases::vsys::RunReport, consistent: bool) {
    println!("consistency messages : {}", r.consistency_msgs);
    println!("data messages        : {}", r.data_msgs);
    println!("cache hit rate       : {:.3}", r.hit_rate());
    println!("mean op delay        : {:.3} ms", r.mean_delay_ms());
    println!("max write stall      : {:.2} s", r.write_delay.max);
    println!("op failures          : {}", r.op_failures);
    println!(
        "single-copy oracle   : {}",
        if consistent { "PASS" } else { "FAIL" }
    );
}

fn cmd_model(opts: &Opts) -> Result<(), String> {
    let s: f64 = get(opts, "sharing", 1.0)?;
    let max: f64 = get(opts, "max-term", 30.0)?;
    let p = if opts.contains_key("wan") {
        Params::v_system_wan().with_sharing(s)
    } else {
        Params::v_system().with_sharing(s)
    };
    println!(
        "{:>8}  {:>14}  {:>12}",
        "term (s)", "relative load", "delay (ms)"
    );
    let steps = 15;
    for i in 0..=steps {
        let t = max * i as f64 / steps as f64;
        println!(
            "{:>8.1}  {:>14.3}  {:>12.3}",
            t,
            p.relative_load(t),
            p.added_delay(t) * 1e3
        );
    }
    println!("\nlease benefit factor alpha = {:.2}", p.alpha());
    if let Some(be) = p.break_even_term() {
        println!("break-even term            = {be:.2} s");
    } else {
        println!("break-even term            = none (alpha <= 1: use a zero term)");
    }
    println!("knee term (theta = 0.1)    = {:.1} s", p.knee_term(0.1));
    let crashes_per_day: f64 = get(opts, "crash-rate", 1.0)?;
    let rate = crashes_per_day / 86_400.0;
    let (t_opt, d_opt) = leases::analytic::optimal_term(&p, rate, 3600.0);
    println!(
        "failure-aware optimum      = {:.1} s ({:.3} ms/op at {} crash(es)/host-day)",
        t_opt,
        d_opt * 1e3,
        crashes_per_day
    );
    Ok(())
}

fn cmd_sweep(opts: &Opts) -> Result<(), String> {
    let trace = load_or_generate(opts)?;
    let terms: Vec<f64> = match opts.get("terms") {
        Some(list) => list
            .split(',')
            .map(|x| x.trim().parse().map_err(|_| format!("bad term `{x}`")))
            .collect::<Result<_, _>>()?,
        None => vec![0.0, 1.0, 2.0, 5.0, 10.0, 30.0],
    };
    println!(
        "{:>8}  {:>12}  {:>9}  {:>11}  {:>7}",
        "term (s)", "cons. msgs", "hit rate", "delay (ms)", "oracle"
    );
    for t in terms {
        let mut opts = opts.clone();
        opts.insert("term".into(), t.to_string());
        let cfg = sys_config(&opts)?;
        let (r, handle) = run_trace_with_history(&cfg, &trace);
        let ok = check_history(&handle.history.borrow()).is_ok();
        println!(
            "{:>8.1}  {:>12}  {:>9.3}  {:>11.3}  {:>7}",
            t,
            r.consistency_msgs,
            r.hit_rate(),
            r.mean_delay_ms(),
            if ok { "PASS" } else { "FAIL" }
        );
    }
    Ok(())
}
