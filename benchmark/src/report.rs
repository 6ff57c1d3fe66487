//! The metric catalogue, one workload's outcome, and its two printed
//! forms: a table for people and the one-line JSON the driver reads.
//!
//! `BENCHMARK.json` at the repo root repeats the catalogue's names,
//! units and directions; a unit test below keeps the two from drifting.

use std::collections::BTreeMap;

use serde::Value;

use crate::stats::Summary;

/// The four workloads, in the order `--all` runs them.
pub const WORKLOADS: [&str; 4] = ["wire_batched", "cache_mix", "svc_depth", "sim_vtrace"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One named metric. `bound` is the share of the reference median by
/// which the metric may get worse before `--compare` calls it a
/// regression; metrics without one are reported, never judged.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn bounded(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Metrics every workload reports with tracing off: `BENCHMARK.json`'s
/// `end_to_end` list, which an outside judge holds to these bounds.
///
/// All four sit at the widest bound the contract allows. This box runs a
/// quarter slower for seconds at a time (some neighbour's doing), and a
/// metric's spread over ten runs has been seen at 14 %; a tighter bound
/// would reject the benchmark's own reruns.
pub const END_TO_END: [MetricDef; 4] = [
    bounded("ops_per_s", "1/s", Higher, 0.25),
    bounded("cpu_us_per_op", "us", Lower, 0.25),
    bounded("peak_rss_mb", "MB", Lower, 0.25),
    bounded("setup_s", "s", Lower, 0.25),
];

/// User-visible delays that exist on one workload only. They cannot sit
/// in `END_TO_END` (every run must report every metric there), so they
/// ride the per-layer list under a `lat.` prefix; `--compare` still
/// holds the medians to these bounds. The 99th percentiles do not repeat
/// on this box (the paced one moved 2.7 to 10 ms between reruns), so
/// they are reported and never judged.
pub const LATENCY: [MetricDef; 8] = [
    bounded("lat.paced_p50_us", "us", Lower, 0.25),
    layer("lat.paced_p99_us", "us", Lower),
    bounded("lat.hit_p50_us", "us", Lower, 0.25),
    bounded("lat.miss_p50_us", "us", Lower, 0.25),
    layer("lat.miss_p99_us", "us", Lower),
    bounded("lat.write_p50_us", "us", Lower, 0.25),
    layer("lat.write_p99_us", "us", Lower),
    // Zero on a healthy run, so it is judged on its absolute value.
    bounded("failed_share", "ratio", Lower, 0.0),
];

/// Numbers attributed to one layer, reported by a traced run.
pub const LAYERS: [MetricDef; 70] = [
    // lease-wire: ladder probe over the workload's own messages.
    layer("wire.encode_c2s_ns_per_msg", "ns", Lower),
    layer("wire.decode_c2s_ns_per_msg", "ns", Lower),
    layer("wire.encode_s2c_ns_per_msg", "ns", Lower),
    layer("wire.decode_s2c_ns_per_msg", "ns", Lower),
    layer("wire.bytes_per_msg_c2s", "B", Lower),
    layer("wire.bytes_per_msg_s2c", "B", Lower),
    // lease-net (tcp): server counters, generator spans, thread accounts.
    layer("net.syscalls_per_op", "count", Lower),
    layer("net.bytes_per_op", "B", Lower),
    layer("net.msgs_per_op", "count", Lower),
    layer("net.msgs_per_read", "count", Higher),
    layer("net.msgs_per_write", "count", Higher),
    layer("net.bad_frames", "count", Lower),
    layer("net.expired_at_door", "count", Lower),
    layer("net.client_write_ns_per_frame", "ns", Lower),
    layer("net.client_read_ns_per_call", "ns", Lower),
    layer("net.await_ns_per_frame", "ns", Lower),
    layer("net.reader_cpu_us_per_op", "us", Lower),
    layer("net.writer_cpu_us_per_op", "us", Lower),
    layer("net.over_inproc_ns_per_op", "ns", Lower),
    // lease-svc.
    layer("svc.send_batch_ns_per_op", "ns", Lower),
    layer("svc.drain_ns_per_op", "ns", Lower),
    layer("svc.await_ns_per_batch", "ns", Lower),
    layer("svc.wakes_per_op", "count", Lower),
    layer("svc.shard_cpu_us_per_op", "us", Lower),
    layer("svc.shard_ctxsw_per_op", "count", Lower),
    layer("svc.shard_runq_wait_share", "ratio", Lower),
    layer("svc.sheds", "count", Lower),
    layer("svc.expired_drops", "count", Lower),
    layer("svc.restarts", "count", Lower),
    layer("svc.backpressure_refusals", "count", Lower),
    layer("svc.over_core_ns_per_op", "ns", Lower),
    // lease-core: server, table, wheel, ring.
    layer("core.server.handle_ns_per_op", "ns", Lower),
    layer("core.server.grants_per_op", "count", Lower),
    layer("core.server.writes_deferred_share", "ratio", Lower),
    layer("core.server.approvals_per_write", "count", Lower),
    layer("core.table.grant_ns", "ns", Lower),
    layer("core.table.extend_ns", "ns", Lower),
    layer("core.table.release_ns", "ns", Lower),
    layer("core.table.prune_ns_per_expiry", "ns", Lower),
    layer("core.table.bytes_per_lease", "B", Lower),
    layer("core.wheel.schedule_ns", "ns", Lower),
    layer("core.wheel.advance_ns_per_expiry", "ns", Lower),
    layer("core.ring.transfer_ns_per_msg", "ns", Lower),
    // lease-core client + lease-rt.
    layer("core.client.hit_ns", "ns", Lower),
    layer("core.client.miss_handle_ns", "ns", Lower),
    layer("rt.hit_ns", "ns", Lower),
    layer("rt.over_core_hit_ns", "ns", Lower),
    layer("rt.hit_share", "ratio", Higher),
    layer("rt.retransmits_per_op", "count", Lower),
    layer("rt.client_cpu_us_per_op", "us", Lower),
    layer("rt.reader_cpu_us_per_op", "us", Lower),
    // lease-sim / lease-vsys.
    layer("sim.events_per_s", "1/s", Higher),
    layer("sim.events_per_op", "count", Lower),
    layer("sim.allocs_per_event", "count", Lower),
    layer("vsys.consistency_msgs_per_op", "count", Lower),
    layer("vsys.hit_rate", "ratio", Higher),
    layer("vsys.mean_added_delay_ms", "ms", Lower),
    // process, generator, tracer.
    layer("alloc.allocs_per_op", "count", Lower),
    layer("alloc.bytes_per_op", "B", Lower),
    layer("proc.ctxsw_per_op", "count", Lower),
    layer("proc.sys_cpu_share", "ratio", Lower),
    layer("gen.stage_ns_per_op", "ns", Lower),
    layer("gen.check_ns_per_op", "ns", Lower),
    layer("gen.cpu_us_per_op", "us", Lower),
    layer("gen.cpu_share_of_wall", "ratio", Lower),
    layer("gen.late_share", "ratio", Lower),
    layer("gen.max_lag_us", "us", Lower),
    layer("gen.invalid_windows", "count", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.spans_per_op", "count", Lower),
];

/// `BENCHMARK.json`'s `per_layer` list: the moved latencies, then the
/// layers.
pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    LATENCY.iter().chain(LAYERS.iter())
}

/// Every metric `--compare` judges: those that carry a bound.
pub fn judged() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END
        .iter()
        .chain(LATENCY.iter())
        .filter(|d| d.bound.is_some())
}

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(per_layer())
        .find(|d| d.name == name)
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Ops the generator issued, and those that errored, were shed,
    /// timed out, or failed the output check.
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the generated op stream: equal seeds, equal inputs.
    pub digest: String,
    pub metrics: BTreeMap<String, Summary>,
    /// Counts that must repeat exactly for a seed.
    pub exact: BTreeMap<String, String>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(workload: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            ..Outcome::default()
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn put(&mut self, name: &str, s: Summary) {
        debug_assert!(
            find(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name.to_string(), s);
    }

    pub fn put_value(&mut self, name: &str, value: f64) {
        self.put(name, Summary::single(value));
    }

    /// Median over per-window values; absent when there are none.
    pub fn put_windows(&mut self, name: &str, values: &[f64]) {
        if let Some(s) = Summary::of(values) {
            self.put(name, s);
        }
    }

    /// The driver's line: exactly the keys `correct`, `attempted`,
    /// `failed`, `metrics`, with every `end_to_end` metric (untraced) or
    /// every `per_layer` metric (traced). A per-layer metric of a layer
    /// this workload never enters reads 0.
    pub fn driver_line(&self) -> String {
        let mut metrics = Vec::new();
        let mut add = |d: &MetricDef| {
            let value = self.metrics.get(d.name).map_or(0.0, |s| s.median);
            metrics.push((
                d.name.to_string(),
                Value::Map(vec![
                    ("value".to_string(), Value::F64(value)),
                    ("unit".to_string(), Value::Str(d.unit.to_string())),
                ]),
            ));
        };
        if self.traced {
            per_layer().for_each(&mut add);
        } else {
            END_TO_END.iter().for_each(&mut add);
        }
        let line = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted.max(1))),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("a value tree always prints")
    }

    /// Everything measured, for `--all` to collect and `--compare` to
    /// read back.
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, s)| {
                (
                    name.clone(),
                    Value::Map(vec![
                        ("median".to_string(), Value::F64(s.median)),
                        ("q1".to_string(), Value::F64(s.q1)),
                        ("q3".to_string(), Value::F64(s.q3)),
                        ("n".to_string(), Value::U64(s.n as u64)),
                    ]),
                )
            })
            .collect();
        let exact = self
            .exact
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect();
        Value::Map(vec![
            ("workload".to_string(), Value::Str(self.workload.clone())),
            ("seed".to_string(), Value::U64(self.seed)),
            ("seconds".to_string(), Value::F64(self.seconds)),
            ("traced".to_string(), Value::Bool(self.traced)),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("digest".to_string(), Value::Str(self.digest.clone())),
            ("metrics".to_string(), Value::Map(metrics)),
            ("exact".to_string(), Value::Map(exact)),
        ])
    }

    pub fn from_value(v: &Value) -> Result<Outcome, String> {
        let text = |k: &str| match v.get(k) {
            Some(Value::Str(s)) => Ok(s.clone()),
            other => Err(format!("{k}: expected a string, got {other:?}")),
        };
        let whole = |k: &str| match v.get(k) {
            Some(Value::U64(n)) => Ok(*n),
            other => Err(format!("{k}: expected a whole number, got {other:?}")),
        };
        let number = |v: Option<&Value>| match v {
            Some(Value::F64(x)) => Ok(*x),
            Some(Value::U64(n)) => Ok(*n as f64),
            Some(Value::I64(n)) => Ok(*n as f64),
            other => Err(format!("expected a number, got {other:?}")),
        };
        let mut out = Outcome::new(
            &text("workload")?,
            whole("seed")?,
            number(v.get("seconds"))?,
            matches!(v.get("traced"), Some(Value::Bool(true))),
        );
        out.attempted = whole("attempted")?;
        out.failed = whole("failed")?;
        out.digest = text("digest")?;
        if let Some(Value::Map(ms)) = v.get("metrics") {
            for (name, m) in ms {
                out.metrics.insert(
                    name.clone(),
                    Summary {
                        median: number(m.get("median"))?,
                        q1: number(m.get("q1"))?,
                        q3: number(m.get("q3"))?,
                        n: number(m.get("n"))? as usize,
                    },
                );
            }
        }
        if let Some(Value::Map(es)) = v.get("exact") {
            for (k, e) in es {
                if let Value::Str(s) = e {
                    out.exact.insert(k.clone(), s.clone());
                }
            }
        }
        Ok(out)
    }

    /// Every metric by name with its unit, quartiles and sample count.
    pub fn print_table(&self) {
        println!(
            "== {} seed={} seconds={} trace={} digest={} attempted={} failed={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.digest,
            self.attempted,
            self.failed
        );
        for (name, s) in &self.metrics {
            let unit = find(name).map_or("", |d| d.unit);
            println!(
                "{name:<36} {:>16} {unit:<6} q1={} q3={} n={}",
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.n
            );
        }
        for (k, v) in &self.exact {
            println!("exact {k} = {v}");
        }
        for n in &self.notes {
            println!("note: {n}");
        }
    }
}

/// Four decimals, or three significant digits for what that would print
/// as zero (a 60 µs set-up, in seconds).
fn num(x: f64) -> String {
    if x != 0.0 && x.abs() < 0.001 {
        format!("{x:.3e}")
    } else {
        format!("{x:.4}")
    }
}

/// One row of `--compare`: a judged metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: Summary,
    pub b: Summary,
    pub bound: f64,
    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// better). For a metric whose reference is zero, the raw difference.
    pub worse_by: f64,
    pub regressed: bool,
}

/// Compares run set `b` against reference `a`: one row per judged metric
/// both report, plus the names of declared-exact counts that differ.
pub fn compare(a: &[Outcome], b: &[Outcome]) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut exact_diffs = Vec::new();
    for oa in a {
        let Some(ob) = b
            .iter()
            .find(|o| o.workload == oa.workload && o.traced == oa.traced)
        else {
            continue;
        };
        for d in judged() {
            let (Some(sa), Some(sb)) = (oa.metrics.get(d.name), ob.metrics.get(d.name)) else {
                continue;
            };
            let bound = d.bound.expect("judged metrics carry a bound");
            let diff = match d.better {
                Better::Lower => sb.median - sa.median,
                Better::Higher => sa.median - sb.median,
            };
            let worse_by = if sa.median != 0.0 {
                diff / sa.median.abs()
            } else {
                diff
            };
            rows.push(Row {
                workload: oa.workload.clone(),
                metric: d.name,
                a: *sa,
                b: *sb,
                bound,
                worse_by,
                regressed: worse_by > bound,
            });
        }
        if oa.seed == ob.seed {
            if oa.digest != ob.digest {
                exact_diffs.push(format!("{}: op-stream digest", oa.workload));
            }
            for (k, va) in &oa.exact {
                if ob.exact.get(k).is_some_and(|vb| vb != va) {
                    exact_diffs.push(format!("{}: {k}", oa.workload));
                }
            }
        }
    }
    (rows, exact_diffs)
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<13} {:<20} {:>14} {:>27} {:>14} {:>27} {:>7} {:>8}",
        "workload",
        "metric",
        "A median",
        "A [q1, q3]",
        "B median",
        "B [q1, q3]",
        "bound",
        "worse by"
    );
    for r in rows {
        println!(
            "{:<13} {:<20} {:>14} {:>27} {:>14} {:>27} {:>6.0}% {:>7.1}%{}",
            r.workload,
            r.metric,
            num(r.a.median),
            format!("[{}, {}]", num(r.a.q1), num(r.a.q3)),
            num(r.b.median),
            format!("[{}, {}]", num(r.b.q1), num(r.b.q3)),
            r.bound * 100.0,
            r.worse_by * 100.0,
            if r.regressed { "  REGRESSED" } else { "" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(workload: &str, ops: f64) -> Outcome {
        let mut o = Outcome::new(workload, 1, 10.0, false);
        o.attempted = 100;
        o.digest = "d".into();
        o.put_value("ops_per_s", ops);
        o.put_value("cpu_us_per_op", 2.0);
        o.put_value("peak_rss_mb", 30.0);
        o.put_value("setup_s", 0.1);
        o.exact.insert("vsys.hits".into(), "7".into());
        o
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(per_layer()) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        assert!(per_layer().count() <= 128);
        assert!(END_TO_END.iter().any(|d| d.name == "setup_s"));
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let o = outcome("sim_vtrace", 5.0);
        let v: Value = serde_json::from_str(&o.driver_line()).unwrap();
        let Value::Map(top) = &v else { panic!() };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Value::Map(ms)) = v.get("metrics") else {
            panic!()
        };
        assert_eq!(ms.len(), END_TO_END.len());
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));

        let mut traced = o.clone();
        traced.traced = true;
        traced.put_value("sim.events_per_op", 3.5);
        let v: Value = serde_json::from_str(&traced.driver_line()).unwrap();
        let Some(Value::Map(ms)) = v.get("metrics") else {
            panic!()
        };
        assert_eq!(ms.len(), per_layer().count());
        // A layer this workload never enters reads 0.
        let wire = v
            .get("metrics")
            .unwrap()
            .get("net.syscalls_per_op")
            .unwrap();
        assert_eq!(wire.get("value"), Some(&Value::U64(0)));
    }

    #[test]
    fn a_failed_op_makes_the_run_incorrect() {
        let mut o = outcome("cache_mix", 5.0);
        o.failed = 1;
        assert!(!o.correct());
    }

    #[test]
    fn outcome_round_trips_through_json() {
        let o = outcome("svc_depth", 123456.789);
        let text = serde_json::to_string(&o.to_value()).unwrap();
        let back = Outcome::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back.metrics, o.metrics);
        assert_eq!(back.exact, o.exact);
        assert_eq!((back.attempted, back.seed), (o.attempted, o.seed));
    }

    #[test]
    fn compare_flags_only_the_worse_direction_beyond_the_bound() {
        let a = [outcome("svc_depth", 100.0)];
        let within = compare(&a, &[outcome("svc_depth", 80.0)]).0;
        assert!(within.iter().all(|r| !r.regressed));
        let worse = compare(&a, &[outcome("svc_depth", 70.0)]).0;
        let ops = worse.iter().find(|r| r.metric == "ops_per_s").unwrap();
        assert!(ops.regressed && (ops.worse_by - 0.3).abs() < 1e-12);
        let better = compare(&a, &[outcome("svc_depth", 150.0)]).0;
        assert!(better.iter().all(|r| !r.regressed));
    }

    #[test]
    fn compare_reports_exact_counts_that_differ() {
        let a = [outcome("sim_vtrace", 1.0)];
        let mut b = outcome("sim_vtrace", 1.0);
        assert!(compare(&a, &[b.clone()]).1.is_empty());
        b.exact.insert("vsys.hits".into(), "8".into());
        assert_eq!(compare(&a, &[b]).1, ["sim_vtrace: vsys.hits"]);
    }

    #[test]
    fn failed_share_is_judged_on_its_absolute_value() {
        let mut a = outcome("cache_mix", 1.0);
        a.put_value("failed_share", 0.0);
        let mut b = a.clone();
        b.put_value("failed_share", 0.001);
        let rows = compare(&[a], &[b]).0;
        assert!(rows
            .iter()
            .any(|r| r.metric == "failed_share" && r.regressed));
    }

    /// `BENCHMARK.json` must list the catalogue, name for name.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: Value = serde_json::from_str(&text).expect("valid json");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            let Some(Value::Seq(items)) = v.get(key) else {
                panic!("{key} is a list")
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| match m.get(k) {
                        Some(Value::Str(s)) => s.clone(),
                        other => panic!("{key}.{k}: {other:?}"),
                    };
                    let bound = match m.get("bound") {
                        Some(Value::F64(x)) => Some(*x),
                        _ => None,
                    };
                    (s("name"), s("unit"), s("better"), bound)
                })
                .collect()
        };
        let want = |defs: Vec<&MetricDef>, bounds: bool| -> Vec<_> {
            defs.into_iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        match d.better {
                            Better::Higher => "higher",
                            Better::Lower => "lower",
                        }
                        .to_string(),
                        d.bound.filter(|_| bounds),
                    )
                })
                .collect()
        };
        assert_eq!(
            listed("end_to_end"),
            want(END_TO_END.iter().collect(), true)
        );
        assert_eq!(listed("per_layer"), want(per_layer().collect(), false));
        let Some(Value::Seq(ws)) = v.get("workloads") else {
            panic!()
        };
        let names: Vec<_> = ws
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::Str(s)) => s.as_str(),
                _ => panic!(),
            })
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
