//! The open-loop workload driver embedded in each client actor.
//!
//! The analytic model is open-loop: operations arrive at their trace times
//! regardless of how long earlier ones take, and consistency's contribution
//! is the extra delay each operation experiences. The driver replays one
//! client's slice of the trace on that schedule, completes temporary-file
//! operations locally (the V cache's special handling, §2), and records
//! per-operation delay histograms split by kind.

use lease_clock::Time;
use lease_core::{FxMap, OpId};
use lease_sim::Metrics;
use lease_workload::{FileClass, Trace, TraceOp, TraceRecord};

/// The timer key the driver uses for "issue the next operation".
pub const DRIVER_TIMER_KEY: u64 = 0;

/// One client's trace replayer and latency recorder.
#[derive(Debug, Clone)]
pub struct OpDriver {
    records: Vec<TraceRecord>,
    classes: FxMap<u64, FileClass>,
    idx: usize,
    next_op: u64,
    outstanding: FxMap<OpId, Outstanding>,
    warmup: Time,
}

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    issued: Time,
    is_read: bool,
}

impl OpDriver {
    /// Builds a driver for `client`'s records in `trace`.
    pub fn new(trace: &Trace, client: u32, warmup: Time) -> OpDriver {
        OpDriver {
            records: trace
                .records
                .iter()
                .filter(|r| r.client == client)
                .copied()
                .collect(),
            classes: trace.files.iter().map(|f| (f.id, f.class)).collect(),
            idx: 0,
            next_op: 0,
            outstanding: FxMap::default(),
            warmup,
        }
    }

    /// When the next operation is due, if any remain.
    pub fn next_due(&self) -> Option<Time> {
        self.records.get(self.idx).map(|r| r.at)
    }

    /// The class of a file in the driving trace.
    pub fn class_of(&self, file: u64) -> FileClass {
        self.classes
            .get(&file)
            .copied()
            .unwrap_or(FileClass::Regular)
    }

    /// Takes all protocol-relevant operations due at `now`, assigning op
    /// ids and starting their latency clocks. Temporary-file operations
    /// are absorbed locally and only counted.
    pub fn take_due(&mut self, now: Time, metrics: &mut Metrics) -> Vec<(OpId, TraceOp)> {
        let mut out = Vec::new();
        while let Some(r) = self.records.get(self.idx) {
            if r.at > now {
                break;
            }
            let rec = *r;
            self.idx += 1;
            if self.class_of(rec.op.file()) == FileClass::Temporary {
                metrics.inc("client.temp_ops");
                continue;
            }
            let op = OpId(self.next_op);
            self.next_op += 1;
            self.outstanding.insert(
                op,
                Outstanding {
                    issued: rec.at,
                    is_read: rec.op.is_read(),
                },
            );
            out.push((op, rec.op));
        }
        out
    }

    /// Records the completion of `op`, observing its delay (unless it was
    /// issued before the warmup cutoff).
    pub fn complete(&mut self, now: Time, op: OpId, metrics: &mut Metrics) {
        let Some(o) = self.outstanding.remove(&op) else {
            return;
        };
        if o.issued < self.warmup {
            return;
        }
        let delay = now.saturating_since(o.issued).as_secs_f64();
        metrics.observe("delay.all", delay);
        metrics.observe(
            if o.is_read {
                "delay.read"
            } else {
                "delay.write"
            },
            delay,
        );
    }

    /// Marks `op` failed (timeout / missing resource); its delay is not
    /// recorded.
    pub fn fail(&mut self, op: OpId, metrics: &mut Metrics) {
        if self.outstanding.remove(&op).is_some() {
            metrics.inc("client.op_failures");
        }
    }

    /// Drops all in-flight operations (client crash).
    pub fn crash(&mut self) {
        self.outstanding.clear();
    }

    /// Whether every record has been issued and completed or failed.
    pub fn finished(&self) -> bool {
        self.idx >= self.records.len() && self.outstanding.is_empty()
    }

    /// How many records remain to be issued.
    pub fn remaining(&self) -> usize {
        self.records.len() - self.idx
    }

    /// Advances past (skips) records due before `now` without issuing
    /// them; used when recovering from a crash.
    pub fn skip_until(&mut self, now: Time) -> usize {
        let start = self.idx;
        while self.records.get(self.idx).is_some_and(|r| r.at <= now) {
            self.idx += 1;
        }
        self.idx - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lease_workload::FileSpec;

    fn trace() -> Trace {
        Trace::new(
            vec![
                FileSpec {
                    id: 1,
                    class: FileClass::Regular,
                    path: None,
                },
                FileSpec {
                    id: 2,
                    class: FileClass::Temporary,
                    path: None,
                },
            ],
            vec![
                TraceRecord {
                    at: Time::from_secs(1),
                    client: 0,
                    op: TraceOp::Read { file: 1 },
                },
                TraceRecord {
                    at: Time::from_secs(2),
                    client: 0,
                    op: TraceOp::Write { file: 2 },
                },
                TraceRecord {
                    at: Time::from_secs(3),
                    client: 0,
                    op: TraceOp::Write { file: 1 },
                },
                TraceRecord {
                    at: Time::from_secs(4),
                    client: 1,
                    op: TraceOp::Read { file: 1 },
                },
            ],
        )
    }

    #[test]
    fn filters_by_client() {
        let d = OpDriver::new(&trace(), 0, Time::ZERO);
        assert_eq!(d.remaining(), 3);
        let d1 = OpDriver::new(&trace(), 1, Time::ZERO);
        assert_eq!(d1.remaining(), 1);
    }

    #[test]
    fn temp_ops_absorbed_locally() {
        let mut d = OpDriver::new(&trace(), 0, Time::ZERO);
        let mut m = Metrics::new();
        let due = d.take_due(Time::from_secs(2), &mut m);
        // Read of 1 is issued; temp write of 2 is absorbed.
        assert_eq!(due.len(), 1);
        assert!(due[0].1.is_read());
        assert_eq!(m.counter("client.temp_ops"), 1);
        assert_eq!(d.next_due(), Some(Time::from_secs(3)));
    }

    #[test]
    fn delay_measured_from_trace_time() {
        let mut d = OpDriver::new(&trace(), 0, Time::ZERO);
        let mut m = Metrics::new();
        let due = d.take_due(Time::from_secs(1), &mut m);
        let (op, _) = due[0];
        d.complete(Time::from_millis(1003), op, &mut m);
        let h = m.histogram_mut("delay.read");
        assert_eq!(h.count(), 1);
        assert!((h.mean() - 0.003).abs() < 1e-9);
    }

    #[test]
    fn warmup_suppresses_early_samples() {
        let mut d = OpDriver::new(&trace(), 0, Time::from_secs(2));
        let mut m = Metrics::new();
        let due = d.take_due(Time::from_secs(1), &mut m);
        d.complete(Time::from_millis(1003), due[0].0, &mut m);
        assert!(m.histogram("delay.read").is_none());
        // The later write (at 3 s) is recorded.
        let due = d.take_due(Time::from_secs(3), &mut m);
        d.complete(Time::from_millis(3009), due[0].0, &mut m);
        assert_eq!(m.histogram_mut("delay.write").count(), 1);
    }

    #[test]
    fn finish_and_fail_bookkeeping() {
        let mut d = OpDriver::new(&trace(), 1, Time::ZERO);
        let mut m = Metrics::new();
        assert!(!d.finished());
        let due = d.take_due(Time::from_secs(10), &mut m);
        assert!(!d.finished());
        d.fail(due[0].0, &mut m);
        assert!(d.finished());
        assert_eq!(m.counter("client.op_failures"), 1);
    }

    #[test]
    fn skip_until_drops_missed_records() {
        let mut d = OpDriver::new(&trace(), 0, Time::ZERO);
        assert_eq!(d.skip_until(Time::from_secs(2)), 2);
        assert_eq!(d.next_due(), Some(Time::from_secs(3)));
    }
}
