//! The open-loop workload driver embedded in each client actor.
//!
//! The analytic model is open-loop: operations arrive at their trace times
//! regardless of how long earlier ones take, and consistency's contribution
//! is the extra delay each operation experiences. The driver replays one
//! client's slice of the trace on that schedule, completes temporary-file
//! operations locally (the V cache's special handling, §2), and counts
//! each operation's outcome and delay into the run's [`Tally`].

use lease_clock::Time;
use lease_core::{FxMap, OpId, OpOutcome};
use lease_workload::{FileClass, Trace, TraceOp, TraceRecord};

use crate::report::Tally;

/// The timer key the driver uses for "issue the next operation".
pub const DRIVER_TIMER_KEY: u64 = 0;

/// One client's trace replayer and operation counter.
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
    op: TraceOp,
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
    pub fn take_due(&mut self, now: Time, tally: &mut Tally) -> Vec<(OpId, TraceOp)> {
        let mut out = Vec::new();
        while let Some(r) = self.records.get(self.idx) {
            if r.at > now {
                break;
            }
            let rec = *r;
            self.idx += 1;
            if self.class_of(rec.op.file()) == FileClass::Temporary {
                tally.temp_ops += 1;
                continue;
            }
            let op = OpId(self.next_op);
            self.next_op += 1;
            self.outstanding.insert(
                op,
                Outstanding {
                    issued: rec.at,
                    op: rec.op,
                },
            );
            out.push((op, rec.op));
        }
        out
    }

    /// Records the completion of `op` with `outcome`: counts the outcome
    /// if it came after the warmup cutoff, and the delay if `op` was
    /// issued after it. Returns the file `op` was on, or `None` if `op` is
    /// not outstanding.
    pub fn complete<D>(
        &mut self,
        now: Time,
        op: OpId,
        outcome: &OpOutcome<D>,
        tally: &mut Tally,
    ) -> Option<u64> {
        if now >= self.warmup {
            tally.done(outcome);
        }
        let o = self.outstanding.remove(&op)?;
        if o.issued >= self.warmup {
            tally.delay(o.op.is_read(), now.saturating_since(o.issued).as_secs_f64());
        }
        Some(o.op.file())
    }

    /// Marks `op` failed (timeout / missing resource); its delay is not
    /// recorded.
    pub fn fail(&mut self, op: OpId, tally: &mut Tally) {
        if self.outstanding.remove(&op).is_some() {
            tally.op_failures += 1;
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
    use lease_core::Version;
    use lease_workload::FileSpec;

    const READ: OpOutcome<u64> = OpOutcome::Read {
        data: 0,
        version: Version(1),
        from_cache: false,
    };
    const WRITE: OpOutcome<u64> = OpOutcome::Write {
        version: Version(2),
    };

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
        let mut t = Tally::default();
        let due = d.take_due(Time::from_secs(2), &mut t);
        // Read of 1 is issued; temp write of 2 is absorbed.
        assert_eq!(due.len(), 1);
        assert!(due[0].1.is_read());
        assert_eq!(t.temp_ops, 1);
        assert_eq!(d.next_due(), Some(Time::from_secs(3)));
    }

    #[test]
    fn delay_measured_from_trace_time() {
        let mut d = OpDriver::new(&trace(), 0, Time::ZERO);
        let mut t = Tally::default();
        let due = d.take_due(Time::from_secs(1), &mut t);
        let (op, _) = due[0];
        assert_eq!(
            d.complete(Time::from_millis(1003), op, &READ, &mut t),
            Some(1)
        );
        assert_eq!(t.remote_reads, 1);
        assert_eq!((t.read_delay.count(), t.write_delay.count()), (1, 0));
        assert!((t.read_delay.mean() - 0.003).abs() < 1e-9);
        assert_eq!(t.all_delay.count(), 1);
    }

    #[test]
    fn warmup_suppresses_early_samples() {
        let mut d = OpDriver::new(&trace(), 0, Time::from_secs(2));
        let mut t = Tally::default();
        let due = d.take_due(Time::from_secs(1), &mut t);
        d.complete(Time::from_millis(1003), due[0].0, &READ, &mut t);
        assert_eq!((t.remote_reads, t.all_delay.count()), (0, 0));
        // The later write (at 3 s) is recorded.
        let due = d.take_due(Time::from_secs(3), &mut t);
        d.complete(Time::from_millis(3009), due[0].0, &WRITE, &mut t);
        assert_eq!((t.writes, t.write_delay.count()), (1, 1));
    }

    #[test]
    fn finish_and_fail_bookkeeping() {
        let mut d = OpDriver::new(&trace(), 1, Time::ZERO);
        let mut t = Tally::default();
        assert!(!d.finished());
        let due = d.take_due(Time::from_secs(10), &mut t);
        assert!(!d.finished());
        d.fail(due[0].0, &mut t);
        assert!(d.finished());
        assert_eq!(t.op_failures, 1);
    }

    #[test]
    fn skip_until_drops_missed_records() {
        let mut d = OpDriver::new(&trace(), 0, Time::ZERO);
        assert_eq!(d.skip_until(Time::from_secs(2)), 2);
        assert_eq!(d.next_due(), Some(Time::from_secs(3)));
    }
}
