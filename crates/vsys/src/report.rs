//! Run measurements: the one tally a simulated run counts into, and the
//! report the experiments read off it.

use std::cell::RefCell;
use std::rc::Rc;

use lease_core::{OpOutcome, ToClient, ToServer};
use lease_sim::{Histogram, HistogramSummary};
use serde::{Deserialize, Serialize};

/// Which of the server's three kinds of traffic a message is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Consistency traffic other than approvals: lease requests and
    /// grants, relinquishes, installed-file multicasts, errors.
    Consistency,
    /// An approval callback or an approval: consistency traffic that
    /// [`RunReport::approval_msgs`] also counts on its own.
    Approval,
    /// A write or its reply: a write-through write contacts the server
    /// under any protocol.
    Data,
}

/// A protocol message the server actor counts: says which kind of
/// traffic it is. Every server that speaks a protocol shares its
/// classification, so the §6 baselines count exactly as the lease
/// server does.
pub trait TrafficClass {
    /// This message's kind of traffic.
    fn traffic(&self) -> Traffic;
}

impl<R, D> TrafficClass for ToServer<R, D> {
    fn traffic(&self) -> Traffic {
        match self {
            ToServer::Write { .. } => Traffic::Data,
            ToServer::Approve { .. } => Traffic::Approval,
            ToServer::Fetch { .. } | ToServer::Renew { .. } | ToServer::Relinquish { .. } => {
                Traffic::Consistency
            }
        }
    }
}

impl<R, D> TrafficClass for ToClient<R, D> {
    fn traffic(&self) -> Traffic {
        match self {
            ToClient::WriteDone { .. } => Traffic::Data,
            ToClient::ApprovalRequest { .. } => Traffic::Approval,
            ToClient::Grants { .. } | ToClient::InstalledExtend { .. } | ToClient::Error { .. } => {
                Traffic::Consistency
            }
        }
    }
}

/// What a simulated run counts, as the [`ServerActor`](crate::ServerActor),
/// the [`ClientActor`](crate::ClientActor)s and their
/// [`OpDriver`](crate::driver::OpDriver)s add to it. The fields mean what
/// [`RunReport`]'s of the same name do.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Consistency messages, approvals included.
    pub consistency_msgs: u64,
    /// Data messages.
    pub data_msgs: u64,
    /// Approval callbacks and approvals.
    pub approval_msgs: u64,
    /// Reads served from cache.
    pub hits: u64,
    /// Reads that contacted the server.
    pub remote_reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Temporary-file operations absorbed locally.
    pub temp_ops: u64,
    /// Operations that failed.
    pub op_failures: u64,
    /// Per-read delay (seconds).
    pub read_delay: Histogram,
    /// Per-write delay (seconds).
    pub write_delay: Histogram,
    /// Per-operation delay over reads and writes (seconds).
    pub all_delay: Histogram,
}

/// The tally one world's actors share.
pub type SharedTally = Rc<RefCell<Tally>>;

impl Tally {
    /// A fresh tally to share among one world's actors.
    pub fn shared() -> SharedTally {
        Rc::default()
    }

    /// Counts one message the server sent or received.
    pub fn message(&mut self, traffic: Traffic) {
        match traffic {
            Traffic::Consistency => self.consistency_msgs += 1,
            Traffic::Approval => {
                self.consistency_msgs += 1;
                self.approval_msgs += 1;
            }
            Traffic::Data => self.data_msgs += 1,
        }
    }

    /// Counts one completed operation by its outcome.
    pub fn done<D>(&mut self, outcome: &OpOutcome<D>) {
        match outcome {
            OpOutcome::Read {
                from_cache: true, ..
            } => self.hits += 1,
            OpOutcome::Read { .. } => self.remote_reads += 1,
            OpOutcome::Write { .. } => self.writes += 1,
        }
    }

    /// Records one operation's delay, in seconds.
    pub fn delay(&mut self, read: bool, secs: f64) {
        self.all_delay.record(secs);
        let h = if read {
            &mut self.read_delay
        } else {
            &mut self.write_delay
        };
        h.record(secs);
    }
}

/// Aggregate measurements of one simulated run.
///
/// *Consistency messages* are everything the lease protocol adds on top of
/// plain write-through file service: fetch/renew requests and their grant
/// replies, approval callbacks and approvals, relinquishes, installed-file
/// multicasts, and errors. Write requests and write-done replies are data
/// traffic — a write-through write contacts the server under any protocol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Consistency messages handled (sent or received) by the server.
    pub consistency_msgs: u64,
    /// Data messages (writes in, write-done out) at the server.
    pub data_msgs: u64,
    /// Approval-request multicasts sent (subset of consistency messages).
    pub approval_msgs: u64,
    /// Reads served from cache under a valid lease.
    pub hits: u64,
    /// Reads that contacted the server.
    pub remote_reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Temporary-file operations absorbed locally.
    pub temp_ops: u64,
    /// Operations that failed (timeout or missing resource).
    pub op_failures: u64,
    /// Per-read delay (seconds).
    pub read_delay: HistogramSummary,
    /// Per-write delay (seconds).
    pub write_delay: HistogramSummary,
    /// Per-operation delay over reads and writes (seconds).
    pub all_delay: HistogramSummary,
    /// Length of the measured window, seconds.
    pub window_secs: f64,
    /// Simulator events processed (for performance accounting).
    pub sim_events: u64,
}

impl RunReport {
    /// The report of a finished run: what its actors counted into
    /// `tally`, over a measured window of `window_secs`, with the
    /// simulator's event count.
    pub fn from_tally(tally: &mut Tally, window_secs: f64, sim_events: u64) -> RunReport {
        RunReport {
            consistency_msgs: tally.consistency_msgs,
            data_msgs: tally.data_msgs,
            approval_msgs: tally.approval_msgs,
            hits: tally.hits,
            remote_reads: tally.remote_reads,
            writes: tally.writes,
            temp_ops: tally.temp_ops,
            op_failures: tally.op_failures,
            read_delay: tally.read_delay.summary(),
            write_delay: tally.write_delay.summary(),
            all_delay: tally.all_delay.summary(),
            window_secs,
            sim_events,
        }
    }

    /// Consistency messages per second at the server.
    pub fn consistency_per_sec(&self) -> f64 {
        self.consistency_msgs as f64 / self.window_secs.max(1e-9)
    }

    /// Fraction of reads served from cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.remote_reads;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Mean added delay per operation, milliseconds.
    pub fn mean_delay_ms(&self) -> f64 {
        self.all_delay.mean * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lease_clock::Dur;
    use lease_core::{ReqId, Version};
    use lease_workload::Trace;

    #[test]
    fn report_reads_counters() {
        let mut t = Tally::default();
        let fetch = ToServer::<u64, u64>::Fetch {
            req: ReqId(1),
            resource: 1,
            cached: None,
            also_extend: Vec::new(),
        };
        let grants = ToClient::<u64, u64>::Grants {
            req: ReqId(1),
            grants: Vec::new(),
        };
        let write = ToServer::<u64, u64>::Write {
            req: ReqId(2),
            resource: 1,
            data: 7,
        };
        for _ in 0..10 {
            t.message(fetch.traffic());
            t.message(grants.traffic());
        }
        t.message(write.traffic());
        t.message(Traffic::Data);
        t.message(Traffic::Approval);
        let hit = OpOutcome::Read {
            data: 7u64,
            version: Version(1),
            from_cache: true,
        };
        for _ in 0..30 {
            t.done(&hit);
        }
        for _ in 0..10 {
            t.done(&OpOutcome::Read {
                data: 7u64,
                version: Version(1),
                from_cache: false,
            });
        }
        t.delay(true, 0.002);
        let r = RunReport::from_tally(&mut t, 10.0, 5);
        assert_eq!(r.consistency_msgs, 21);
        assert_eq!(r.approval_msgs, 1);
        assert_eq!(r.data_msgs, 2);
        assert_eq!(r.consistency_per_sec(), 2.1);
        assert!((r.hit_rate() - 0.75).abs() < 1e-12);
        assert!((r.mean_delay_ms() - 2.0).abs() < 1e-9);
        assert_eq!((r.read_delay.count, r.write_delay.count), (1, 0));
        assert_eq!(r.sim_events, 5);
    }

    #[test]
    fn empty_world_is_zeroes() {
        let empty = Trace::new(Vec::new(), Vec::new());
        let r = crate::build_world(&crate::SystemConfig::default(), &empty).run(Dur::ZERO);
        assert_eq!(r.consistency_msgs + r.data_msgs + r.hits + r.op_failures, 0);
        assert_eq!(r.hit_rate(), 0.0);
        assert_eq!(r.all_delay.count, 0);
    }
}
