//! Thread-per-core egress: per-(shard→client) SPSC reply lanes with
//! coalesced doorbell wakeups.
//!
//! PR 8 made ingress lock-free (every producer owns one bounded SPSC
//! ring per shard); this module is the mirror image for the reply path.
//! Each shard worker owns one bounded SPSC ring **per client it has
//! ever replied to** — the worker is the single producer, the client
//! thread the single consumer — so a steady-state reply crosses zero
//! locks between the shard's state machine and the client's cache:
//!
//! * The shard's per-wakeup outbox flush groups consecutive same-client
//!   runs (replies arrive heavily run-clustered: one client's batch
//!   drains in order) and publishes each run with **one `Release`
//!   store** via [`lease_core::ring::Producer::push_from`].
//! * Each touched client's [`lease_core::ring::Doorbell`] is rung
//!   **once per flush** — coalesced, not per message. A flush that
//!   answers a 64-op batch for one client costs one ring; if the client
//!   is mid-drain or spinning, that ring is two uncontended atomics and
//!   no futex at all (the collapse [`Egress::wakes`] per op measures).
//! * Client threads drain their lanes round-robin through
//!   [`lease_core::ring::Lanes`] with the same ticket-before-final-poll
//!   spin-then-park loop shard workers use, so a publish-then-ring can
//!   never slip between a client's last look and its sleep.
//!
//! **A thread frees what it allocates; a lane carries plain data.** A
//! lane slot is a [`Reply`], not a [`ToClient`]: the common reply — a
//! fetch answered with exactly one grant — rides inline as
//! [`Reply::Grant`], and [`EgressWorker::deliver_batch`] converts each
//! message on the shard's own thread, so the grant `Vec` the state
//! machine allocated is freed by the thread that allocated it (a
//! thread-cache hit) instead of by the consumer (a cross-thread free into
//! the shard's arena). The consumer either rebuilds the `ToClient`
//! ([`EgressRx::drain_into`], its own allocation on its own thread) or
//! takes the lane form as is ([`EgressRx::drain_replies_into`]: a socket
//! writer encodes it straight into its frame). Rarer replies — several
//! grants (piggybacked renewals), installed-file extensions — still carry
//! their `Vec` across as [`Reply::Msg`].
//!
//! Lanes are created lazily and adopted through the same
//! [`Inbox`] registration machinery the ingress direction uses — a
//! shard's first reply to a client registers a fresh lane the client
//! adopts on its next wakeup. The handshake with the service is
//! [`ClientSink::attach_worker`]: each worker asks the sink for its
//! private sending half at thread start (ring producers are
//! deliberately `!Sync`, so they cannot live behind the shared sink
//! `Arc`). A transport that must look at each message first — chaos
//! dice, replica fences, cut switches — wraps an [`EgressWorker`] in its
//! own [`WorkerSink`] and filters in front of
//! [`EgressWorker::deliver_batch`].

use std::sync::Arc;

use lease_core::ring::{spsc, Doorbell, Inbox, Lanes, Producer};
use lease_core::{ClientId, Grant, ReqId, ToClient};

use crate::service::{ClientSink, WorkerSink};

/// A reply as it rides an egress lane: fixed-size, and owning no heap
/// block the shard allocated for a one-grant fetch reply.
///
/// `Reply::from(m).into_msg() == m` for every `m` (a unit test pins it).
#[derive(Debug, Clone, PartialEq)]
pub enum Reply<R, D> {
    /// A [`ToClient::Grants`] holding exactly one grant, carried inline.
    Grant {
        /// The request being answered.
        req: ReqId,
        /// The one grant.
        grant: Grant<R, D>,
    },
    /// Every other reply, as is.
    Msg(ToClient<R, D>),
}

impl<R, D> From<ToClient<R, D>> for Reply<R, D> {
    /// Takes a one-grant reply's grant out of its `Vec` and frees the
    /// `Vec` here, on the converting (producing) thread.
    fn from(m: ToClient<R, D>) -> Reply<R, D> {
        match m {
            ToClient::Grants { req, mut grants } if grants.len() == 1 => Reply::Grant {
                req,
                grant: grants.pop().expect("one grant"),
            },
            m => Reply::Msg(m),
        }
    }
}

impl<R, D> Reply<R, D> {
    /// The protocol message this reply carries; a [`Reply::Grant`] gets a
    /// fresh one-grant `Vec`, allocated on the calling (consuming) thread.
    pub fn into_msg(self) -> ToClient<R, D> {
        match self {
            Reply::Grant { req, grant } => ToClient::Grants {
                req,
                grants: vec![grant],
            },
            Reply::Msg(m) => m,
        }
    }
}

/// The client-side receiving half for one client: its adopted egress
/// lanes (one per shard worker that has replied to it) plus the
/// doorbell to park on. Create exactly one per client via
/// [`Egress::rx`] and give it to the client's thread; dropping it
/// closes the client's inbox, so shard workers observe `Closed` and
/// drop further replies instead of stalling on a full lane nobody
/// drains.
pub struct EgressRx<R, D> {
    lanes: Lanes<Reply<R, D>>,
    /// Lane-form scratch for [`EgressRx::drain_into`], reused across
    /// calls.
    scratch: Vec<Reply<R, D>>,
}

impl<R, D> EgressRx<R, D> {
    /// The doorbell to park on (ticket before the final poll).
    pub fn bell(&self) -> &Doorbell {
        self.lanes.bell()
    }

    /// One round-robin sweep over the lanes, appending at most `max`
    /// replies to `out` as the [`ToClient`]s the shard produced (a
    /// one-grant reply's `Vec` is allocated here, on this thread).
    /// Returns how many were moved.
    pub fn drain_into(&mut self, out: &mut Vec<ToClient<R, D>>, max: usize) -> usize {
        let n = self.lanes.drain_into(&mut self.scratch, max);
        out.extend(self.scratch.drain(..).map(Reply::into_msg));
        n
    }

    /// [`EgressRx::drain_into`] without the conversion: the replies in
    /// their lane form, for a consumer that reads them where they are
    /// (a socket writer encoding frames).
    pub fn drain_replies_into(&mut self, out: &mut Vec<Reply<R, D>>, max: usize) -> usize {
        self.lanes.drain_into(out, max)
    }

    /// How many lanes — one per shard worker that has replied — are
    /// adopted right now.
    pub fn adopted(&self) -> usize {
        self.lanes.adopted()
    }
}

/// One client's registration hub in the shared registry.
type ClientInbox<R, D> = Arc<Inbox<Reply<R, D>>>;

/// The shared egress registry: one [`Inbox`] per client, handed to the
/// sink side ([`EgressWorker`]s publish into it) and the client side
/// ([`EgressRx`]s drain from it). Cheaply cloneable.
pub struct Egress<R, D> {
    inboxes: Arc<[ClientInbox<R, D>]>,
    lane_cap: usize,
}

impl<R, D> Clone for Egress<R, D> {
    fn clone(&self) -> Self {
        Egress {
            inboxes: Arc::clone(&self.inboxes),
            lane_cap: self.lane_cap,
        }
    }
}

impl<R: Send + 'static, D: Send + 'static> Egress<R, D> {
    /// A registry for `clients` clients, each lane holding `lane_cap`
    /// replies (rounded up to a power of two). A full lane briefly
    /// stalls the producing shard worker (ring-then-yield until the
    /// client drains or disconnects), so size it to the largest burst a
    /// single flush can address to one client — the service's mailbox
    /// capacity is the natural choice.
    pub fn new(clients: usize, lane_cap: usize) -> Egress<R, D> {
        Egress {
            inboxes: (0..clients).map(|_| Arc::new(Inbox::new())).collect(),
            lane_cap,
        }
    }

    /// How many clients the registry was built for.
    pub fn clients(&self) -> usize {
        self.inboxes.len()
    }

    /// The receiving half for client `c`. Call exactly once per client
    /// (two `EgressRx` over one inbox would split its lanes between
    /// them arbitrarily).
    pub fn rx(&self, c: usize) -> EgressRx<R, D> {
        EgressRx {
            lanes: Lanes::new(Arc::clone(&self.inboxes[c])),
            scratch: Vec::new(),
        }
    }

    /// Client `c`'s inbox — for whoever builds the client's receiving
    /// half itself (`Lanes::new`, instead of [`Egress::rx`]) or must ring
    /// the one doorbell its thread parks on for something besides a
    /// reply (`lease-rt`: an application thread that armed a timer).
    pub fn inbox(&self, c: usize) -> Arc<Inbox<Reply<R, D>>> {
        Arc::clone(&self.inboxes[c])
    }

    /// A private sending half for one shard worker (the
    /// [`ClientSink::attach_worker`] handshake).
    pub fn worker(&self) -> EgressWorker<R, D> {
        EgressWorker {
            egress: self.clone(),
            producers: (0..self.inboxes.len()).map(|_| None).collect(),
            touched: vec![false; self.inboxes.len()],
            rung: Vec::with_capacity(self.inboxes.len()),
            run: Vec::new(),
        }
    }

    /// Total futex-backed wakeups issued across every client doorbell —
    /// rings that found the client parked (see
    /// [`lease_core::ring::Doorbell::wakes`]). `wakes() / ops` is the
    /// wakes-per-op figure the benchmarks record; coalescing and client
    /// spin push it far below one.
    pub fn wakes(&self) -> u64 {
        self.inboxes.iter().map(|i| i.bell().wakes()).sum()
    }
}

/// One shard worker's private egress half: the per-client ring
/// producers (created lazily on first reply to each client) and the
/// flush's coalescing state. `Send` but not `Sync` — exactly one worker
/// thread owns it.
pub struct EgressWorker<R, D> {
    egress: Egress<R, D>,
    producers: Vec<Option<Producer<Reply<R, D>>>>,
    /// Per-client "this flush touched you" flags, cleared by
    /// [`EgressWorker::flush_wakes`].
    touched: Vec<bool>,
    /// The touched client ids of the current flush.
    rung: Vec<usize>,
    /// Reusable same-client run buffer for
    /// [`EgressWorker::deliver_batch`].
    run: Vec<Reply<R, D>>,
}

impl<R: Send + 'static, D: Send + 'static> EgressWorker<R, D> {
    /// Publishes one same-client run (draining `run`) with one
    /// `Release` store, creating and registering the lane on first use,
    /// and marks the client for the flush's coalesced wakeup.
    ///
    /// A full lane rings the client's bell immediately (it may be
    /// parked behind a backlog) and yields until space frees; a closed
    /// lane — the client is gone — drops the run.
    fn push_run(&mut self, to: ClientId, run: &mut Vec<Reply<R, D>>) {
        let c = to.0 as usize;
        if c >= self.producers.len() {
            debug_assert!(false, "egress to unknown client {c}");
            run.clear();
            return;
        }
        let inbox = &self.egress.inboxes[c];
        let p = self.producers[c].get_or_insert_with(|| {
            let (tx, rx) = spsc(self.egress.lane_cap);
            inbox.register(rx);
            tx
        });
        while !run.is_empty() {
            p.push_from(run);
            if run.is_empty() {
                break;
            }
            if p.is_closed() {
                // The client dropped its EgressRx (or never will adopt,
                // because its inbox closed): the replies die here, like
                // a send to a disconnected channel.
                run.clear();
                return;
            }
            // Lane full: this is backpressure from a slow client. Wake
            // it *now* — it may be parked with a full lane it polled
            // before we published — then let it run.
            inbox.bell().ring();
            std::thread::yield_now();
        }
        if !self.touched[c] {
            self.touched[c] = true;
            self.rung.push(c);
        }
    }

    /// Rings each client touched since the last call — once per client,
    /// however many runs the flush pushed at it.
    fn flush_wakes(&mut self) {
        for c in self.rung.drain(..) {
            self.touched[c] = false;
            self.egress.inboxes[c].bell().ring();
        }
    }

    /// One whole flush: converts each message to its lane form on this
    /// (the shard's) thread, groups consecutive same-client runs,
    /// publishes each with one `Release` store, then rings each touched
    /// client once. Allocation-free once the lanes and scratch buffers
    /// are warm, and every one-grant reply's `Vec` is freed here (both
    /// pinned by `zero_alloc_egress`).
    pub fn deliver_batch(&mut self, msgs: &mut Vec<(ClientId, ToClient<R, D>)>) {
        let mut run = std::mem::take(&mut self.run);
        let mut it = msgs.drain(..).peekable();
        while let Some((to, msg)) = it.next() {
            run.push(msg.into());
            while let Some((_, msg)) = it.next_if(|(next, _)| *next == to) {
                run.push(msg.into());
            }
            self.push_run(to, &mut run);
        }
        drop(it);
        self.run = run;
        self.flush_wakes();
    }
}

impl<R: Send + 'static, D: Send + 'static> WorkerSink<R, D> for EgressWorker<R, D> {
    fn deliver_batch(&mut self, msgs: &mut Vec<(ClientId, ToClient<R, D>)>) {
        EgressWorker::deliver_batch(self, msgs);
    }
}

/// A ready-made [`ClientSink`] over an [`Egress`] registry for
/// embedders without a transport of their own (benchmarks, tests, the
/// TCP front): every shard worker gets its own [`EgressWorker`].
pub struct EgressSink<R, D> {
    egress: Egress<R, D>,
}

impl<R: Send + 'static, D: Send + 'static> EgressSink<R, D> {
    /// Wraps a registry.
    pub fn new(egress: Egress<R, D>) -> EgressSink<R, D> {
        EgressSink { egress }
    }
}

impl<R: Send + 'static, D: Send + 'static> ClientSink<R, D> for EgressSink<R, D> {
    fn attach_worker(&self) -> Box<dyn WorkerSink<R, D>> {
        Box::new(self.egress.worker())
    }
}

#[cfg(test)]
mod tests {
    use lease_clock::{Dur, Time};
    use lease_core::{ErrorReason, LeaseHandle, Version, WriteId};

    use super::*;

    fn grant(resource: u64, data: Option<u64>) -> Grant<u64, u64> {
        Grant {
            resource,
            version: Version(resource + 1),
            data,
            term: Dur::from_secs(10),
            handle: LeaseHandle::from_raw(resource as u32, 3),
        }
    }

    /// The lane form loses nothing: every reply comes back out of
    /// `into_msg` as it went in, and only a one-grant `Grants` changes
    /// shape on the way.
    #[test]
    fn reply_conversion_is_lossless() {
        let grants = |grants| ToClient::Grants {
            req: ReqId(9),
            grants,
        };
        let msgs: Vec<(ToClient<u64, u64>, bool)> = vec![
            (grants(vec![grant(1, Some(5))]), true),
            (grants(vec![grant(1, None)]), true),
            (grants(vec![grant(1, Some(5)), grant(2, None)]), false),
            (grants(vec![]), false),
            (
                ToClient::WriteDone {
                    req: ReqId(2),
                    resource: 4,
                    version: Version(7),
                    term: Dur::from_secs(1),
                },
                false,
            ),
            (
                ToClient::ApprovalRequest {
                    write_id: WriteId(11),
                    resource: 4,
                    replaces: Version(6),
                },
                false,
            ),
            (
                ToClient::InstalledExtend {
                    resources: vec![(1, Version(2)), (3, Version(4))],
                    term: Dur::from_secs(30),
                    sent_at: Time::from_millis(12),
                },
                false,
            ),
            (
                ToClient::Error {
                    req: ReqId(3),
                    reason: ErrorReason::NoSuchResource,
                },
                false,
            ),
            (
                ToClient::Error {
                    req: ReqId(4),
                    reason: ErrorReason::Shed {
                        retry_after: Dur::from_millis(10),
                    },
                },
                false,
            ),
        ];
        for (m, inline) in msgs {
            let r = Reply::from(m.clone());
            assert_eq!(matches!(r, Reply::Grant { .. }), inline, "{m:?}");
            assert_eq!(r.into_msg(), m);
        }
    }
}
