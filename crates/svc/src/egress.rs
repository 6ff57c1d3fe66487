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
//! Lanes are created lazily and adopted through the same
//! [`Inbox`] registration machinery the ingress direction uses — a
//! shard's first reply to a client registers a fresh lane the client
//! adopts on its next wakeup. The handshake with the service is
//! [`ClientSink::attach_worker`]: each worker asks the sink for its
//! private sending half at thread start (ring producers are
//! deliberately `!Sync`, so they cannot live behind the shared sink
//! `Arc`). A transport that must look at each message first — chaos
//! dice, replica fences, cut switches — wraps an [`EgressWorker`] in its
//! own [`WorkerSink`] and filters in front of [`EgressWorker::push_run`].

use std::sync::Arc;

use lease_core::ring::{spsc, Inbox, Lanes, Producer};
use lease_core::{ClientId, ToClient};

use crate::service::{ClientSink, WorkerSink};

/// The client-side receiving half for one client: its adopted egress
/// lanes (one per shard worker that has replied to it) plus the
/// doorbell to park on. Create exactly one per client via
/// [`Egress::rx`] and give it to the client's thread; dropping it
/// closes the client's inbox, so shard workers observe `Closed` and
/// drop further replies instead of stalling on a full lane nobody
/// drains.
pub type EgressRx<R, D> = Lanes<ToClient<R, D>>;

/// One client's registration hub in the shared registry.
type ClientInbox<R, D> = Arc<Inbox<ToClient<R, D>>>;

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
        Lanes::new(Arc::clone(&self.inboxes[c]))
    }

    /// Client `c`'s inbox — for whoever builds the client's receiving
    /// half itself (`Lanes::new`, instead of [`Egress::rx`]) or must ring
    /// the one doorbell its thread parks on for something besides a
    /// reply (`lease-rt`: an application thread that armed a timer).
    pub fn inbox(&self, c: usize) -> Arc<Inbox<ToClient<R, D>>> {
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
    producers: Vec<Option<Producer<ToClient<R, D>>>>,
    /// Per-client "this flush touched you" flags, cleared by
    /// [`EgressWorker::flush_wakes`].
    touched: Vec<bool>,
    /// The touched client ids of the current flush.
    rung: Vec<usize>,
    /// Reusable same-client run buffer for
    /// [`EgressWorker::deliver_batch`].
    run: Vec<ToClient<R, D>>,
}

impl<R: Send + 'static, D: Send + 'static> EgressWorker<R, D> {
    /// Publishes one same-client run (draining `run`) with one
    /// `Release` store, creating and registering the lane on first use,
    /// and marks the client for the flush's coalesced wakeup.
    ///
    /// A full lane rings the client's bell immediately (it may be
    /// parked behind a backlog) and yields until space frees; a closed
    /// lane — the client is gone — drops the run.
    pub fn push_run(&mut self, to: ClientId, run: &mut Vec<ToClient<R, D>>) {
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
    pub fn flush_wakes(&mut self) {
        for c in self.rung.drain(..) {
            self.touched[c] = false;
            self.egress.inboxes[c].bell().ring();
        }
    }

    /// One whole flush: groups consecutive same-client runs, publishes
    /// each with one `Release` store, then rings each touched client
    /// once. Allocation-free once the lanes and scratch buffers are
    /// warm (pinned by `zero_alloc_egress`).
    pub fn deliver_batch(&mut self, msgs: &mut Vec<(ClientId, ToClient<R, D>)>) {
        let mut run = std::mem::take(&mut self.run);
        let mut it = msgs.drain(..).peekable();
        while let Some((to, msg)) = it.next() {
            run.push(msg);
            while let Some((next, _)) = it.peek() {
                if *next != to {
                    break;
                }
                run.push(it.next().expect("peeked").1);
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
