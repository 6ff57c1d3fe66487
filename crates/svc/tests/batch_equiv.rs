//! Property: batched submission in arbitrary chunkings is
//! *observationally equivalent* to submitting the same messages one by
//! one.
//!
//! The same op stream pushed two ways — one-by-one through this handle's
//! SPSC lanes (`try_send_at`), and chunked through shard-affine
//! `try_send_batch` —
//! including with a shard kill/restart injected mid-stream, possibly
//! mid-batch — must leave the service in the same observable state: the
//! same merged [`ServerCounters`] and the same multiset of delivered
//! `ToClient` messages. This is the license for every batching layer in
//! the message path (the router's one-pass staging, the ring's
//! single-publish `push_from`, the worker's round-robin lane drain and
//! outbox, the sink's `deliver_batch`): lanes may reorder *between*
//! shards but must preserve each shard's FIFO and lose nothing.
//!
//! Determinism notes: a fixed [`TermPolicy`](lease_core::TermPolicy)
//! keeps grant terms constant (terms are relative `Dur`s, not wall
//! times), terms are hours long so nothing expires mid-test, a kill is
//! flushed to the same per-shard stream position in both runs, and
//! `stats()` is the egress barrier — each shard flushes its outbox
//! before answering, so after `stats()` returns every reply to earlier
//! input is in the sink.

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;

use lease_clock::Dur;
use lease_core::{
    ClientId, LeaseHandle, LeaseServer, MemStorage, ReqId, ServerConfig, Storage, ToClient,
    ToServer, Version,
};
use lease_svc::{BatchBuf, ClientSink, LeaseService, SvcConfig, SvcHandle, SvcHooks, WorkerSink};
use proptest::prelude::*;

const SHARDS: usize = 3;
const RESOURCES: u64 = 12;

type Msg = (ClientId, ToClient<u64, u64>);

/// Collects every worker's flushes into one channel.
struct ChanSink(Sender<Msg>);
impl ClientSink<u64, u64> for ChanSink {
    fn attach_worker(&self) -> Box<dyn WorkerSink<u64, u64>> {
        Box::new(ChanSink(self.0.clone()))
    }
}
impl WorkerSink<u64, u64> for ChanSink {
    fn deliver_batch(&mut self, msgs: &mut Vec<Msg>) {
        for m in msgs.drain(..) {
            let _ = self.0.send(m);
        }
    }
}

/// One step of the generated stream: a protocol message from a client,
/// or an injected shard crash.
#[derive(Debug, Clone)]
enum Step {
    Msg(ClientId, ToServer<u64, u64>),
    Kill(usize),
}

/// Expands a compact generated tuple into a protocol step. `kind`
/// selects the message; `mask` picks a resource subset for the
/// multi-resource messages (so fetches split across shards).
fn make_step(kind: u8, client: u8, resource: u64, mask: u16, req: u64) -> Step {
    let from = ClientId(u32::from(client % 2));
    let set = |mask: u16| -> Vec<(u64, Version, LeaseHandle)> {
        (0..RESOURCES)
            .filter(|r| mask & (1 << r) != 0)
            .map(|r| (r, Version(0), LeaseHandle::NULL))
            .collect()
    };
    let msg = match kind % 5 {
        0 | 1 => ToServer::Fetch {
            req: ReqId(req),
            resource,
            cached: None,
            also_extend: set(mask),
        },
        2 => ToServer::Renew {
            req: ReqId(req),
            resources: set(mask),
        },
        3 => ToServer::Write {
            req: ReqId(req),
            resource,
            data: req,
        },
        _ => ToServer::Relinquish {
            resources: set(mask).into_iter().map(|(r, _, _)| r).collect(),
        },
    };
    Step::Msg(from, msg)
}

fn step() -> impl Strategy<Value = Step> {
    (
        proptest::prelude::any::<u8>(),
        proptest::prelude::any::<u8>(),
        0u64..RESOURCES,
        proptest::prelude::any::<u16>(),
        1u64..1_000_000,
    )
        .prop_map(|(kind, client, resource, mask, req)| {
            make_step(kind, client, resource, mask, req)
        })
}

/// How the stream is submitted to the service.
#[derive(Clone, Copy)]
enum Mode<'a> {
    /// One-by-one over this handle's SPSC ring lanes.
    Lanes,
    /// Shard-affine `try_send_batch` over the lanes, cut into buffers of
    /// the given sizes (cycled).
    Chunked(&'a [usize]),
}

/// Submits the whole buffer. A stream is at most 49 steps and a lane
/// holds 1024, so nothing is ever refused.
fn submit(h: &SvcHandle<u64, u64>, buf: &mut BatchBuf<u64, u64>) {
    h.try_send_batch(buf).unwrap();
    assert!(buf.is_empty(), "refused with room to spare");
}

/// Runs the stream and returns the observable outcome: the merged
/// counters (as a debug string) and the sorted multiset of delivered
/// messages. A kill always flushes the open buffer first so it lands
/// at the same per-shard stream position in every mode.
fn run(steps: &[Step], mode: Mode<'_>) -> (String, Vec<String>) {
    let (tx, rx) = channel();
    let svc = LeaseService::spawn(
        SvcConfig {
            shards: SHARDS,
            ..SvcConfig::default()
        },
        Arc::new(ChanSink(tx)),
        SvcHooks::default(),
        |_| {
            let mut store: MemStorage<u64, u64> = MemStorage::new();
            for r in 0..RESOURCES {
                store.insert(r, r);
            }
            (
                LeaseServer::new(ServerConfig::fixed(Dur::from_secs(3600))),
                Box::new(store) as Box<dyn Storage<u64, u64> + Send>,
            )
        },
    );
    let h = svc.handle();
    match mode {
        Mode::Lanes => {
            for s in steps {
                match s {
                    Step::Msg(from, msg) => h.try_send_at(*from, msg.clone(), None).unwrap(),
                    Step::Kill(shard) => h.kill_shard(*shard).unwrap(),
                }
            }
        }
        Mode::Chunked(chunks) => {
            let mut buf: BatchBuf<u64, u64> = BatchBuf::new();
            let mut sizes = chunks.iter().cycle();
            let mut goal = *sizes.next().unwrap();
            for s in steps {
                match s {
                    Step::Msg(from, msg) => {
                        buf.push(*from, msg.clone());
                        if buf.len() >= goal {
                            submit(&h, &mut buf);
                            goal = *sizes.next().unwrap();
                        }
                    }
                    Step::Kill(shard) => {
                        if !buf.is_empty() {
                            submit(&h, &mut buf);
                        }
                        h.kill_shard(*shard).unwrap();
                    }
                }
            }
            if !buf.is_empty() {
                submit(&h, &mut buf);
            }
        }
    }
    // Egress barrier: every shard flushes its outbox before answering.
    let counters = format!("{:?}", svc.stats().expect("stats").counters);
    svc.shutdown();
    let mut delivered: Vec<String> = Vec::new();
    while let Ok(m) = rx.try_recv() {
        delivered.push(format!("{m:?}"));
    }
    delivered.sort_unstable();
    (counters, delivered)
}

proptest! {
    #[test]
    fn chunked_batches_match_one_by_one_sends(
        steps in proptest::collection::vec(step(), 1..48),
        chunks in proptest::collection::vec(1usize..9, 1..6),
        kill in proptest::option::of((0usize..48, 0usize..SHARDS)),
    ) {
        // Inject the kill (if any) at its stream position in *all* runs.
        let mut steps = steps;
        if let Some((at, shard)) = kill {
            steps.insert(at.min(steps.len()), Step::Kill(shard));
        }
        let (lane_counters, lane_msgs) = run(&steps, Mode::Lanes);
        let (chunk_counters, chunk_msgs) = run(&steps, Mode::Chunked(&chunks));
        prop_assert_eq!(&lane_counters, &chunk_counters);
        prop_assert_eq!(lane_msgs.len(), chunk_msgs.len());
        prop_assert_eq!(&lane_msgs, &chunk_msgs);
    }
}
