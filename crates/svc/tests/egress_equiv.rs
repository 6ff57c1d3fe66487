//! Property: ring-lane egress — shard workers publishing reply runs
//! into per-client SPSC lanes with coalesced doorbells — is
//! *observationally equivalent* to a reference sink that does nothing
//! clever: the test-local [`FifoSink`] below forwards every reply, one
//! at a time, into a single FIFO.
//!
//! The same op stream run against both sinks — including with a shard
//! kill/restart injected mid-stream, so a flush is interrupted and the
//! restarted worker keeps publishing into the *same* lanes — must
//! deliver the same multiset of `ToClient` messages **per client** and
//! leave the same merged [`ServerCounters`]. Lanes from different shard
//! workers may interleave differently than the FIFO does, but nothing
//! may be lost, duplicated, or misrouted; with a single shard the
//! per-client delivery *order* must match exactly (one producer, one
//! lane, FIFO on both paths).
//!
//! Determinism notes mirror `batch_equiv.rs`: fixed terms (hours long,
//! nothing expires mid-test), kills land at the same stream position in
//! both runs, and `stats()` is the egress barrier — each shard flushes
//! its outbox (through its attached [`EgressWorker`] in ring mode)
//! before answering, so after `stats()` returns every reply is either
//! in the FIFO or published in a lane.

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lease_clock::Dur;
use lease_core::{
    ClientId, LeaseHandle, LeaseServer, MemStorage, ReqId, ServerConfig, Storage, ToClient,
    ToServer, Version,
};
use lease_svc::{
    ClientSink, Egress, EgressRx, EgressSink, LeaseService, SvcConfig, SvcHooks, WorkerSink,
};
use proptest::prelude::*;

const CLIENTS: usize = 2;
const RESOURCES: u64 = 12;

type Msg = (ClientId, ToClient<u64, u64>);

/// The reference: every worker appends each reply to one shared FIFO.
struct FifoSink(Sender<Msg>);
impl ClientSink<u64, u64> for FifoSink {
    fn attach_worker(&self) -> Box<dyn WorkerSink<u64, u64>> {
        Box::new(FifoSink(self.0.clone()))
    }
}
impl WorkerSink<u64, u64> for FifoSink {
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

fn make_step(kind: u8, client: u8, resource: u64, mask: u16, req: u64) -> Step {
    let from = ClientId(u32::from(client) % CLIENTS as u32);
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

/// Runs the stream against the reference sink (`ring == false`) or the
/// ring-lane sink (`ring == true`) and returns the merged counters plus
/// each client's delivered messages in arrival order.
fn run(steps: &[Step], shards: usize, ring: bool) -> (String, Vec<Vec<String>>) {
    let (tx, fifo_rx) = channel();
    let egress: Egress<u64, u64> = Egress::new(CLIENTS, 1024);
    let mut lane_rxs: Vec<EgressRx<u64, u64>> = (0..CLIENTS).map(|c| egress.rx(c)).collect();
    let sink: Arc<dyn ClientSink<u64, u64>> = if ring {
        Arc::new(EgressSink::new(egress.clone()))
    } else {
        Arc::new(FifoSink(tx))
    };
    let svc = LeaseService::spawn(
        SvcConfig {
            shards,
            ..SvcConfig::default()
        },
        sink,
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
    // A lane holds 1024 messages: a stream this short is never refused.
    for s in steps {
        match s {
            Step::Msg(from, msg) => h.try_send_at(*from, msg.clone(), None).unwrap(),
            Step::Kill(shard) => h.kill_shard(*shard).unwrap(),
        }
    }
    // Egress barrier: every shard flushes its outbox before answering.
    let counters = format!("{:?}", svc.stats().expect("stats").counters);
    svc.shutdown();
    let mut per_client: Vec<Vec<String>> = vec![Vec::new(); CLIENTS];
    if ring {
        let mut buf = Vec::new();
        for (c, rx) in lane_rxs.iter_mut().enumerate() {
            while rx.drain_into(&mut buf, 1024) > 0 {
                per_client[c].extend(buf.drain(..).map(|m| format!("{m:?}")));
            }
        }
    } else {
        while let Ok((to, m)) = fifo_rx.try_recv() {
            per_client[to.0 as usize].push(format!("{m:?}"));
        }
    }
    (counters, per_client)
}

proptest! {
    /// Multi-shard: per-client delivery is the same *multiset* on both
    /// paths (cross-shard interleaving is scheduling, not semantics),
    /// with the same counters, kill included.
    #[test]
    fn ring_egress_matches_the_fifo_reference(
        steps in proptest::collection::vec(step(), 1..48),
        kill in proptest::option::of((0usize..48, 0usize..3)),
    ) {
        let mut steps = steps;
        if let Some((at, shard)) = kill {
            steps.insert(at.min(steps.len()), Step::Kill(shard));
        }
        let (spec_counters, mut spec) = run(&steps, 3, false);
        let (ring_counters, mut ring) = run(&steps, 3, true);
        prop_assert_eq!(&spec_counters, &ring_counters);
        for c in 0..CLIENTS {
            spec[c].sort_unstable();
            ring[c].sort_unstable();
            prop_assert_eq!(&spec[c], &ring[c], "client {} multiset", c);
        }
    }

    /// Single shard: one producer per client lane, so per-client
    /// delivery *order* must match the reference exactly.
    #[test]
    fn single_shard_ring_egress_preserves_order(
        steps in proptest::collection::vec(step(), 1..32),
    ) {
        let (spec_counters, spec) = run(&steps, 1, false);
        let (ring_counters, ring) = run(&steps, 1, true);
        prop_assert_eq!(&spec_counters, &ring_counters);
        for c in 0..CLIENTS {
            prop_assert_eq!(&spec[c], &ring[c], "client {} order", c);
        }
    }
}

/// The egress mirror of the core ring's `doorbell_never_loses_a_wakeup`,
/// driven from the shard-flush side: a producer thread publishing runs
/// through [`EgressWorker::deliver_batch`] (coalesced `flush_wakes`
/// rings, full-lane ring-then-yield backpressure) races a consumer
/// running the ticket-before-final-poll park loop. Every message must
/// arrive, in order, without the consumer ever sleeping through a
/// publish.
#[test]
fn egress_doorbell_never_loses_a_wakeup() {
    const N: u64 = 20_000;
    let egress: Egress<u64, u64> = Egress::new(1, 64);
    let mut worker = egress.worker();
    let mut rx = egress.rx(0);
    let producer = std::thread::spawn(move || {
        let mut batch: Vec<(ClientId, ToClient<u64, u64>)> = Vec::new();
        let mut i = 0u64;
        while i < N {
            let burst = (1 + i % 7).min(N - i);
            for _ in 0..burst {
                batch.push((
                    ClientId(0),
                    ToClient::WriteDone {
                        req: ReqId(i),
                        resource: i,
                        version: Version(i),
                        term: Dur::from_secs(1),
                    },
                ));
                i += 1;
            }
            worker.deliver_batch(&mut batch);
            if i.is_multiple_of(64) {
                std::thread::yield_now();
            }
        }
    });
    let mut next = 0u64;
    let mut buf = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while next < N {
        let ticket = rx.bell().ticket();
        if rx.drain_into(&mut buf, 1024) > 0 {
            for m in buf.drain(..) {
                match m {
                    ToClient::WriteDone { req, .. } => {
                        assert_eq!(req.0, next, "lane delivery out of order");
                        next += 1;
                    }
                    other => panic!("unexpected message {other:?}"),
                }
            }
            continue;
        }
        assert!(
            Instant::now() < deadline,
            "lost wakeup or stalled lane: {next}/{N} received"
        );
        rx.bell().wait(ticket, Duration::from_millis(100));
    }
    producer.join().unwrap();
}
