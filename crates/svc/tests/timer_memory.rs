//! Timer memory follows live leases, not the rate they die at.
//!
//! A lease released by an approval or a relinquish orphans its entry on
//! the lease table's wheel, and a write committed by its approvals
//! orphans its deadline on the shard's wheel; both would otherwise stay
//! for a whole term. Here a two-shard service at a 10 s term (no timer
//! fires while the test runs) commits 10 240 deferred writes, each
//! approved by the reader whose lease blocked it, while a third client
//! leases and relinquishes every file once per round. After every round,
//! in every shard, the wheel entries must stay within twice the live
//! leases plus a constant — where keeping each orphan for its term would
//! leave tens of thousands.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use lease_clock::Dur;
use lease_core::table::ORPHAN_SLACK;
use lease_core::{
    ClientId, LeaseServer, MemStorage, ReqId, ServerConfig, Storage, ToClient, ToServer,
};
use lease_svc::{BatchBuf, ClientSink, LeaseService, SvcConfig, SvcHooks, WorkerSink};

const FILES: u64 = 64;
const ROUNDS: u64 = 160;
const READER: ClientId = ClientId(1);
const WRITER: ClientId = ClientId(2);
const CHURNER: ClientId = ClientId(3);
/// Per shard, beyond twice its live leases: the table's orphan slack,
/// the shard's own (no write is in flight between rounds) and its armed
/// prune.
const SLACK: u64 = 2 * ORPHAN_SLACK as u64 + 1;

type Msg = (ClientId, ToClient<u64, u64>);

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

/// Sends `inputs` and waits until every reply to them has left the
/// service (the stats barrier); returns the approval requests among them.
fn exchange(
    svc: &LeaseService<u64, u64>,
    rx: &Receiver<Msg>,
    inputs: Vec<(ClientId, ToServer<u64, u64>)>,
) -> Vec<(ClientId, ToServer<u64, u64>)> {
    let h = svc.handle();
    let mut buf: BatchBuf<u64, u64> = BatchBuf::new();
    for (from, msg) in inputs {
        buf.push(from, msg);
    }
    h.try_send_batch(&mut buf).expect("lanes open");
    assert!(buf.is_empty(), "refused with room to spare");
    svc.stats().expect("stats");
    rx.try_iter()
        .filter_map(|(to, msg)| match msg {
            ToClient::ApprovalRequest { write_id, .. } => {
                Some((to, ToServer::Approve { write_id }))
            }
            _ => None,
        })
        .collect()
}

fn fetch(req: ReqId, resource: u64) -> ToServer<u64, u64> {
    ToServer::Fetch {
        req,
        resource,
        cached: None,
        also_extend: Vec::new(),
    }
}

#[test]
fn wheel_entries_stay_within_twice_the_live_leases() {
    let (tx, rx) = channel();
    let cfg = SvcConfig {
        shards: 2,
        ..SvcConfig::default()
    };
    let svc = LeaseService::spawn(cfg, Arc::new(ChanSink(tx)), SvcHooks::default(), |_| {
        let mut store = MemStorage::new();
        for f in 0..FILES {
            store.insert(f, 0);
        }
        let store: Box<dyn Storage<u64, u64> + Send> = Box::new(store);
        let server = LeaseServer::new(ServerConfig::fixed(Dur::from_secs(10)));
        (server, store)
    });

    let mut req = 0;
    let mut next = || {
        req += 1;
        ReqId(req)
    };
    for round in 0..ROUNDS {
        let mut inputs = Vec::new();
        for resource in 0..FILES {
            inputs.push((CHURNER, fetch(next(), resource)));
            let resources = vec![resource];
            inputs.push((CHURNER, ToServer::Relinquish { resources }));
            inputs.push((READER, fetch(next(), resource)));
            let (req, data) = (next(), round + 1);
            inputs.push((
                WRITER,
                ToServer::Write {
                    req,
                    resource,
                    data,
                },
            ));
        }
        let approvals = exchange(&svc, &rx, inputs);
        assert_eq!(
            approvals.len() as u64,
            FILES,
            "every write waits for its reader"
        );
        assert!(exchange(&svc, &rx, approvals).is_empty());

        let stats = svc.stats().expect("stats");
        for (s, g) in stats.per_shard_gauges.iter().enumerate() {
            assert!(
                g.timer_entries <= 2 * g.leases_live + SLACK,
                "round {round}, shard {s}: {} wheel entries for {} live leases",
                g.timer_entries,
                g.leases_live
            );
        }
    }
    let stats = svc.stats().expect("stats");
    assert_eq!(stats.counters.writes_deferred, ROUNDS * FILES);
    // The writer's lease on every file; the reader's went with its
    // approval, the churner's with its relinquish.
    assert_eq!(stats.gauges.leases_live, FILES);
    assert!(stats.gauges.timer_entries <= 2 * stats.gauges.leases_live + 2 * SLACK);
    svc.shutdown();
}
